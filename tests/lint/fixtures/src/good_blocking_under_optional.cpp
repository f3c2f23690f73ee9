// MUST-PASS fixture for [blocking-under-lock] through a std::optional
// member: the same blocking Sink::append exists, but the optional under
// the lock holds a Ring, whose append only stores. Resolving
// `ring_->append` by name alone could pick either class; the declared
// field type picks Ring, so nothing blocks under the mutex.
#include <fstream>
#include <mutex>
#include <optional>

#include "support/thread_annotations.h"

struct Sink {
  std::ofstream out_;

  void append(int v) {
    out_ << v;
    out_.flush();
  }
};

struct Ring {
  int last_ = 0;

  void append(int v) { last_ = v; }
};

struct Log {
  std::mutex mu;
  int seq GB_GUARDED_BY(mu) = 0;
  std::optional<Ring> ring_ GB_GUARDED_BY(mu);

  void append(int v) {
    std::lock_guard<std::mutex> g(mu);
    ++seq;
    ring_->append(v);
  }
};
