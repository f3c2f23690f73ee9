// MUST-FIRE fixture for [blocking-under-lock] through a std::optional
// member: the log appends to its file while holding its mutex, and the
// file's append flushes. The call site spells only `file_->append`, a
// name the standard library shares, so the finding depends on the
// declared field type resolving through optional to Sink.
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

struct Log {
  std::mutex mu;
  int seq GB_GUARDED_BY(mu) = 0;
  std::optional<Sink> file_ GB_GUARDED_BY(mu);

  void append(int v) {
    std::lock_guard<std::mutex> g(mu);
    ++seq;
    file_->append(v);
  }
};
