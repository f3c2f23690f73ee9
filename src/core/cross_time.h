// Cross-time diff — the Tripwire [KS94] / Strider Troubleshooter
// [WVS03, WVD+03] baseline the paper contrasts with.
//
// A cross-time diff compares persistent-state snapshots from two points
// in time: it catches a broader class of malware (hiding or not) but
// "typically includes a significant number of false positives stemming
// from legitimate changes and thus requires additional noise filtering".
// This module implements that baseline faithfully — checkpoint capture,
// content hashing, change classification and the noise filter — so the
// ablation bench can quantify the paper's usability argument instead of
// asserting it. The diff is one serial pass over two sorted maps; the
// ablation bench and the stealth_audit example call it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "machine/machine.h"

namespace gb::core {

/// A persistent-state checkpoint: file metadata/content hashes plus
/// registry value hashes (what Tripwire's database holds).
struct Checkpoint {
  struct FileEntry {
    std::uint64_t size = 0;
    std::uint64_t content_hash = 0;
    bool is_directory = false;

    bool operator==(const FileEntry&) const = default;
  };
  std::map<std::string, FileEntry> files;          // folded path -> entry
  std::map<std::string, std::uint64_t> registry;   // folded key|value -> hash
  VirtualClock::Micros taken_at = 0;

  std::size_t size() const { return files.size() + registry.size(); }
};

/// Captures a checkpoint through the *trusted* low-level views (Tripwire
/// runs with the file system's cooperation; interception still applies
/// if taken through APIs — we use raw structures to isolate the
/// cross-time-vs-cross-view comparison from the hiding question).
Checkpoint take_checkpoint(machine::Machine& m);

enum class ChangeKind { kAdded, kRemoved, kModified };

struct Change {
  ChangeKind kind = ChangeKind::kAdded;
  std::string what;  // path or registry identity
  bool is_registry = false;
};

struct CrossTimeDiff {
  std::vector<Change> changes;
  std::size_t added() const;
  std::size_t removed() const;
  std::size_t modified() const;
};

/// Tripwire-style comparison of two checkpoints.
CrossTimeDiff cross_time_diff(const Checkpoint& before,
                              const Checkpoint& after);

/// The noise filter cross-time tools must carry: path patterns for
/// locations that change legitimately all the time (logs, temp, caches,
/// prefetch). Returns the changes that survive filtering.
std::vector<Change> filter_noise(const std::vector<Change>& changes,
                                 const std::vector<std::string>& patterns);

/// The default noise rules a 2004-era deployment would ship.
const std::vector<std::string>& default_noise_patterns();

}  // namespace gb::core
