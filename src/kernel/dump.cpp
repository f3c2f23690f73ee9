#include "kernel/dump.h"

#include <algorithm>
#include <string>

#include "kernel/dump_format.h"
#include "obs/trace.h"

namespace gb::kernel {

namespace {

void write_str(ByteWriter& w, std::string_view s) {
  w.u16(static_cast<std::uint16_t>(s.size()));
  w.str(s);
}

std::string read_str(ByteReader& r) {
  const std::uint16_t len = r.u16();
  return r.str(len);
}

/// Reads the fixed sections between the length header and the record
/// heap. On return `r` is positioned at the start of the heap.
struct DumpSections {
  std::vector<Pid> active;
  std::vector<Thread> threads;
  std::vector<Driver> drivers;
  std::vector<std::uint64_t> directory;  // absolute record offsets
};

DumpSections read_sections(ByteReader& r) {
  DumpSections s;
  const std::uint32_t n_active = r.count(4);
  s.active.reserve(n_active);
  for (std::uint32_t i = 0; i < n_active; ++i) s.active.push_back(r.u32());

  const std::uint32_t n_threads = r.count(8);
  s.threads.reserve(n_threads);
  for (std::uint32_t i = 0; i < n_threads; ++i) {
    Thread t;
    t.tid = r.u32();
    t.owner_pid = r.u32();
    s.threads.push_back(t);
  }

  const std::uint32_t n_drivers = r.count(4);  // two u16-prefixed strings
  s.drivers.reserve(n_drivers);
  for (std::uint32_t i = 0; i < n_drivers; ++i) {
    Driver d;
    d.name = read_str(r);
    d.image_path = read_str(r);
    s.drivers.push_back(std::move(d));
  }

  const std::uint32_t n_proc = r.count(8);
  s.directory.reserve(n_proc);
  for (std::uint32_t i = 0; i < n_proc; ++i) s.directory.push_back(r.u64());
  return s;
}

void write_sections(ByteWriter& w, const DumpSections& s) {
  w.u32(static_cast<std::uint32_t>(s.active.size()));
  for (const Pid pid : s.active) w.u32(pid);
  w.u32(static_cast<std::uint32_t>(s.threads.size()));
  for (const Thread& t : s.threads) {
    w.u32(t.tid);
    w.u32(t.owner_pid);
  }
  w.u32(static_cast<std::uint32_t>(s.drivers.size()));
  for (const Driver& d : s.drivers) {
    write_str(w, d.name);
    write_str(w, d.image_path);
  }
  w.u32(static_cast<std::uint32_t>(s.directory.size()));
  for (const std::uint64_t off : s.directory) w.u64(off);
}

/// Validates that `off` heads a well-formed record header inside `image`
/// and returns the payload extent. Throws ParseError otherwise.
std::pair<std::size_t, std::size_t> record_payload_extent(
    std::span<const std::byte> image, std::uint64_t off) {
  if (off + internal::kRecordHeaderBytes > image.size()) {
    throw ParseError("process record offset out of range");
  }
  for (std::size_t i = 0; i < internal::kRecordTag.size(); ++i) {
    if (image[off + i] != internal::kRecordTag[i]) {
      throw ParseError("bad process record tag");
    }
  }
  ByteReader lr(image.subspan(off + internal::kRecordTag.size(), 4));
  const std::uint32_t len = lr.u32();
  const std::size_t begin = off + internal::kRecordHeaderBytes;
  if (begin + len > image.size()) {
    throw ParseError("process record extends past end of dump");
  }
  return {begin, begin + len};
}

}  // namespace

namespace internal {

KernelDump::ProcessImage parse_process_payload(ByteReader& r) {
  KernelDump::ProcessImage p;
  p.pid = r.u32();
  p.parent_pid = r.u32();
  p.image_name = read_str(r);
  p.image_path = read_str(r);
  const std::uint32_t n_peb = r.count(4);
  p.peb_modules.reserve(n_peb);
  for (std::uint32_t j = 0; j < n_peb; ++j) {
    PebModuleEntry m;
    m.path = read_str(r);
    m.name = read_str(r);
    p.peb_modules.push_back(std::move(m));
  }
  const std::uint32_t n_kmod = r.count(4);
  p.kernel_modules.reserve(n_kmod);
  for (std::uint32_t j = 0; j < n_kmod; ++j) {
    KernelModule m;
    m.path = read_str(r);
    m.name = read_str(r);
    p.kernel_modules.push_back(std::move(m));
  }
  return p;
}

}  // namespace internal

std::vector<ProcessInfo> KernelDump::active_view() const {
  std::vector<ProcessInfo> out;
  for (const Pid pid : active_list) {
    if (const ProcessImage* p = find(pid)) {
      out.push_back(ProcessInfo{p->pid, p->parent_pid, p->image_name});
    }
  }
  return out;
}

std::vector<ProcessInfo> KernelDump::thread_view() const {
  std::vector<ProcessInfo> out;
  std::vector<Pid> seen;
  for (const Thread& t : threads) {
    if (std::find(seen.begin(), seen.end(), t.owner_pid) != seen.end()) {
      continue;
    }
    seen.push_back(t.owner_pid);
    if (const ProcessImage* p = find(t.owner_pid)) {
      out.push_back(ProcessInfo{p->pid, p->parent_pid, p->image_name});
    }
  }
  return out;
}

const KernelDump::ProcessImage* KernelDump::find(Pid pid) const {
  for (const auto& p : processes) {
    if (p.pid == pid) return &p;
  }
  return nullptr;
}

std::vector<std::byte> serialize_dump(const KernelDump& dump) {
  ByteWriter w;
  w.u64(internal::kDumpMagic);
  w.u64(0);  // total_len, patched below

  DumpSections s;
  s.active = dump.active_list;
  s.threads = dump.threads;
  s.drivers = dump.drivers;
  s.directory.assign(dump.processes.size(), 0);  // patched as records land
  write_sections(w, s);
  const std::size_t dir_base = w.size() - 8 * dump.processes.size();

  for (std::size_t i = 0; i < dump.processes.size(); ++i) {
    const auto& p = dump.processes[i];
    w.patch_u64(dir_base + 8 * i, w.size());
    w.bytes(internal::kRecordTag);
    const std::size_t len_at = w.size();
    w.u32(0);  // payload length, patched below
    const std::size_t payload_at = w.size();
    w.u32(p.pid);
    w.u32(p.parent_pid);
    write_str(w, p.image_name);
    write_str(w, p.image_path);
    w.u32(static_cast<std::uint32_t>(p.peb_modules.size()));
    for (const auto& m : p.peb_modules) {
      write_str(w, m.path);
      write_str(w, m.name);
    }
    w.u32(static_cast<std::uint32_t>(p.kernel_modules.size()));
    for (const auto& m : p.kernel_modules) {
      write_str(w, m.path);
      write_str(w, m.name);
    }
    w.patch_u32(len_at, static_cast<std::uint32_t>(w.size() - payload_at));
  }

  w.patch_u64(8, w.size());
  return std::move(w).take();
}

std::vector<std::byte> write_dump(const Kernel& kernel) {
  KernelDump dump;
  for (const auto& [pid, proc] : kernel.id_table()) {
    KernelDump::ProcessImage p;
    p.pid = pid;
    p.parent_pid = proc->parent_pid();
    p.image_name = proc->image_name();
    p.image_path = proc->image_path();
    p.peb_modules = proc->peb_modules();
    p.kernel_modules = proc->kernel_modules();
    dump.processes.push_back(std::move(p));
  }
  dump.active_list.assign(kernel.active_process_list().begin(),
                          kernel.active_process_list().end());
  dump.threads = kernel.scheduler_threads();
  dump.drivers = kernel.drivers();
  return serialize_dump(dump);
}

KernelDump parse_dump(std::span<const std::byte> image,
                      support::ThreadPool* pool) {
  auto span = obs::default_tracer().span("parse.dump", "parse");
  span.arg("bytes", std::to_string(image.size()));
  ByteReader r(image);
  if (r.u64() != internal::kDumpMagic) throw ParseError("bad dump magic");
  if (r.u64() != image.size()) {
    throw ParseError("dump length mismatch (truncated or padded image)");
  }

  KernelDump dump;
  DumpSections s = read_sections(r);
  dump.active_list = std::move(s.active);
  dump.threads = std::move(s.threads);
  dump.drivers = std::move(s.drivers);

  // Validate every directory entry serially (same bounds checks at any
  // worker count), then parse the referenced records into pre-sized
  // slots — record order, and with it every downstream view and report,
  // is independent of the worker count. Heap bytes not referenced by the
  // directory are slack: a traversal never visits them (that is what a
  // dump scrubber exploits; see kernel/carve.h for the counter).
  std::vector<std::pair<std::size_t, std::size_t>> extents;
  extents.reserve(s.directory.size());
  for (const std::uint64_t off : s.directory) {
    extents.push_back(record_payload_extent(image, off));
  }

  dump.processes.resize(extents.size());
  auto parse_one = [&](std::size_t i) {
    ByteReader pr(
        image.subspan(extents[i].first, extents[i].second - extents[i].first));
    dump.processes[i] = internal::parse_process_payload(pr);
    if (!pr.at_end()) throw ParseError("process record length mismatch");
  };
  if (pool) {
    pool->parallel_for(extents.size(), parse_one);
  } else {
    for (std::size_t i = 0; i < extents.size(); ++i) parse_one(i);
  }
  return dump;
}

support::StatusOr<KernelDump> parse_dump_or(std::span<const std::byte> image,
                                            support::ThreadPool* pool) {
  try {
    return parse_dump(image, pool);
  } catch (const ParseError& e) {
    return support::Status::corrupt(e.what());
  }
}

void scrub_dump(std::vector<std::byte>& bytes, std::span<const Pid> pids) {
  try {
    ByteReader r(bytes);
    if (r.u64() != internal::kDumpMagic) return;
    if (r.u64() != bytes.size()) return;
    DumpSections s = read_sections(r);
    const std::size_t old_heap = r.pos();

    auto hidden = [&](Pid pid) {
      return std::find(pids.begin(), pids.end(), pid) != pids.end();
    };
    std::erase_if(s.active, hidden);
    std::erase_if(s.threads,
                  [&](const Thread& t) { return hidden(t.owner_pid); });
    // Drop directory entries whose record belongs to a hidden pid. The
    // pid sits at a fixed offset in the payload, so no full parse is
    // needed — and crucially the heap below is copied verbatim, so the
    // record's bytes survive as unreferenced slack.
    std::erase_if(s.directory, [&](std::uint64_t off) {
      const auto [begin, end] = record_payload_extent(bytes, off);
      if (end - begin < 4) return false;
      ByteReader pr(std::span<const std::byte>(bytes).subspan(begin, 4));
      return hidden(pr.u32());
    });

    ByteWriter w;
    w.u64(internal::kDumpMagic);
    w.u64(0);
    write_sections(w, s);
    const std::size_t new_heap = w.size();
    const std::size_t dir_base = new_heap - 8 * s.directory.size();
    for (std::size_t i = 0; i < s.directory.size(); ++i) {
      w.patch_u64(dir_base + 8 * i,
                  s.directory[i] - old_heap + new_heap);
    }
    w.bytes(std::span<const std::byte>(bytes).subspan(old_heap));
    w.patch_u64(8, w.size());
    bytes = std::move(w).take();
  } catch (const ParseError&) {
    // A dump this scrubber cannot even read is left untouched: the
    // attack degrades to a no-op rather than crashing the blue screen.
  }
}

}  // namespace gb::kernel
