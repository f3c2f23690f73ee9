// The eTrust demonstration from Section 5.
//
// A signature scanner (InocIT.exe) has the known-bad signature for
// Hacker Defender but enumerates files through the hooked API stack, so
// it never sees the rootkit's files. Injecting the GhostBuster DLL into
// the scanner process lets the *same process* compare its API view with
// the raw MFT — the rootkit is caught. This creates the dilemma: hide
// from the scanner and GhostBuster flags you; don't hide and the
// signatures flag you.
//
//   $ ./examples/av_integration
#include <cstdio>

#include "core/scan_engine.h"
#include "malware/hackerdefender.h"
#include "support/strings.h"

namespace {

/// A toy signature engine: flags any visible file whose *content*
/// contains a known-bad marker.
int signature_scan(gb::machine::Machine& m, gb::kernel::Pid scanner_pid) {
  auto* env = m.win32().env(scanner_pid);
  const auto ctx = m.context_for(scanner_pid);
  int detections = 0;
  std::function<void(const std::string&)> walk = [&](const std::string& dir) {
    bool ok = false;
    for (const auto& e : env->find_files(ctx, dir, &ok)) {
      const std::string full = gb::join_path(dir, e.name);
      if (e.is_directory) {
        walk(full);
        continue;
      }
      const auto content = gb::to_string(m.volume().read_file(full));
      if (gb::icontains(content, "hxdef")) ++detections;  // the signature
    }
  };
  walk("C:");
  return detections;
}

}  // namespace

int main() {
  using namespace gb;
  machine::Machine m;
  malware::install_ghostware<malware::HackerDefender>(m);
  const auto av_pid = m.find_pid("inocit.exe");

  // Pass 1: the signature engine alone. It has the signature, but the
  // enumeration it walks never returns the hidden files.
  const int sig_hits = signature_scan(m, av_pid);
  std::printf("[eTrust] signature-only scan: %d detections (signature "
              "present, files hidden)\n",
              sig_hits);

  // Pass 2: inject GhostBuster into InocIT.exe — run the cross-view diff
  // from the scanner's own context. Files + ASEP hooks only: the AV
  // product owns process monitoring already.
  core::ScanConfig cfg;
  cfg.scanner_image = "inocit.exe";
  cfg.resources = core::ResourceMask::kFiles | core::ResourceMask::kAseps;
  core::ScanEngine engine(m, cfg);
  const auto report = engine.run({.kind = core::ScanKind::kInside}).value();
  std::printf("[eTrust+GhostBuster DLL] cross-view diff from InocIT.exe:\n");
  for (const auto& f : report.all_hidden()) {
    std::printf("    HIDDEN %s\n", f.resource.display.c_str());
  }
  std::printf("dilemma: %s\n",
              report.infection_detected()
                  ? "hiding exposed by GhostBuster (not hiding would expose "
                    "it to the signatures)"
                  : "undetected?!");
  // What the product would forward to its management console: the v2
  // report (adds wall/simulated timing per diff and the worker count).
  std::printf("[SIEM upload] %s\n", report.to_json().c_str());
  return report.infection_detected() && sig_hits == 0 ? 0 : 1;
}
