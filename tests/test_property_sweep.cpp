// Property sweeps across the whole malware collection: the detection
// invariants must hold uniformly for every program × targeting policy ×
// scan mode, not just for the hand-picked cases.
#include <gtest/gtest.h>

#include "core/scan_engine.h"
#include "core/removal.h"
#include "malware/collection.h"

namespace gb {
namespace {

using core::ScanEngine;
using core::ScanKind;
using core::ResourceType;

machine::MachineConfig small_config(std::uint64_t seed = 1) {
  machine::MachineConfig cfg;
  cfg.seed = seed;
  cfg.synthetic_files = 25;
  cfg.synthetic_registry_keys = 12;
  return cfg;
}

struct SweepCase {
  std::size_t program_index;
  std::uint64_t seed;
};

class FileHiderSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(FileHiderSweep, InvariantsHoldForEveryProgramAndSeed) {
  const auto [index, seed] = GetParam();
  const auto entries = malware::file_hiding_collection();
  machine::Machine m(small_config(seed));
  const auto ghost = entries[index].install(m);

  core::ScanConfig o;
  o.processes.scheduler_view = true;
  o.parallelism = 1;
  const auto report = ScanEngine(m, o).run({.kind = ScanKind::kInside}).value();

  // Invariant 1: every manifest-hidden file is found.
  const auto* files = report.diff_for(ResourceType::kFile);
  for (const auto& path : ghost->manifest().hidden_files) {
    EXPECT_TRUE(
        [&] {
          for (const auto& f : files->hidden) {
            if (f.resource.key == core::file_key(path)) return true;
          }
          return false;
        }())
        << entries[index].display_name << " seed=" << seed << " " << path;
  }
  // Invariant 2: no false positives — every finding is in some manifest
  // set (file, hook target path, etc.).
  EXPECT_EQ(files->hidden.size(), ghost->manifest().hidden_files.size());
  // Invariant 3: visible artifacts are NOT reported.
  for (const auto& path : ghost->manifest().visible_files) {
    for (const auto& f : files->hidden) {
      EXPECT_NE(f.resource.key, core::file_key(path));
    }
  }
  // Invariant 4: removal leaves the machine clean.
  const auto outcome = core::remove_ghostware(m, report, o);
  EXPECT_TRUE(outcome.clean())
      << entries[index].display_name << "\n"
      << outcome.verification.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllProgramsThreeSeeds, FileHiderSweep,
    ::testing::Combine(::testing::Range<std::size_t>(0, 10),
                       ::testing::Values(1, 42, 20260704)));

class TargetingSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TargetingSweep, UtilityTargetedHidingBeatenByInjection) {
  // Every hook-based file hider, configured to hide only from
  // explorer.exe: the plain scan must stay silent, the injected scan must
  // detect. (Filter-driver hiders included: IRP scoping.)
  struct Maker {
    const char* label;
    std::function<std::shared_ptr<malware::Ghostware>(machine::Machine&,
                                                      malware::TargetPolicy)>
        make;
  };
  static const std::vector<Maker> kMakers = {
      {"urbin",
       [](machine::Machine& m, malware::TargetPolicy p) {
         return std::static_pointer_cast<malware::Ghostware>(
             malware::install_ghostware<malware::Urbin>(m, std::move(p)));
       }},
      {"vanquish",
       [](machine::Machine& m, malware::TargetPolicy p) {
         return std::static_pointer_cast<malware::Ghostware>(
             malware::install_ghostware<malware::Vanquish>(m, std::move(p)));
       }},
      {"aphex",
       [](machine::Machine& m, malware::TargetPolicy p) {
         return std::static_pointer_cast<malware::Ghostware>(
             malware::install_ghostware<malware::Aphex>(m, "~",
                                                        std::move(p)));
       }},
      {"hackerdefender",
       [](machine::Machine& m, malware::TargetPolicy p) {
         return std::static_pointer_cast<malware::Ghostware>(
             malware::install_ghostware<malware::HackerDefender>(
                 m, std::vector<std::string>{"rcmd*"}, std::move(p)));
       }},
      {"probotse",
       [](machine::Machine& m, malware::TargetPolicy p) {
         return std::static_pointer_cast<malware::Ghostware>(
             malware::install_ghostware<malware::ProBotSe>(m, std::move(p)));
       }},
      {"filehider",
       [](machine::Machine& m, malware::TargetPolicy p) {
         auto h = malware::make_hide_files({"C:\\documents\\user\\private"},
                                           std::move(p));
         h->install(m);
         return std::static_pointer_cast<malware::Ghostware>(h);
       }},
  };

  const auto& maker = kMakers[GetParam()];
  machine::Machine m(small_config());
  maker.make(m, malware::TargetPolicy::only({"explorer.exe"}));

  core::ScanConfig cfg;
  cfg.resources = core::ResourceMask::kFiles | core::ResourceMask::kAseps;
  cfg.parallelism = 1;
  ScanEngine gb(m, cfg);
  EXPECT_FALSE(gb.run({.kind = ScanKind::kInside}).value().infection_detected())
      << maker.label;
  EXPECT_TRUE(
      gb.run({.kind = ScanKind::kInjected}).value().infection_detected())
      << maker.label;
}

INSTANTIATE_TEST_SUITE_P(SixTechniques, TargetingSweep,
                         ::testing::Range<std::size_t>(0, 6));

TEST(CleanSweep, ManySeedsNeverFalsePositive) {
  // Zero-FP property: across differently-seeded clean machines, the full
  // inside scan (all four resource types, advanced mode) reports nothing.
  for (const std::uint64_t seed : {2u, 77u, 555u, 31337u}) {
    machine::Machine m(small_config(seed));
    m.run_for(VirtualClock::seconds(120));
    core::ScanConfig o;
    o.processes.scheduler_view = true;
    o.parallelism = 1;
    const auto report =
        ScanEngine(m, o).run({.kind = ScanKind::kInside}).value();
    EXPECT_FALSE(report.infection_detected())
        << "seed " << seed << "\n"
        << report.to_string();
    for (const auto& d : report.diffs) {
      EXPECT_TRUE(d.extra.empty()) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace gb
