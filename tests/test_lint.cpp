// gb-lint self-tests: every rule is proven LIVE (it fires on a known-bad
// fixture and goes quiet when disabled) and PRECISE (the matching
// known-good fixture, which names the banned constructs in comments and
// strings, stays clean). The suite ends with the real sweep: gb-lint
// over the actual tree must report zero findings — that test is the
// machine-enforced version of this project's correctness invariants.
#include "gb_lint/lint.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gb_lint/lock_graph.h"

namespace {

using gb::lint::Finding;
using gb::lint::Options;

std::string fixture(const std::string& name) {
  return std::string(GB_LINT_FIXTURE_DIR) + "/src/" + name;
}

std::vector<Finding> lint_fixture(const std::string& name,
                                  const Options& opts = {}) {
  const std::string path = fixture(name);
  EXPECT_TRUE(std::filesystem::exists(path)) << path;
  return gb::lint::lint_file(path, opts);
}

/// The (rule, bad fixture, good fixture) triples. Kept in one table so
/// FixtureCorpusCoversEveryRule can fail the build of a rule added
/// without its must-fire / must-pass pair.
struct Fixtures {
  const char* rule;
  const char* bad;
  const char* good;
};

constexpr Fixtures kFixtures[] = {
    {"wall-clock", "bad_wall_clock.cpp", "good_wall_clock.cpp"},
    {"nondet-random", "bad_nondet_random.cpp", "good_nondet_random.cpp"},
    {"locale-format", "bad_locale_format.cpp", "good_locale_format.cpp"},
    {"unordered-report", "bad_unordered_report.cpp",
     "good_unordered_report.cpp"},
    {"status-nodiscard", "bad_status_nodiscard.h", "good_status_nodiscard.h"},
    {"catch-all", "bad_catch_all.cpp", "good_catch_all.cpp"},
    {"mutex-name", "bad_mutex_name.cpp", "good_mutex_name.cpp"},
    {"naked-new", "bad_naked_new.cpp", "good_naked_new.cpp"},
    {"raw-thread", "bad_raw_thread.cpp", "good_raw_thread.cpp"},
    {"raw-transport-io", "bad_raw_transport_io.cpp",
     "good_raw_transport_io.cpp"},
    {"metric-name-format", "bad_metric_name_format.cpp",
     "good_metric_name_format.cpp"},
    {"lock-order-cycle", "bad_lock_order_cycle.cpp",
     "good_lock_order_cycle.cpp"},
    {"blocking-under-lock", "bad_blocking_under_lock.cpp",
     "good_blocking_under_lock.cpp"},
    {"unannotated-guarded-member", "bad_unannotated_guarded_member.cpp",
     "good_unannotated_guarded_member.cpp"},
    {"stale-waiver", "bad_stale_waiver.cpp", "good_stale_waiver.cpp"},
};

TEST(LintRules, EveryRuleFiresOnItsBadFixture) {
  for (const auto& fx : kFixtures) {
    const auto findings = lint_fixture(fx.bad);
    EXPECT_FALSE(findings.empty()) << fx.rule << " did not fire on " << fx.bad;
    bool fired = false;
    for (const auto& f : findings) {
      EXPECT_EQ(f.rule, fx.rule)
          << fx.bad << " tripped a different rule: " << f.to_string();
      EXPECT_GT(f.line, 0u);
      fired |= f.rule == fx.rule;
    }
    EXPECT_TRUE(fired) << fx.rule;
  }
}

TEST(LintRules, EveryGoodFixtureIsClean) {
  for (const auto& fx : kFixtures) {
    const auto findings = lint_fixture(fx.good);
    EXPECT_TRUE(findings.empty())
        << fx.good << " first: "
        << (findings.empty() ? "" : findings.front().to_string());
  }
}

// The liveness proof the acceptance bar asks for: with the rule disabled
// the bad fixture passes, so the zero-findings tree sweep genuinely
// depends on every rule being on.
TEST(LintRules, DisablingARuleSilencesItsBadFixture) {
  for (const auto& fx : kFixtures) {
    Options disabled;
    disabled.disabled.push_back(fx.rule);
    EXPECT_TRUE(lint_fixture(fx.bad, disabled).empty()) << fx.rule;

    Options only_other;
    only_other.only.push_back(fx.rule == std::string("naked-new")
                                  ? "catch-all"
                                  : "naked-new");
    EXPECT_TRUE(lint_fixture(fx.bad, only_other).empty()) << fx.rule;
  }
}

TEST(LintRules, FixtureCorpusCoversEveryRule) {
  const auto rules = gb::lint::rules();
  ASSERT_EQ(rules.size(), std::size(kFixtures));
  for (const auto& rule : rules) {
    bool covered = false;
    for (const auto& fx : kFixtures) covered |= rule.id == fx.rule;
    EXPECT_TRUE(covered) << "rule without fixtures: " << rule.id;
    EXPECT_TRUE(gb::lint::known_rule(rule.id));
  }
  EXPECT_FALSE(gb::lint::known_rule("no-such-rule"));
}

// Calls through a std::optional member resolve to the held type, as
// calls through unique_ptr and shared_ptr do — including a member whose
// declaration carries a GB_GUARDED_BY annotation.
TEST(LintRules, OptionalMemberCallsResolveToTheHeldType) {
  const auto bad = lint_fixture("bad_blocking_under_optional.cpp");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].rule, "blocking-under-lock");
  EXPECT_NE(bad[0].message.find("'flush'"), std::string::npos)
      << bad[0].to_string();
  EXPECT_NE(bad[0].message.find("Log::mu"), std::string::npos)
      << bad[0].to_string();
  const auto good = lint_fixture("good_blocking_under_optional.cpp");
  EXPECT_TRUE(good.empty()) << good.front().to_string();
}

TEST(LintSuppressions, InlineAllowSilencesNamedRulesOnly) {
  // The corpus file carries same-line, line-above, and multi-rule
  // allow() waivers for real violations.
  EXPECT_TRUE(lint_fixture("suppressed.cpp").empty());

  // The same content minus the waivers fires — suppression is what keeps
  // it quiet, not rule scoping.
  const auto unsuppressed = gb::lint::lint_content(
      "src/suppressed_copy.cpp",
      "#include <thread>\n"
      "int* leak() { return new int(7); }\n"
      "void hammer(void (*fn)()) { std::thread t(fn); t.join(); }\n");
  ASSERT_EQ(unsuppressed.size(), 2u);
  EXPECT_EQ(unsuppressed[0].rule, "naked-new");
  EXPECT_EQ(unsuppressed[1].rule, "raw-thread");

  // An allow() for a different rule does not waive the finding — and is
  // itself reported stale, because it suppressed nothing.
  const auto wrong_rule = gb::lint::lint_content(
      "src/wrong.cpp",
      "// gb-lint: allow(catch-all)\n"
      "int* leak() { return new int(7); }\n");
  ASSERT_EQ(wrong_rule.size(), 2u);
  EXPECT_EQ(wrong_rule[0].rule, "stale-waiver");
  EXPECT_EQ(wrong_rule[0].line, 1u);
  EXPECT_EQ(wrong_rule[1].rule, "naked-new");
  EXPECT_EQ(wrong_rule[1].line, 2u);
}

TEST(LintScoping, CommentsAndStringsNeverFire) {
  EXPECT_TRUE(gb::lint::lint_content(
                  "src/doc.cpp",
                  "// system_clock, rand(), catch (...) in a comment\n"
                  "/* std::thread worker; new int; std::mutex bad; */\n"
                  "const char* s = \"time(nullptr) new std::thread\";\n"
                  "const char* r = R\"(std::unordered_map rand())\";\n")
                  .empty());
}

TEST(LintScoping, TestsAndBenchScopeSkipLibraryRules) {
  const std::string hammer =
      "#include <thread>\n"
      "void go(void (*fn)()) { std::thread t(fn); t.join(); }\n";
  // Harness code may own threads...
  EXPECT_TRUE(gb::lint::lint_content("tests/test_hammer.cpp", hammer).empty());
  EXPECT_TRUE(gb::lint::lint_content("bench/bench_hammer.cpp", hammer).empty());
  // ...library code may not.
  EXPECT_FALSE(gb::lint::lint_content("src/hammer.cpp", hammer).empty());
  // The fixture corpus path re-enters library scope via its trailing
  // /src/ component — the property this suite's fixtures rely on.
  EXPECT_FALSE(gb::lint::lint_content("tests/lint/fixtures/src/hammer.cpp",
                                      hammer)
                   .empty());
  // catch (...) is banned in every scope.
  const std::string swallow =
      "void f() { try { g(); } catch (...) { } }\n";
  EXPECT_FALSE(
      gb::lint::lint_content("tests/test_swallow.cpp", swallow).empty());
}

TEST(LintTree, RealTreeHasZeroFindings) {
  const std::string root = GB_LINT_REPO_ROOT;
  const gb::lint::TreeReport report = gb::lint::lint_tree(
      {root + "/src", root + "/tools", root + "/tests", root + "/bench",
       root + "/examples"});
  for (const auto& f : report.findings) {
    ADD_FAILURE() << f.to_string();
  }
  // Sanity: the sweep actually visited the tree (and skipped build
  // trees + the fixture corpus, which would otherwise dominate).
  EXPECT_GT(report.files_scanned, 150u);
  for (const auto& f : report.findings) {
    EXPECT_EQ(f.file.find("build"), std::string::npos);
    EXPECT_EQ(f.file.find("fixtures"), std::string::npos);
  }
}

TEST(LintTree, ExplicitFileBypassesExcludes) {
  // Directly-named files are linted even though tree walks skip the
  // fixture corpus — this is how this very suite exercises it.
  EXPECT_FALSE(
      gb::lint::lint_tree({fixture("bad_naked_new.cpp")}).findings.empty());
  const gb::lint::TreeReport swept =
      gb::lint::lint_tree({std::string(GB_LINT_FIXTURE_DIR)});
  EXPECT_TRUE(swept.findings.empty());
  EXPECT_EQ(swept.files_scanned, 0u);
}

TEST(LintTree, UnreadableFileIsAFindingNotACrash) {
  const auto findings = gb::lint::lint_file("/no/such/file.cpp");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io");
}

// The determinism contract the Options::workers doc promises: the full
// tree sweep is byte-identical whether it runs inline or on 8 threads.
TEST(LintTree, SweepIsByteIdenticalAcrossWorkerCounts) {
  const std::string root = GB_LINT_REPO_ROOT;
  const std::vector<std::string> roots = {root + "/src", root + "/tools"};
  auto render = [&](std::size_t workers) {
    Options opts;
    opts.workers = workers;
    const gb::lint::TreeReport report = gb::lint::lint_tree(roots, opts);
    std::string out;
    for (const auto& f : report.findings) out += f.to_string() + "\n";
    out += std::to_string(report.files_scanned);
    return out;
  };
  const std::string inline_run = render(0);
  EXPECT_EQ(inline_run, render(1));
  EXPECT_EQ(inline_run, render(2));
  EXPECT_EQ(inline_run, render(8));
}

// --- the cycle detector, in isolation --------------------------------------

using gb::lint::LockEdge;

std::vector<std::vector<std::string>> cycles(
    const std::vector<LockEdge>& edges) {
  return gb::lint::detect_lock_cycles(edges);
}

TEST(LockCycles, TwoNodeInversionIsACycle) {
  const auto got = cycles({{"A", "B", "f.cpp", 1},
                           {"B", "A", "g.cpp", 2}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::vector<std::string>{"A", "B"}));
}

TEST(LockCycles, ThreeNodeRotationIsACycle) {
  const auto got = cycles({{"A", "B", "f.cpp", 1},
                           {"B", "C", "f.cpp", 2},
                           {"C", "A", "f.cpp", 3}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::vector<std::string>{"A", "B", "C"}));
}

TEST(LockCycles, DiamondIsNotACycle) {
  // A before {B, C} before D: a consistent partial order, two paths to
  // the same lock, zero deadlocks.
  EXPECT_TRUE(cycles({{"A", "B", "f.cpp", 1},
                      {"A", "C", "f.cpp", 2},
                      {"B", "D", "f.cpp", 3},
                      {"C", "D", "f.cpp", 4}})
                  .empty());
}

TEST(LockCycles, SelfEdgeIsACycle) {
  // Re-entrant acquisition (recursion under a non-recursive mutex).
  const auto got = cycles({{"A", "A", "f.cpp", 1}});
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::vector<std::string>{"A"}));
}

TEST(LockCycles, DisjointCyclesAreBothReported) {
  const auto got = cycles({{"A", "B", "f.cpp", 1},
                           {"B", "A", "f.cpp", 2},
                           {"C", "D", "g.cpp", 3},
                           {"D", "C", "g.cpp", 4}});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(got[1], (std::vector<std::string>{"C", "D"}));
}

// --- SARIF export ----------------------------------------------------------

// The golden fixture pins the exact bytes: SARIF consumers (code-scanning
// upload, diff-based CI gates) depend on the serialization not drifting.
TEST(LintSarif, MatchesGoldenFixture) {
  gb::lint::TreeReport report;
  report.findings = gb::lint::lint_content(
      "src/pool.cpp",
      "#include <thread>\n"
      "void spin() { std::thread t([] {}); t.join(); }\n");
  report.files_scanned = 1;
  const std::string got = gb::lint::to_sarif(report);

  const std::string golden_path =
      std::string(GB_LINT_REPO_ROOT) + "/tests/lint/golden/report.sarif";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << golden_path;
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(got, ss.str());
}

TEST(LintSarif, EveryRuleIsADescriptorAndEveryFindingIndexesOne) {
  gb::lint::TreeReport report;
  report.findings.push_back(
      gb::lint::Finding{"src/a.cpp", 3, "naked-new", "msg with \"quotes\""});
  report.findings.push_back(gb::lint::Finding{"src/b.cpp", 0, "io", "gone"});
  const std::string sarif = gb::lint::to_sarif(report);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  for (const auto& rule : gb::lint::rules()) {
    EXPECT_NE(sarif.find("\"id\": \"" + std::string(rule.id) + "\""),
              std::string::npos)
        << rule.id;
  }
  // Known rule: indexed into the descriptor table. Pseudo-rule "io":
  // still a result, no ruleIndex, and a line of 0 omits the region.
  EXPECT_NE(sarif.find("\"ruleId\": \"naked-new\", \"ruleIndex\": "),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"io\", \"level\""), std::string::npos);
  EXPECT_NE(sarif.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
}

}  // namespace
