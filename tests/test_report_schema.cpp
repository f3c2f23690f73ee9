// Golden-file compatibility: pins the schema-v2.5 report JSON of each
// scan kind (inside, injected, outside) so schema and engine changes are
// deliberate, not accidental. Regenerate the goldens with
// GB_UPDATE_GOLDEN=1 after an intentional schema bump.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/scan_engine.h"
#include "malware/aphex.h"
#include "malware/doublefu.h"
#include "malware/hackerdefender.h"
#include "malware/vanquish.h"

namespace gb {
namespace {

/// Zeroes the wall-clock fields — the only nondeterministic bytes in a
/// report — exactly as the determinism suite does.
std::string normalize(const std::string& j) {
  return core::normalize_report_json(j);
}

std::string golden_path(const std::string& name = "report_v2_5.json") {
  return std::string(GB_GOLDEN_DIR) + "/" + name;
}

machine::MachineConfig small_config() {
  machine::MachineConfig cfg;
  cfg.synthetic_files = 20;
  cfg.synthetic_registry_keys = 10;
  return cfg;
}

std::string serial_report_json(machine::Machine& m, core::ScanKind kind,
                               core::ScanConfig scan_cfg = {}) {
  scan_cfg.parallelism = 1;
  core::ScanEngine engine(m, scan_cfg);
  return normalize(engine.run({.kind = kind}).value().to_json());
}

/// The pinned scenario: a seeded small machine with Hacker Defender,
/// scanned serially. Every byte of the normalized JSON is reproducible.
std::string reference_report_json() {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  return serial_report_json(m, core::ScanKind::kInside);
}

/// Injected scan: Aphex lies only to taskmgr.exe and Vanquish only to
/// explorer.exe, so only the per-process union sees both. The SOFTWARE
/// hive's magic is smashed with the pre-scan flush off (the CLI's
/// --corrupt-hive), so the ASEP diff has no completed trusted view.
std::string injected_report_json() {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::Aphex>(
      m, "~", malware::TargetPolicy::only({"taskmgr.exe"}));
  malware::install_ghostware<malware::Vanquish>(
      m, malware::TargetPolicy::only({"explorer.exe"}));
  malware::install_ghostware<malware::HackerDefender>(m);
  m.flush_registry();
  const char* hive = "C:\\windows\\system32\\config\\software";
  auto bytes = m.volume().read_file(hive);
  bytes.at(0) = std::byte{0};
  m.volume().write_file(hive, bytes);
  core::ScanConfig scan_cfg;
  scan_cfg.registry.flush_hives_first = false;
  return serial_report_json(m, core::ScanKind::kInjected, scan_cfg);
}

/// Outside-the-box run: Hacker Defender plus DoubleFu, whose dump
/// scrubber leaves the hidden process to the signature carve alone.
std::string outside_report_json() {
  machine::Machine m(small_config());
  malware::install_ghostware<malware::HackerDefender>(m);
  auto fu2 = malware::install_ghostware<malware::DoubleFu>(m);
  const auto victim =
      m.spawn_process("C:\\windows\\system32\\notepad.exe").pid();
  EXPECT_TRUE(fu2->hide_process(m, victim));
  return serial_report_json(m, core::ScanKind::kOutside);
}

void expect_matches_golden(const std::string& actual,
                           const std::string& name) {
  if (std::getenv("GB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(name), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path(name);
    out << actual << '\n';
    GTEST_SKIP() << "golden regenerated at " << golden_path(name);
  }
  std::ifstream in(golden_path(name), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path(name)
                  << " (regenerate with GB_UPDATE_GOLDEN=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string expected = buf.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();
  EXPECT_EQ(actual, expected)
      << "report JSON changed; if the schema bump is deliberate, rerun "
         "with GB_UPDATE_GOLDEN=1 and review the golden diff";
}

TEST(ReportSchemaGolden, JsonMatchesPinnedGolden) {
  expect_matches_golden(reference_report_json(), "report_v2_5.json");
}

TEST(ReportSchemaGolden, InjectedJsonMatchesPinnedGolden) {
  expect_matches_golden(injected_report_json(), "report_v2_5_injected.json");
}

TEST(ReportSchemaGolden, OutsideJsonMatchesPinnedGolden) {
  expect_matches_golden(outside_report_json(), "report_v2_5_outside.json");
}

/// Minimal recursive-descent JSON validator. The reports are emitted by
/// hand-rolled serializers, so the cheapest way to catch an unbalanced
/// brace or a bare NaN is to actually parse the bytes.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& s) : s_(s) {}

  /// Parses one complete JSON document; true iff the whole string is
  /// one valid value with nothing trailing.
  bool parse_document() { return value() && (skip_ws(), pos_ == s_.size()); }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    skip_ws();
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return false;
    }
    return true;
  }
  bool string_lit() {
    if (!eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    return eat('"');
  }
  bool number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': {
        ++pos_;
        if (eat('}')) return true;
        do {
          if (!string_lit() || !eat(':') || !value()) return false;
        } while (eat(','));
        return eat('}');
      }
      case '[': {
        ++pos_;
        if (eat(']')) return true;
        do {
          if (!value()) return false;
        } while (eat(','));
        return eat(']');
      }
      case '"': return string_lit();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(ReportSchemaGolden, GoldenRoundTripsThroughJsonParser) {
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path()
                  << " (regenerate with GB_UPDATE_GOLDEN=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string golden = buf.str();
  if (!golden.empty() && golden.back() == '\n') golden.pop_back();
  EXPECT_TRUE(JsonCursor(golden).parse_document())
      << "golden report is not valid JSON";
  // And the live serializer, with the metrics block populated.
  const std::string actual = reference_report_json();
  EXPECT_TRUE(JsonCursor(actual).parse_document())
      << "report serializer emitted invalid JSON";
  EXPECT_NE(actual.find("\"metrics\":{"), std::string::npos)
      << "metrics block missing from a collect_metrics=true report";
}

TEST(ReportSchemaGolden, RequiredKeysAppearInOrder) {
  const std::string j = reference_report_json();
  const char* keys[] = {
      "\"schema_version\":\"2.5\"", "\"infected\":",      "\"degraded\":",
      "\"simulated_seconds\":",     "\"wall_seconds\":",  "\"worker_threads\":",
      "\"scheduler\":",             "\"metrics\":",       "\"provider_scans\":",
      "\"incremental\":",
      "\"diffs\":[",                "\"type\":",
      "\"status\":",
      "\"error\":",                 "\"views\":[",
      "\"id\":",                    "\"name\":",
      "\"high_view\":",             "\"low_view\":",
      "\"trust\":",                 "\"high_count\":",    "\"low_count\":",
      "\"hidden\":[",               "\"found_in\":[",
      "\"missing_from\":[",         "\"extra_count\":"};
  std::size_t pos = 0;
  for (const char* key : keys) {
    const auto found = j.find(key, pos);
    ASSERT_NE(found, std::string::npos) << "missing or out of order: " << key;
    pos = found;
  }
}

}  // namespace
}  // namespace gb
