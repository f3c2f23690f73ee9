// Implementation of the gb-lint rules. Everything here works on a
// "code view" of the file: comments and string/char literal bodies are
// blanked to spaces (line structure preserved) before any rule runs, and
// `gb-lint: allow(...)` waivers are harvested from the comment text in
// the same pass.
#include "gb_lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "gb_lint/lock_graph.h"
#include "support/thread_pool.h"

namespace gb::lint {

namespace {

// --- rule table ------------------------------------------------------------

constexpr RuleInfo kRules[] = {
    {"wall-clock",
     "no system_clock/time()/strftime in library code: report fields come "
     "from the VirtualClock cost model (or steady_clock for wall fields)"},
    {"nondet-random",
     "no rand()/std::random_device in library code: all randomness flows "
     "through the seeded gb::Rng so every run is reproducible"},
    {"locale-format",
     "no std::locale/setlocale/imbue in library code: report bytes must "
     "not depend on the host's locale"},
    {"unordered-report",
     "no unordered_map/unordered_set in report-serialization files "
     "(differ/scan_result/any to_json file): iteration order would leak "
     "into report bytes"},
    {"status-nodiscard",
     "a header function returning support::Status/StatusOr by value must "
     "be [[nodiscard]]: a silently dropped status hides a degraded scan"},
    {"catch-all",
     "catch (...) only at the documented _or parser boundaries: anywhere "
     "else it converts programming errors into silence"},
    {"mutex-name",
     "mutex members/locals end in 'mu'/'mu_' (stats_mu_, sleep_mu_): the "
     "convention reviewers rely on to spot unguarded state"},
    {"naked-new",
     "no naked new: ownership goes through make_unique/containers "
     "(deliberate leaky singletons carry an inline allow)"},
    {"raw-thread",
     "no std::thread outside support::ThreadPool (querying "
     "std::thread::hardware_concurrency is fine): the pool is the only "
     "thread owner the determinism argument covers"},
    {"raw-transport-io",
     "no send_bytes/recv_bytes member calls outside the transport/wire "
     "layer: every daemon byte crosses the CRC-framed wire protocol "
     "(daemon::Framer), never the raw stream"},
    {"metric-name-format",
     "literal metric names must be gb_<subsystem>_<name> (lowercase "
     "underscore segments) and literal span names <subsystem>.<verb>: "
     "the grep-ability contract docs/observability.md indexes"},
    {"lock-order-cycle",
     "every thread acquires mutexes in one global order: the cross-TU "
     "lock graph (acquired-while-held edges, calls resolved to a "
     "fixpoint) must be cycle-free"},
    {"blocking-under-lock",
     "no pool submit, wait, join, frame/transport I/O, flush, or sleep "
     "while a mutex is held (condition-variable waits release the lock "
     "and are exempt); durability-ordered sites carry documented "
     "waivers"},
    {"unannotated-guarded-member",
     "every mutex data member is referenced by a GB_GUARDED_BY/"
     "GB_REQUIRES annotation in its file, keeping the Clang "
     "-Wthread-safety contract (support/thread_annotations.h) complete "
     "as code grows"},
    {"stale-waiver",
     "every gb-lint allow() must suppress at least one live finding: a "
     "waiver that outlives its violation is deleted, not inherited by "
     "the next unrelated bug on that line"},
};

bool graph_rule(std::string_view rule) {
  // Judged only against the whole-tree lock graph: a single file rarely
  // shows both halves of an inversion or a caller's held set.
  return rule == "lock-order-cycle" || rule == "blocking-under-lock";
}

// --- path scoping ----------------------------------------------------------

enum class Scope { kLibrary, kTools, kTests, kBench, kExamples };

// The LAST scope component wins, so the fixture corpus under
// tests/lint/fixtures/src/ is linted at library strictness.
Scope classify(const std::filesystem::path& path) {
  Scope scope = Scope::kLibrary;  // unknown layouts get full strictness
  for (const auto& part : path) {
    const std::string c = part.string();
    if (c == "src") scope = Scope::kLibrary;
    else if (c == "tools") scope = Scope::kTools;
    else if (c == "tests") scope = Scope::kTests;
    else if (c == "bench") scope = Scope::kBench;
    else if (c == "examples") scope = Scope::kExamples;
  }
  return scope;
}

bool rule_applies(std::string_view rule, Scope scope, bool is_header) {
  // Every scope: swallowed exceptions and dead waivers mislead anywhere.
  if (rule == "catch-all" || rule == "stale-waiver") return true;
  if (scope == Scope::kTests || scope == Scope::kBench ||
      scope == Scope::kExamples) {
    return false;  // harness code may use clocks/threads/news freely
  }
  const bool hygiene = rule == "mutex-name" || rule == "naked-new" ||
                       rule == "raw-thread" || rule == "status-nodiscard";
  if (scope == Scope::kTools) return hygiene && rule != "status-nodiscard";
  if (rule == "status-nodiscard") return is_header;
  return true;  // library scope: everything (incl. the lock rules)
}

bool rule_enabled(std::string_view rule, Scope scope, bool is_header,
                  const Options& opts) {
  if (!rule_applies(rule, scope, is_header)) return false;
  if (!opts.only.empty() &&
      std::find(opts.only.begin(), opts.only.end(), rule) ==
          opts.only.end()) {
    return false;
  }
  return std::find(opts.disabled.begin(), opts.disabled.end(), rule) ==
         opts.disabled.end();
}

// --- code view: strip comments/strings, harvest allow() waivers ------------

/// One `allow(rule)` entry from a waiver comment. `used` flips when the
/// waiver actually suppresses a finding — the stale-waiver rule reports
/// any that never flip.
struct Allow {
  std::string rule;
  std::size_t line = 0;  // 0-based line of the comment
  bool used = false;
};

struct FileView {
  std::vector<std::string> code;  // literals/comments blanked to spaces
  std::vector<std::string> raw;   // original lines (rules that must read
                                  // string literals index these)
  std::vector<Allow> allows;      // every waiver entry, in source order
  // allowed[i] holds indices into `allows` covering line i (0-based):
  // an allow() covers its own line and the line below it.
  std::vector<std::vector<std::size_t>> allowed;
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

void harvest_allows(const std::string& comment, std::size_t line,
                    FileView& view) {
  std::size_t pos = comment.find("gb-lint:");
  if (pos == std::string::npos) return;
  pos = comment.find("allow(", pos);
  if (pos == std::string::npos) return;
  const std::size_t close = comment.find(')', pos);
  if (close == std::string::npos) return;
  std::string list = comment.substr(pos + 6, close - pos - 6);
  std::stringstream ss(list);
  std::string id;
  while (std::getline(ss, id, ',')) {
    const auto b = id.find_first_not_of(" \t");
    const auto e = id.find_last_not_of(" \t");
    if (b == std::string::npos) continue;
    id = id.substr(b, e - b + 1);
    // Rule ids are lowercase words and hyphens. Anything else here is
    // documentation quoting the waiver syntax (`allow(rule-id[, ...])`),
    // not a waiver — recording it would make the stale-waiver rule flag
    // its own manual.
    const bool id_like = !id.empty() &&
                         std::all_of(id.begin(), id.end(), [](char c) {
                           return (c >= 'a' && c <= 'z') ||
                                  (c >= '0' && c <= '9') || c == '-';
                         });
    if (!id_like) continue;
    const std::size_t idx = view.allows.size();
    view.allows.push_back(Allow{std::move(id), line, false});
    view.allowed[line].push_back(idx);
    if (line + 1 < view.allowed.size()) view.allowed[line + 1].push_back(idx);
  }
}

FileView build_view(std::string_view content) {
  std::vector<std::string> lines;
  {
    std::string cur;
    for (char c : content) {
      if (c == '\n') {
        lines.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    lines.push_back(cur);
  }

  FileView view;
  view.code.assign(lines.size(), std::string());
  view.raw = lines;
  view.allowed.assign(lines.size(), {});

  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  St st = St::kCode;
  std::string comment;          // text of the comment being read
  std::size_t comment_line = 0; // line the comment started on
  std::string raw_delim;        // delimiter of the raw string being read

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& in = lines[li];
    std::string& out = view.code[li];
    out.reserve(in.size());
    std::size_t i = 0;
    if (st == St::kLineComment) {  // line comments never span lines
      st = St::kCode;
    }
    while (i < in.size()) {
      const char c = in[i];
      switch (st) {
        case St::kCode: {
          if (c == '/' && i + 1 < in.size() && in[i + 1] == '/') {
            comment = in.substr(i + 2);
            harvest_allows(comment, li, view);
            out.append(in.size() - i, ' ');
            i = in.size();
            st = St::kLineComment;
            continue;
          }
          if (c == '/' && i + 1 < in.size() && in[i + 1] == '*') {
            st = St::kBlockComment;
            comment.clear();
            comment_line = li;
            out.append(2, ' ');
            i += 2;
            continue;
          }
          if (c == '"') {
            // R"delim( ... )delim" raw strings jump straight to kRaw.
            if (i > 0 && in[i - 1] == 'R' &&
                (i < 2 || !ident_char(in[i - 2]))) {
              std::size_t open = in.find('(', i + 1);
              if (open != std::string::npos) {
                raw_delim = in.substr(i + 1, open - i - 1);
                out.append(open - i + 1, ' ');
                i = open + 1;
                st = St::kRaw;
                continue;
              }
            }
            out.push_back('"');
            ++i;
            st = St::kString;
            continue;
          }
          if (c == '\'') {
            out.push_back('\'');
            ++i;
            st = St::kChar;
            continue;
          }
          out.push_back(c);
          ++i;
          continue;
        }
        case St::kString:
        case St::kChar: {
          const char quote = st == St::kString ? '"' : '\'';
          if (c == '\\' && i + 1 < in.size()) {
            out.append(2, ' ');
            i += 2;
            continue;
          }
          if (c == quote) {
            out.push_back(quote);
            st = St::kCode;
          } else {
            out.push_back(' ');
          }
          ++i;
          continue;
        }
        case St::kRaw: {
          const std::string close = ")" + raw_delim + "\"";
          const std::size_t end = in.find(close, i);
          if (end == std::string::npos) {
            out.append(in.size() - i, ' ');
            i = in.size();
          } else {
            out.append(end - i + close.size(), ' ');
            i = end + close.size();
            st = St::kCode;
          }
          continue;
        }
        case St::kBlockComment: {
          if (c == '*' && i + 1 < in.size() && in[i + 1] == '/') {
            harvest_allows(comment, comment_line, view);
            out.append(2, ' ');
            i += 2;
            st = St::kCode;
          } else {
            comment.push_back(c);
            out.push_back(' ');
            ++i;
          }
          continue;
        }
        case St::kLineComment:
          i = in.size();
          continue;
      }
    }
    if (st == St::kString || st == St::kChar) st = St::kCode;  // unterminated
    if (st == St::kBlockComment) comment.push_back('\n');
  }
  return view;
}

// --- matching helpers ------------------------------------------------------

/// Positions where `word` occurs with non-identifier characters on both
/// sides.
std::vector<std::size_t> find_word(const std::string& line,
                                   std::string_view word) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = line.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(line[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right_ok = after >= line.size() || !ident_char(line[after]);
    if (left_ok && right_ok) hits.push_back(pos);
    pos = after;
  }
  return hits;
}

std::size_t skip_spaces(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i;
}

bool preceded_by(const std::string& line, std::size_t pos,
                 std::string_view prefix) {
  return pos >= prefix.size() &&
         line.compare(pos - prefix.size(), prefix.size(), prefix) == 0;
}

struct Linter {
  const std::string& path;
  Scope scope;
  bool is_header;
  FileView& view;  // non-const: waived() marks the allow as used
  const Options& opts;
  std::vector<Finding>& out;

  [[nodiscard]] bool enabled(std::string_view rule) const {
    return rule_enabled(rule, scope, is_header, opts);
  }

  // Marks every covering allow used, even after the first match — a
  // duplicate waiver for the same rule must not read as stale.
  [[nodiscard]] bool waived(std::string_view rule, std::size_t li) {
    bool hit = false;
    for (std::size_t idx : view.allowed[li]) {
      if (view.allows[idx].rule == rule) {
        view.allows[idx].used = true;
        hit = true;
      }
    }
    return hit;
  }

  void report(std::string_view rule, std::size_t li, std::string message) {
    if (waived(rule, li)) return;
    out.push_back(Finding{path, li + 1, std::string(rule),
                          std::move(message)});
  }

  /// Flags every word-bounded occurrence of `word`; `call_only` also
  /// requires a following '(' so bare identifiers stay legal.
  void ban_word(std::string_view rule, std::string_view word, bool call_only,
                std::string_view why) {
    for (std::size_t li = 0; li < view.code.size(); ++li) {
      for (std::size_t pos : find_word(view.code[li], word)) {
        if (call_only) {
          const std::size_t next =
              skip_spaces(view.code[li], pos + word.size());
          if (next >= view.code[li].size() || view.code[li][next] != '(') {
            continue;
          }
        }
        report(rule, li, std::string(why));
      }
    }
  }

  void rule_wall_clock() {
    if (!enabled("wall-clock")) return;
    constexpr std::string_view kMsg =
        "wall-clock source in library code; report time comes from the "
        "VirtualClock cost model (steady_clock is allowed for wall "
        "fields)";
    for (std::string_view w :
         {"system_clock", "gettimeofday", "localtime", "gmtime", "strftime",
          "ctime", "asctime"}) {
      ban_word("wall-clock", w, false, kMsg);
    }
    ban_word("wall-clock", "time", true, kMsg);  // time(...) calls only
  }

  void rule_nondet_random() {
    if (!enabled("nondet-random")) return;
    constexpr std::string_view kMsg =
        "non-deterministic randomness in library code; use the seeded "
        "gb::Rng so every run reproduces";
    ban_word("nondet-random", "random_device", false, kMsg);
    ban_word("nondet-random", "random_shuffle", false, kMsg);
    for (std::string_view w : {"rand", "srand", "rand_r"}) {
      ban_word("nondet-random", w, true, kMsg);
    }
  }

  void rule_locale_format() {
    if (!enabled("locale-format")) return;
    constexpr std::string_view kMsg =
        "locale-dependent formatting in library code; report bytes must "
        "not vary with the host locale";
    for (std::string_view w : {"setlocale", "imbue", "put_time"}) {
      ban_word("locale-format", w, false, kMsg);
    }
    for (std::size_t li = 0; li < view.code.size(); ++li) {
      const std::string& line = view.code[li];
      for (std::size_t pos : find_word(line, "locale")) {
        if (preceded_by(line, pos, "std::") ||
            line.find("#include") != std::string::npos) {
          report("locale-format", li, std::string(kMsg));
        }
      }
    }
  }

  void rule_unordered_report() {
    if (!enabled("unordered-report")) return;
    // Report-path files: the diff/result serialization units by name,
    // plus any file that defines or declares to_json.
    const std::string base = std::filesystem::path(path).filename().string();
    bool report_path = base == "differ.cpp" || base == "differ.h" ||
                       base == "scan_result.cpp" || base == "scan_result.h";
    if (!report_path) {
      for (const auto& line : view.code) {
        if (!find_word(line, "to_json").empty()) {
          report_path = true;
          break;
        }
      }
    }
    if (!report_path) return;
    constexpr std::string_view kMsg =
        "unordered container in a report-serialization file; hash-order "
        "iteration would leak into report bytes — use std::map/sorted "
        "vectors (or waive for non-serialized internals)";
    ban_word("unordered-report", "unordered_map", false, kMsg);
    ban_word("unordered-report", "unordered_set", false, kMsg);
  }

  void rule_status_nodiscard() {
    if (!enabled("status-nodiscard")) return;
    for (std::size_t li = 0; li < view.code.size(); ++li) {
      const std::string& line = view.code[li];
      for (std::string_view type : {"Status", "StatusOr"}) {
        for (std::size_t pos : find_word(line, type)) {
          // Qualified uses (Status::corrupt) and nested template args are
          // not return types.
          if (!line.empty() && pos > 0 &&
              (line[pos - 1] == '<' || line[pos - 1] == ',' ||
               line[pos - 1] == '.')) {
            continue;
          }
          if (!find_word(line, "using").empty()) continue;
          std::size_t i = pos + type.size();
          if (i < line.size() && line[i] == ':') continue;  // Status::...
          if (type == "StatusOr") {
            i = skip_spaces(line, i);
            if (i >= line.size() || line[i] != '<') continue;
            int depth = 0;
            while (i < line.size()) {
              if (line[i] == '<') ++depth;
              if (line[i] == '>' && --depth == 0) {
                ++i;
                break;
              }
              ++i;
            }
            if (depth != 0) continue;  // template args span lines: punt
          }
          i = skip_spaces(line, i);
          // By-value returns only: ref/pointer returns are getters whose
          // result may be legitimately unused.
          if (i >= line.size() || line[i] == '&' || line[i] == '*') continue;
          if (!ident_char(line[i]) ||
              std::isdigit(static_cast<unsigned char>(line[i])) != 0) {
            continue;  // constructor, cast, or not a declaration
          }
          std::size_t name_end = i;
          while (name_end < line.size() && ident_char(line[name_end])) {
            ++name_end;
          }
          const std::string name = line.substr(i, name_end - i);
          if (name == "operator") continue;
          const std::size_t paren = skip_spaces(line, name_end);
          if (paren >= line.size() || line[paren] != '(') {
            continue;  // variable/member declaration, not a function
          }
          // The attribute belongs on the same line before the type or on
          // the line above.
          const std::string before = line.substr(0, pos);
          const bool annotated =
              before.find("[[nodiscard]]") != std::string::npos ||
              (li > 0 && view.code[li - 1].find("[[nodiscard]]") !=
                             std::string::npos);
          if (!annotated) {
            report("status-nodiscard", li,
                   "'" + name + "' returns " + std::string(type) +
                       " by value but is not [[nodiscard]]; a dropped "
                       "status silently hides a degraded scan");
          }
        }
      }
    }
  }

  void rule_catch_all() {
    if (!enabled("catch-all")) return;
    for (std::size_t li = 0; li < view.code.size(); ++li) {
      const std::string& line = view.code[li];
      for (std::size_t pos : find_word(line, "catch")) {
        std::size_t i = skip_spaces(line, pos + 5);
        if (i >= line.size() || line[i] != '(') continue;
        i = skip_spaces(line, i + 1);
        if (line.compare(i, 3, "...") == 0) {
          report("catch-all", li,
                 "catch (...) outside a documented _or parser boundary; "
                 "catch the specific exception (gb::ParseError) or let "
                 "programming errors surface");
        }
      }
    }
  }

  void rule_mutex_name() {
    if (!enabled("mutex-name")) return;
    for (std::size_t li = 0; li < view.code.size(); ++li) {
      const std::string& line = view.code[li];
      for (std::string_view type :
           {"std::mutex", "std::shared_mutex", "std::recursive_mutex"}) {
        std::size_t pos = 0;
        while ((pos = line.find(type, pos)) != std::string::npos) {
          const std::size_t after = pos + type.size();
          pos = after;
          if (after < line.size() && ident_char(line[after])) continue;
          std::size_t i = skip_spaces(line, after);
          // Template args / parameter types / references are not
          // declarations of a named mutex.
          if (i >= line.size() || !ident_char(line[i]) ||
              std::isdigit(static_cast<unsigned char>(line[i])) != 0) {
            continue;
          }
          std::size_t name_end = i;
          while (name_end < line.size() && ident_char(line[name_end])) {
            ++name_end;
          }
          std::string name = line.substr(i, name_end - i);
          std::string stem = name;
          if (!stem.empty() && stem.back() == '_') stem.pop_back();
          const bool ok =
              stem == "mu" || (stem.size() > 3 &&
                               stem.compare(stem.size() - 3, 3, "_mu") == 0);
          if (!ok) {
            report("mutex-name", li,
                   "mutex '" + name +
                       "' does not follow the 'mu'/'*_mu' naming "
                       "convention reviewers use to spot unguarded state");
          }
        }
      }
    }
  }

  void rule_naked_new() {
    if (!enabled("naked-new")) return;
    // Custom loop rather than ban_word: `#include <new>` (for catching
    // std::bad_alloc) names the header, not the operator, and must not
    // fire.
    for (std::size_t li = 0; li < view.code.size(); ++li) {
      const std::string& line = view.code[li];
      const std::size_t first = line.find_first_not_of(" \t");
      if (first != std::string::npos && line[first] == '#') continue;
      for ([[maybe_unused]] std::size_t pos : find_word(line, "new")) {
        report("naked-new", li,
               "naked new; route ownership through std::make_unique or a "
               "container (a deliberate leaky singleton carries an inline "
               "allow)");
      }
    }
  }

  void rule_metric_name_format() {
    if (!enabled("metric-name-format")) return;
    // The contract is on LITERAL names only: a name built at runtime
    // ("gb_" + kind + "_total", "scan." + type) can't be checked
    // statically and is skipped, not flagged.
    const auto literal_after = [&](std::size_t li, std::size_t open)
        -> std::pair<bool, std::string> {
      const std::string& raw = view.raw[li];
      std::size_t i = skip_spaces(raw, open + 1);
      if (i >= raw.size() || raw[i] != '"') return {false, {}};
      std::string lit;
      for (++i; i < raw.size() && raw[i] != '"'; ++i) {
        if (raw[i] == '\\') return {false, {}};  // escaped: not a plain name
        lit.push_back(raw[i]);
      }
      if (i >= raw.size()) return {false, {}};  // spans lines: punt
      // The literal must be the WHOLE argument: `"diff." + kind` is a
      // runtime-built name whose literal prefix proves nothing.
      const std::size_t next = skip_spaces(raw, i + 1);
      if (next < raw.size() && raw[next] != ',' && raw[next] != ')') {
        return {false, {}};
      }
      return {true, lit};
    };
    const auto segments_ok = [](std::string_view name, char sep,
                                std::size_t min_segments) {
      std::size_t segs = 0, len = 0;
      for (const char c : name) {
        if (c == sep) {
          if (len == 0) return false;  // empty segment
          ++segs;
          len = 0;
        } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                   (sep == '.' && c == '_')) {
          ++len;
        } else {
          return false;
        }
      }
      if (len == 0) return false;
      return segs + 1 >= min_segments;
    };
    for (std::size_t li = 0; li < view.code.size(); ++li) {
      const std::string& line = view.code[li];
      struct Mint {
        std::string_view fn;
        bool metric;  // false: span name
      };
      for (const Mint mint :
           {Mint{"counter", true}, Mint{"gauge", true},
            Mint{"histogram", true}, Mint{"span", false},
            Mint{"instant", false}, Mint{"record_span", false}}) {
        for (std::size_t pos : find_word(line, mint.fn)) {
          // Member-call syntax only: definitions and same-named free
          // functions are not registry/tracer mints.
          if (pos == 0 ||
              (line[pos - 1] != '.' && !preceded_by(line, pos, "->"))) {
            continue;
          }
          const std::size_t open = skip_spaces(line, pos + mint.fn.size());
          if (open >= line.size() || line[open] != '(') continue;
          const auto [is_literal, name] = literal_after(li, open);
          if (!is_literal) continue;
          if (mint.metric) {
            // gb_<subsystem>_<name>: "gb" plus >= 2 more segments.
            const bool ok = name.rfind("gb_", 0) == 0 &&
                            segments_ok(name, '_', 3);
            if (!ok) {
              report("metric-name-format", li,
                     "metric '" + name +
                         "' does not match gb_<subsystem>_<name> "
                         "(lowercase [a-z0-9] underscore segments)");
            }
          } else {
            const bool ok = segments_ok(name, '.', 2);
            if (!ok) {
              report("metric-name-format", li,
                     "span '" + name +
                         "' does not match <subsystem>.<verb> "
                         "(lowercase dot-separated segments)");
            }
          }
        }
      }
    }
  }

  void rule_raw_transport_io() {
    if (!enabled("raw-transport-io")) return;
    const std::string base = std::filesystem::path(path).filename().string();
    // The framing layer and the transports themselves are the whole
    // point of the exemption: everyone else goes through Framer.
    if (base.rfind("transport", 0) == 0 || base.rfind("wire", 0) == 0) return;
    for (std::size_t li = 0; li < view.code.size(); ++li) {
      const std::string& line = view.code[li];
      for (std::string_view name : {"send_bytes", "recv_bytes"}) {
        for (std::size_t pos : find_word(line, name)) {
          // Member-call syntax only: a Transport subclass declaring the
          // override is not a raw I/O caller.
          if (pos == 0 || (line[pos - 1] != '.' &&
                           !preceded_by(line, pos, "->"))) {
            continue;
          }
          const std::size_t next = skip_spaces(line, pos + name.size());
          if (next >= line.size() || line[next] != '(') continue;
          std::string msg = "'";
          msg += name;
          msg +=
              "' bypasses the CRC-framed wire protocol; go "
              "through daemon::Framer (or live in the "
              "transport/wire layer)";
          report("raw-transport-io", li, msg);
        }
      }
    }
  }

  void rule_raw_thread() {
    if (!enabled("raw-thread")) return;
    const std::string base = std::filesystem::path(path).filename().string();
    if (base.rfind("thread_pool", 0) == 0) return;  // the one thread owner
    for (std::size_t li = 0; li < view.code.size(); ++li) {
      const std::string& line = view.code[li];
      for (std::string_view type : {"thread", "jthread"}) {
        for (std::size_t pos : find_word(line, type)) {
          if (!preceded_by(line, pos, "std::")) continue;
          const std::size_t after = pos + type.size();
          if (line.compare(after, 23, "::hardware_concurrency(") == 0) {
            continue;  // capacity query, not a thread
          }
          report("raw-thread", li,
                 "std::thread outside support::ThreadPool; the pool is "
                 "the only thread owner the determinism argument covers");
        }
      }
    }
  }

  void run() {
    rule_wall_clock();
    rule_nondet_random();
    rule_locale_format();
    rule_unordered_report();
    rule_status_nodiscard();
    rule_catch_all();
    rule_mutex_name();
    rule_naked_new();
    rule_raw_thread();
    rule_raw_transport_io();
    rule_metric_name_format();
  }
};

bool lintable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cpp" || ext == ".cc" || ext == ".hpp";
}

bool excluded(const std::filesystem::path& p, const Options& opts) {
  for (const auto& part : p) {
    const std::string c = part.string();
    if (c.rfind("build", 0) == 0 || c == "fixtures") return true;
  }
  const std::string s = p.string();
  for (const auto& sub : opts.excludes) {
    if (s.find(sub) != std::string::npos) return true;
  }
  return false;
}

bool finding_less(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.rule, a.message) <
         std::tie(b.file, b.line, b.rule, b.message);
}

/// Everything one file contributes to a sweep: its line-rule findings
/// plus the inputs the cross-file passes need (the waiver table with
/// usage marks, and the lock index).
struct FileResult {
  std::string path;
  Scope scope = Scope::kLibrary;
  bool is_header = false;
  bool io_error = false;
  FileView view;
  LockIndexFile index;
  std::vector<Finding> findings;
};

FileResult lint_one(const std::string& path, std::string_view content,
                    const Options& opts) {
  FileResult r;
  r.path = path;
  const std::filesystem::path p(path);
  r.scope = classify(p);
  r.is_header = p.extension() != ".cpp" && p.extension() != ".cc";
  r.view = build_view(content);
  Linter linter{path, r.scope, r.is_header, r.view, opts, r.findings};
  linter.run();
  const bool lock_pass =
      r.scope == Scope::kLibrary &&
      (rule_enabled("lock-order-cycle", r.scope, r.is_header, opts) ||
       rule_enabled("blocking-under-lock", r.scope, r.is_header, opts) ||
       rule_enabled("unannotated-guarded-member", r.scope, r.is_header,
                    opts));
  if (lock_pass) r.index = index_lock_file(path, r.view.code);
  return r;
}

/// The passes that need more than one file: lock-graph findings and
/// waiver staleness. `tree_mode` is false when linting a single buffer,
/// in which case waivers for the two whole-graph rules are not judged —
/// one file rarely shows both halves of an inversion or a caller's
/// held set, and a waiver must not read as stale just because the sweep
/// was narrow.
void apply_cross_file(std::vector<FileResult*>& files, const Options& opts,
                      bool tree_mode, std::vector<Finding>& out) {
  std::map<std::string, FileResult*> by_path;
  std::vector<LockIndexFile> indexes;
  for (FileResult* r : files) {
    by_path[r->path] = r;
    if (!r->index.path.empty()) indexes.push_back(std::move(r->index));
  }
  for (const LockFinding& lf : analyze_lock_graph(indexes)) {
    const auto it = by_path.find(lf.file);
    if (it == by_path.end()) continue;
    if (!rule_enabled(lf.rule, it->second->scope, it->second->is_header,
                      opts)) {
      continue;
    }
    // Any waived site suppresses the finding (for a cycle, waiving one
    // edge acknowledges the whole ordering decision) — and every
    // matching allow is marked used, keeping it off the stale list.
    bool waived = false;
    for (const auto& [file, line] : lf.sites) {
      const auto st = by_path.find(file);
      if (st == by_path.end()) continue;
      FileView& view = st->second->view;
      if (line >= view.allowed.size()) continue;
      for (std::size_t idx : view.allowed[line]) {
        if (view.allows[idx].rule == lf.rule) {
          view.allows[idx].used = true;
          waived = true;
        }
      }
    }
    if (waived) continue;
    out.push_back(Finding{lf.file, lf.line + 1, lf.rule, lf.message});
  }
  // Waiver staleness, judged only after every rule — line-level and
  // cross-file — has had its chance to mark allows used.
  for (FileResult* r : files) {
    if (!rule_enabled("stale-waiver", r->scope, r->is_header, opts)) {
      continue;
    }
    for (const Allow& allow : r->view.allows) {
      if (allow.used) continue;
      if (!known_rule(allow.rule)) {
        out.push_back(Finding{r->path, allow.line + 1, "stale-waiver",
                              "allow(" + allow.rule +
                                  ") names an unknown rule and can never "
                                  "suppress anything (--list-rules)"});
        continue;
      }
      if (graph_rule(allow.rule) && !tree_mode) continue;
      if (!rule_enabled(allow.rule, r->scope, r->is_header, opts)) continue;
      out.push_back(Finding{r->path, allow.line + 1, "stale-waiver",
                            "allow(" + allow.rule +
                                ") suppresses no finding; delete the "
                                "waiver — a dead allow() silently absorbs "
                                "the next real violation on its line"});
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

std::string Finding::to_string() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

std::vector<RuleInfo> rules() {
  return {std::begin(kRules), std::end(kRules)};
}

bool known_rule(std::string_view id) {
  return std::any_of(std::begin(kRules), std::end(kRules),
                     [&](const RuleInfo& r) { return r.id == id; });
}

std::vector<Finding> lint_content(const std::string& path,
                                  std::string_view content,
                                  const Options& opts) {
  FileResult r = lint_one(path, content, opts);
  std::vector<Finding> findings = std::move(r.findings);
  std::vector<FileResult*> files{&r};
  apply_cross_file(files, opts, /*tree_mode=*/false, findings);
  std::sort(findings.begin(), findings.end(), finding_less);
  return findings;
}

std::vector<Finding> lint_file(const std::string& path, const Options& opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Finding{path, 0, "io", "cannot open file"}};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_content(path, ss.str(), opts);
}

TreeReport lint_tree(const std::vector<std::string>& roots,
                     const Options& opts) {
  namespace fs = std::filesystem;
  TreeReport report;
  std::vector<std::string> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);  // explicit files bypass excludes
      continue;
    }
    for (fs::recursive_directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_directory() && excluded(it->path(), opts)) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && lintable(it->path()) &&
          !excluded(it->path(), opts)) {
        files.push_back(it->path().string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  report.files_scanned = files.size();

  // Per-file passes run concurrently into pre-sized slots; everything
  // after the merge is serial, so the report is byte-identical at any
  // worker count.
  std::vector<FileResult> results(files.size());
  support::ThreadPool pool(opts.workers);
  pool.parallel_for(files.size(), [&](std::size_t i) {
    std::ifstream in(files[i], std::ios::binary);
    if (!in) {
      results[i].path = files[i];
      results[i].io_error = true;
      return;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    results[i] = lint_one(files[i], ss.str(), opts);
  });

  std::vector<FileResult*> ok;
  ok.reserve(results.size());
  for (FileResult& r : results) {
    if (r.io_error) {
      report.findings.push_back(Finding{r.path, 0, "io", "cannot open file"});
      continue;
    }
    report.findings.insert(report.findings.end(),
                           std::make_move_iterator(r.findings.begin()),
                           std::make_move_iterator(r.findings.end()));
    ok.push_back(&r);
  }
  apply_cross_file(ok, opts, /*tree_mode=*/true, report.findings);
  std::sort(report.findings.begin(), report.findings.end(), finding_less);
  return report;
}

std::string to_sarif(const TreeReport& report) {
  std::ostringstream os;
  os << "{\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"runs\": [{\n"
     << "    \"tool\": {\"driver\": {\n"
     << "      \"name\": \"gb_lint\",\n"
     << "      \"version\": \"2.0.0\",\n"
     << "      \"rules\": [\n";
  const auto all = rules();
  for (std::size_t i = 0; i < all.size(); ++i) {
    os << "        {\"id\": \"" << all[i].id
       << "\", \"shortDescription\": {\"text\": \""
       << json_escape(all[i].summary) << "\"}}"
       << (i + 1 < all.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }},\n"
     << "    \"results\": [\n";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    std::ptrdiff_t rule_index = -1;
    for (std::size_t r = 0; r < all.size(); ++r) {
      if (all[r].id == f.rule) rule_index = static_cast<std::ptrdiff_t>(r);
    }
    os << "      {\"ruleId\": \"" << json_escape(f.rule) << "\", ";
    if (rule_index >= 0) os << "\"ruleIndex\": " << rule_index << ", ";
    os << "\"level\": \"error\", \"message\": {\"text\": \""
       << json_escape(f.message)
       << "\"}, \"locations\": [{\"physicalLocation\": "
          "{\"artifactLocation\": {\"uri\": \""
       << json_escape(f.file) << "\"}";
    if (f.line > 0) os << ", \"region\": {\"startLine\": " << f.line << "}";
    os << "}}]}" << (i + 1 < report.findings.size() ? "," : "") << "\n";
  }
  os << "    ]\n"
     << "  }]\n"
     << "}\n";
  return os.str();
}

}  // namespace gb::lint
