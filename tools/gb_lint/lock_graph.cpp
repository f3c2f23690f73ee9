// The cross-TU lock pass. See lock_graph.h for the model; the notes
// here are about the scanner, which is the only delicate part.
//
// The scanner is statement-oriented: it walks the blanked code view one
// character at a time, accumulating a "pending" statement buffer that
// flushes at `;`, `{`, and `}`. Braces drive a context stack
// (namespace / class / function / lambda / plain block), so every lock
// or call event lands in the function whose body it is lexically inside
// — with one crucial exception: a lambda body is its own anonymous
// function. A task submitted under a lock does NOT run under that lock,
// and attributing its body to the enclosing function would invent
// held-while edges that do not exist at runtime.
#include "gb_lint/lock_graph.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <set>
#include <string_view>
#include <tuple>

namespace gb::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool macro_like(const std::string& s) {
  bool has_alpha = false;
  for (char c : s) {
    if (std::islower(static_cast<unsigned char>(c)) != 0) return false;
    if (std::isupper(static_cast<unsigned char>(c)) != 0) has_alpha = true;
  }
  return has_alpha;
}

/// Where the first GB_ annotation macro in `s` starts (s.size() when
/// there is none).
std::size_t annotation_start(const std::string& s) {
  for (std::size_t pos = s.find("GB_"); pos != std::string::npos;
       pos = s.find("GB_", pos + 3)) {
    if (pos == 0 || !ident_char(s[pos - 1])) return pos;
  }
  return s.size();
}

std::size_t skip_spaces(const std::string& s, std::size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])) != 0) {
    ++i;
  }
  return i;
}

std::vector<std::size_t> find_word(const std::string& s,
                                   std::string_view word) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    const bool left = pos == 0 || !ident_char(s[pos - 1]);
    const std::size_t after = pos + word.size();
    const bool right = after >= s.size() || !ident_char(s[after]);
    if (left && right) hits.push_back(pos);
    pos = after;
  }
  return hits;
}

// RAII lock types whose constructor argument list names the mutexes.
constexpr std::string_view kRaiiTypes[] = {
    "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
    "MutexLock",  "CondLock",
};

// Direct blocking operations. `wait`/`wait_for`/`wait_until` are
// exempted when their first argument is a tracked RAII lock variable —
// a condition-variable wait RELEASES the lock, which is the one
// blocking-while-holding pattern that is correct by construction.
constexpr std::string_view kBlockingOps[] = {
    "submit",     "parallel_for", "wait",       "wait_for",  "wait_until",
    "wait_idle",  "wait_result",  "join",       "send_bytes", "recv_bytes",
    "write_frame", "read_frame",  "flush",      "fsync",     "sleep_for",
    "sleep_until",
};

// Identifiers that look like calls but never are (or never resolve).
constexpr std::string_view kCallKeywords[] = {
    "if",       "for",      "while",    "switch",   "catch",  "return",
    "sizeof",   "decltype", "noexcept", "alignof",  "assert",
    "static_assert", "co_await", "co_return", "throw",
};

// Method names shared with the standard library: resolving them by
// name-uniqueness alone would route std::string::append and friends to
// whatever class happens to define the only indexed method of that
// name. A declared-field-type hint still overrides this list.
constexpr std::string_view kStdMethodNames[] = {
    "append", "clear",  "push_back", "pop_back", "insert", "erase",
    "find",   "size",   "empty",     "begin",    "end",    "count",
    "reset",  "get",    "at",        "front",    "back",   "swap",
    "data",   "str",    "load",      "store",    "substr", "resize",
    "reserve", "open",  "close",     "read",     "write",  "good",
    "merge",  "emplace_back", "c_str", "compare", "value", "push",
};

bool in_list(std::string_view name, const std::string_view* first,
             const std::string_view* last) {
  return std::find(first, last, name) != last;
}

// --- mutex identity ---------------------------------------------------------

/// Canonical key for a mutex expression. The goal is that every way the
/// tree spells one mutex maps to one key, and distinct mutexes map to
/// distinct keys:
///   bare member `mu_` in class C            -> "C::mu"
///   bare local declared in this function    -> "<basename>::name"
///   `core_->mu`, `core.mu`, `st.core->mu`   -> "core.mu"
///   `queues_[target]->mu`                   -> "queues.mu"
/// Dotted forms keep the last two path segments (owner.field), strip
/// `this->`, subscripts, and the trailing-underscore member decoration.
std::string normalize_mutex(std::string expr, const std::string& cls,
                            const std::set<std::string>& local_mutexes,
                            const std::string& path) {
  // Trim and strip address-of / parens.
  std::string t;
  for (char c : expr) {
    if (c == '&' || c == '*' || c == '(' || c == ')' ||
        std::isspace(static_cast<unsigned char>(c)) != 0) {
      continue;
    }
    t.push_back(c);
  }
  if (t.rfind("this->", 0) == 0) t = t.substr(6);
  // Drop subscripts, rewrite -> as .
  std::string flat;
  int bracket = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i] == '[') { ++bracket; continue; }
    if (t[i] == ']') { if (bracket > 0) --bracket; continue; }
    if (bracket > 0) continue;
    if (t[i] == '-' && i + 1 < t.size() && t[i + 1] == '>') {
      flat.push_back('.');
      ++i;
      continue;
    }
    flat.push_back(t[i]);
  }
  std::vector<std::string> segs;
  std::string cur;
  for (char c : flat) {
    if (c == '.') {
      if (!cur.empty()) segs.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) segs.push_back(cur);
  for (auto& s : segs) {
    while (!s.empty() && s.back() == '_') s.pop_back();
  }
  segs.erase(std::remove_if(segs.begin(), segs.end(),
                            [](const std::string& s) { return s.empty(); }),
             segs.end());
  if (segs.empty()) return flat;
  if (segs.size() >= 2) {
    return segs[segs.size() - 2] + "." + segs.back();
  }
  const std::string& name = segs[0];
  if (local_mutexes.count(flat) != 0 || local_mutexes.count(name) != 0) {
    return std::filesystem::path(path).filename().string() + "::" + name;
  }
  if (!cls.empty()) return cls + "::" + name;
  return name;
}

// --- the scanner ------------------------------------------------------------

struct Held {
  std::string key;
  std::size_t depth = 0;   // brace depth at acquisition
  std::string var;         // RAII variable, empty for manual .lock()
  bool deferred = false;   // declared with std::defer_lock
};

struct FnCtx {
  // Index into LockIndexFile::functions — NOT a pointer: opening a
  // nested lambda push_back()s into that vector and would invalidate
  // any pointer held by the enclosing context.
  std::size_t idx = 0;
  std::vector<Held> held;
  std::set<std::string> local_mutexes;
  std::size_t base_depth = 0;
};

struct Ctx {
  enum Kind { kNamespace, kClass, kFunction, kLambda, kBlock };
  Kind kind = kBlock;
  std::string name;  // class name for kClass
};

struct Scanner {
  LockIndexFile& out;
  std::vector<Ctx> stack;
  std::vector<FnCtx> fns;  // function/lambda contexts, innermost last

  std::string pending;
  // Line of each pending character (statements span lines; findings
  // must point at the line the construct sits on, or waivers miss).
  std::vector<std::size_t> pend_line;

  void append(char c, std::size_t line) {
    pending.push_back(c);
    pend_line.push_back(line);
  }

  [[nodiscard]] std::string enclosing_class() const {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->kind == Ctx::kClass) return it->name;
      if (it->kind == Ctx::kFunction || it->kind == Ctx::kLambda) break;
    }
    return {};
  }

  [[nodiscard]] FnCtx* active_fn() {
    return fns.empty() ? nullptr : &fns.back();
  }

  [[nodiscard]] LockFunction& fn_of(const FnCtx& c) {
    return out.functions[c.idx];
  }

  [[nodiscard]] bool known_local_mutex(const std::string& name) const {
    for (auto it = fns.rbegin(); it != fns.rend(); ++it) {
      if (it->local_mutexes.count(name) != 0) return true;
    }
    return false;
  }

  [[nodiscard]] std::set<std::string> all_local_mutexes() const {
    std::set<std::string> all;
    for (const auto& f : fns) {
      all.insert(f.local_mutexes.begin(), f.local_mutexes.end());
    }
    return all;
  }

  std::size_t line_at(std::size_t off) const {
    return off < pend_line.size() ? pend_line[off]
                                  : (pend_line.empty() ? 0 : pend_line.back());
  }

  [[nodiscard]] std::vector<std::string> held_keys() const {
    std::vector<std::string> keys;
    if (!fns.empty()) {
      for (const auto& h : fns.back().held) {
        if (h.deferred) continue;
        if (std::find(keys.begin(), keys.end(), h.key) == keys.end()) {
          keys.push_back(h.key);
        }
      }
    }
    return keys;
  }

  // -- statement analysis ----------------------------------------------------

  /// Extracts top-level comma-separated arguments of the paren group
  /// starting at `open` ('('). Returns args and sets `close`.
  static std::vector<std::string> split_args(const std::string& s,
                                             std::size_t open,
                                             std::size_t& close) {
    std::vector<std::string> args;
    std::string cur;
    int depth = 0;
    std::size_t i = open;
    for (; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      if (c == '(' && depth == 1) continue;
      if (c == ')' && depth == 0) break;
      if (c == ',' && depth == 1) {
        args.push_back(cur);
        cur.clear();
        continue;
      }
      cur.push_back(c);
    }
    close = i;
    if (!cur.empty()) args.push_back(cur);
    return args;
  }

  /// The receiver identifier of a member call: walks left from the
  /// `.`/`->` at `sep`, skipping one subscript and one empty call
  /// (`x.native()` reads back to `x`).
  static std::string receiver_before(const std::string& s, std::size_t sep) {
    std::size_t i = sep;
    auto skip_back_group = [&](char open, char close) {
      if (i == 0 || s[i - 1] != close) return false;
      int depth = 0;
      std::size_t j = i;
      while (j > 0) {
        --j;
        if (s[j] == close) ++depth;
        if (s[j] == open && --depth == 0) {
          i = j;
          return true;
        }
      }
      return false;
    };
    // x.native()->, x->, shards_[k]->
    for (int hops = 0; hops < 3; ++hops) {
      if (skip_back_group('(', ')')) {
        // skip the method name of the inner call, then its separator
        while (i > 0 && ident_char(s[i - 1])) --i;
        if (i >= 2 && s[i - 1] == '>' && s[i - 2] == '-') i -= 2;
        else if (i > 0 && s[i - 1] == '.') --i;
        continue;
      }
      if (skip_back_group('[', ']')) continue;
      break;
    }
    std::size_t end = i;
    while (i > 0 && ident_char(s[i - 1])) --i;
    return s.substr(i, end - i);
  }

  void record_acquire(FnCtx& fn, const std::string& key, std::size_t line,
                      const std::string& var, bool deferred,
                      const std::vector<std::string>& already_new) {
    if (!deferred) {
      // Edges from everything currently held — except co-members of one
      // scoped_lock, which deadlock-avoids by design.
      for (const auto& h : fn.held) {
        if (h.deferred) continue;
        if (std::find(already_new.begin(), already_new.end(), h.key) !=
            already_new.end()) {
          continue;
        }
        fn_of(fn).edges.push_back(LockEdge{h.key, key, out.path, line});
      }
      auto& acquires = fn_of(fn).acquires;
      if (std::find(acquires.begin(), acquires.end(), key) ==
          acquires.end()) {
        acquires.push_back(key);
      }
    }
    fn.held.push_back(Held{key, stack.size(), var, deferred});
  }

  /// Lock declarations, manual lock()/unlock(), blocking ops, and call
  /// sites in one statement. `vars_declared` collects RAII variable
  /// names so the call scan does not mistake `lk(mu)` for a call.
  void analyze_statement() {
    FnCtx* fn = active_fn();
    const std::string& s = pending;
    const std::string cls =
        fn != nullptr ? fn_of(*fn).cls : enclosing_class();
    std::set<std::string> vars_declared;

    if (fn != nullptr) {
      // Local mutex declarations: `std::mutex error_mu;`
      for (std::string_view type : {"mutex", "shared_mutex", "Mutex"}) {
        for (std::size_t pos : find_word(s, type)) {
          if (type != "Mutex" &&
              !(pos >= 5 && s.compare(pos - 5, 5, "std::") == 0)) {
            continue;
          }
          std::size_t i = skip_spaces(s, pos + type.size());
          if (i >= s.size() || !ident_char(s[i]) ||
              std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
            continue;
          }
          std::size_t e = i;
          while (e < s.size() && ident_char(s[e])) ++e;
          const std::size_t after = skip_spaces(s, e);
          if (after < s.size() && s[after] == '(') continue;  // a call
          fn->local_mutexes.insert(s.substr(i, e - i));
        }
      }

      // RAII lock declarations.
      for (std::string_view type : kRaiiTypes) {
        for (std::size_t pos : find_word(s, type)) {
          std::size_t i = pos + type.size();
          if (i < s.size() && s[i] == '<') {  // template argument list
            int depth = 0;
            while (i < s.size()) {
              if (s[i] == '<') ++depth;
              if (s[i] == '>' && --depth == 0) { ++i; break; }
              ++i;
            }
          }
          i = skip_spaces(s, i);
          if (i >= s.size() || !ident_char(s[i])) continue;
          std::size_t ve = i;
          while (ve < s.size() && ident_char(s[ve])) ++ve;
          const std::string var = s.substr(i, ve - i);
          std::size_t open = skip_spaces(s, ve);
          if (open >= s.size() || s[open] != '(') continue;
          vars_declared.insert(var);
          std::size_t close = 0;
          const auto args = split_args(s, open, close);
          bool deferred = false;
          for (const auto& arg : args) {
            deferred |= arg.find("defer_lock") != std::string::npos;
          }
          std::vector<std::string> new_keys;
          for (const auto& arg : args) {
            if (arg.find("adopt_lock") != std::string::npos ||
                arg.find("defer_lock") != std::string::npos ||
                arg.find("try_to_lock") != std::string::npos) {
              continue;
            }
            const std::string key =
                normalize_mutex(arg, cls, all_local_mutexes(), out.path);
            if (key.empty()) continue;
            record_acquire(*fn, key, line_at(pos), var, deferred, new_keys);
            new_keys.push_back(key);
          }
        }
      }

      // Manual x.lock() / x->lock() / x.unlock() on a tracked RAII
      // variable or on a mutex-named object.
      for (std::string_view op : {"lock", "unlock"}) {
        for (std::size_t pos : find_word(s, op)) {
          if (pos == 0) continue;
          const bool dot = s[pos - 1] == '.';
          const bool arrow = pos >= 2 && s[pos - 1] == '>' && s[pos - 2] == '-';
          if (!dot && !arrow) continue;
          const std::size_t open = skip_spaces(s, pos + op.size());
          if (open >= s.size() || s[open] != '(') continue;
          const std::string recv = receiver_before(s, pos - (dot ? 1 : 2));
          if (recv.empty()) continue;
          // RAII variable (covers deferred unique_locks)?
          Held* tracked = nullptr;
          for (auto& h : fn->held) {
            if (h.var == recv) tracked = &h;
          }
          std::string stem = recv;
          while (!stem.empty() && stem.back() == '_') stem.pop_back();
          const bool mutexish =
              stem == "mu" || stem == "mutex" ||
              (stem.size() > 3 && stem.compare(stem.size() - 3, 3, "_mu") == 0);
          if (tracked == nullptr && !mutexish) continue;
          if (op == "lock") {
            if (tracked != nullptr) {
              tracked->deferred = false;
            } else {
              record_acquire(*fn, normalize_mutex(recv, cls,
                                                  all_local_mutexes(),
                                                  out.path),
                             line_at(pos), "", false, {});
            }
          } else {
            const std::string key =
                tracked != nullptr
                    ? tracked->key
                    : normalize_mutex(recv, cls, all_local_mutexes(),
                                      out.path);
            for (std::size_t k = fn->held.size(); k > 0; --k) {
              if (fn->held[k - 1].key == key) {
                fn->held.erase(fn->held.begin() +
                               static_cast<std::ptrdiff_t>(k - 1));
                break;
              }
            }
          }
        }
      }
    }

    // Annotation references + GB_REQUIRES (any scope).
    harvest_annotations(s, cls);

    if (fn == nullptr) return;

    // Call sites and blocking ops.
    std::size_t i = 0;
    while (i < s.size()) {
      if (!ident_char(s[i]) ||
          std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
        ++i;
        continue;
      }
      std::size_t e = i;
      while (e < s.size() && ident_char(s[e])) ++e;
      const std::string name = s.substr(i, e - i);
      const std::size_t open = skip_spaces(s, e);
      const std::size_t start = i;
      i = e;
      if (open >= s.size() || s[open] != '(') continue;
      if (vars_declared.count(name) != 0) continue;
      if (macro_like(name)) continue;
      if (in_list(name, std::begin(kCallKeywords), std::end(kCallKeywords))) {
        continue;
      }
      if (name == "lock" || name == "unlock" || name == "try_lock" ||
          name == "native" || name == "notify_one" || name == "notify_all") {
        continue;
      }
      if (in_list(name, std::begin(kRaiiTypes), std::end(kRaiiTypes))) {
        continue;
      }
      const bool dot = start > 0 && s[start - 1] == '.';
      const bool arrow =
          start >= 2 && s[start - 1] == '>' && s[start - 2] == '-';
      const bool member = dot || arrow;
      const std::string recv =
          member ? receiver_before(s, start - (dot ? 1 : 2)) : std::string();

      if (in_list(name, std::begin(kBlockingOps), std::end(kBlockingOps))) {
        bool cv_wait = false;
        if (name == "wait" || name == "wait_for" || name == "wait_until") {
          // First argument starts with a tracked RAII lock variable:
          // this is a condition-variable wait, which releases the lock.
          std::size_t close = 0;
          const auto args = split_args(s, open, close);
          if (!args.empty()) {
            std::string a0 = args[0];
            const std::size_t b = a0.find_first_not_of(" \t");
            if (b != std::string::npos) a0 = a0.substr(b);
            std::size_t ae = 0;
            while (ae < a0.size() && ident_char(a0[ae])) ++ae;
            const std::string head = a0.substr(0, ae);
            for (const auto& f : fns) {
              for (const auto& h : f.held) {
                cv_wait |= !head.empty() && h.var == head;
              }
            }
          }
        }
        if (!cv_wait) {
          fn_of(*fn).blocking.push_back(
              LockBlockOp{name, line_at(start), held_keys()});
        }
      }
      fn_of(*fn).calls.push_back(
          LockCallSite{name, recv, member, line_at(start), held_keys()});
    }
  }

  void harvest_annotations(const std::string& s, const std::string& cls) {
    std::size_t pos = 0;
    while ((pos = s.find("GB_", pos)) != std::string::npos) {
      if (pos > 0 && ident_char(s[pos - 1])) { pos += 3; continue; }
      std::size_t e = pos;
      while (e < s.size() && ident_char(s[e])) ++e;
      const std::string macro = s.substr(pos, e - pos);
      pos = e;
      const std::size_t open = skip_spaces(s, e);
      if (open >= s.size() || s[open] != '(') continue;
      std::size_t close = 0;
      const auto args = split_args(s, open, close);
      std::vector<std::string> keys;
      for (const auto& arg : args) {
        std::size_t j = 0;
        while (j < arg.size()) {
          if (!ident_char(arg[j])) { ++j; continue; }
          std::size_t k = j;
          while (k < arg.size() && ident_char(arg[k])) ++k;
          out.annotation_refs.push_back(arg.substr(j, k - j));
          j = k;
        }
        if (macro == "GB_REQUIRES") {
          keys.push_back(normalize_mutex(arg, cls, {}, out.path));
        }
      }
      if (macro == "GB_REQUIRES" && !keys.empty()) {
        FnCtx* fn = active_fn();
        if (fn != nullptr) {
          // Attribute on a definition currently being entered is
          // handled at push_function; here it is a re-statement.
          for (const auto& k : keys) {
            fn_of(*fn).requires_held.push_back(k);
          }
        } else {
          // Body-less declaration: `void f(...) GB_REQUIRES(mu_);`
          const std::size_t fp = s.find('(');
          if (fp != std::string::npos && fp < open) {
            std::size_t ne = fp;
            while (ne > 0 &&
                   std::isspace(static_cast<unsigned char>(s[ne - 1])) != 0) {
              --ne;
            }
            std::size_t nb = ne;
            while (nb > 0 && ident_char(s[nb - 1])) --nb;
            const std::string fname = s.substr(nb, ne - nb);
            if (!fname.empty()) {
              out.requires_decls.push_back({{cls, fname}, keys});
            }
          }
        }
      }
    }
  }

  /// Class-scope statement: mutex members and field type hints.
  void analyze_member_decl() {
    const std::string& s = pending;
    const std::string cls = enclosing_class();
    if (cls.empty()) {
      harvest_annotations(s, cls);
      return;
    }
    harvest_annotations(s, cls);
    // Mutex members.
    struct MType { std::string_view spelled; bool needs_std; };
    for (const MType t : {MType{"mutex", true}, MType{"shared_mutex", true},
                          MType{"recursive_mutex", true},
                          MType{"Mutex", false}}) {
      for (std::size_t pos : find_word(s, t.spelled)) {
        if (t.needs_std &&
            !(pos >= 5 && s.compare(pos - 5, 5, "std::") == 0)) {
          continue;
        }
        std::size_t i = skip_spaces(s, pos + t.spelled.size());
        if (i >= s.size() || !ident_char(s[i]) ||
            std::isdigit(static_cast<unsigned char>(s[i])) != 0) {
          continue;  // reference/pointer/template use, not a member
        }
        std::size_t e = i;
        while (e < s.size() && ident_char(s[e])) ++e;
        const std::size_t after = skip_spaces(s, e);
        if (after < s.size() && s[after] == '(') continue;  // a function
        out.mutex_members.push_back(
            LockMutexMember{cls, s.substr(i, e - i), line_at(pos)});
      }
    }
    // Field type hints for member-call resolution: `Type* name`,
    // `Type& name`, `Type name`, or a unique_ptr, shared_ptr or optional
    // of Type, whose calls go through to Type. The declaration ends at an
    // initializer or a GB_ annotation; one that still holds a '(' is a
    // function, not a field.
    const std::string decl =
        s.substr(0, std::min(s.find_first_of("={"), annotation_start(s)));
    if (decl.find('(') == std::string::npos) {
      std::string type;
      for (std::string_view sp : {"unique_ptr", "shared_ptr", "optional"}) {
        const std::size_t pos = decl.find(sp);
        if (pos == std::string::npos) continue;
        std::size_t lt = pos + sp.size();
        if (lt >= decl.size() || decl[lt] != '<') continue;
        int depth = 0;
        std::size_t j = lt, close = std::string::npos;
        for (; j < decl.size(); ++j) {
          if (decl[j] == '<') ++depth;
          if (decl[j] == '>' && --depth == 0) { close = j; break; }
        }
        if (close == std::string::npos) continue;
        type = decl.substr(lt + 1, close - lt - 1);
        break;
      }
      if (type.empty() && decl.find('<') == std::string::npos) {
        // `ns::Type* name_;` — everything before the last identifier.
        type = decl;
      }
      if (!type.empty()) {
        // Last :: segment of the type's first token run.
        std::string last_seg, seg;
        bool done = false;
        for (char c : type) {
          if (ident_char(c)) {
            seg.push_back(c);
          } else if (c == ':') {
            if (!seg.empty()) { last_seg = seg; seg.clear(); }
          } else if (!seg.empty()) {
            last_seg = seg;
            done = true;
            break;
          }
        }
        if (!done && !seg.empty()) last_seg = seg;
        // Field name: the declaration's last identifier.
        std::size_t e = decl.size();
        while (e > 0 && !ident_char(decl[e - 1])) --e;
        std::size_t b = e;
        while (b > 0 && ident_char(decl[b - 1])) --b;
        const std::string field = decl.substr(b, e - b);
        if (!field.empty() && !last_seg.empty() && last_seg != field &&
            !macro_like(last_seg) &&
            std::isupper(static_cast<unsigned char>(last_seg[0])) != 0) {
          out.field_types[{cls, field}] = last_seg;
        }
      }
    }
  }

  // -- brace / statement dispatch --------------------------------------------

  /// True when `pending` ends in a lambda introducer + parameter list,
  /// i.e. the `{` about to open is a lambda body.
  [[nodiscard]] bool pending_is_lambda() const {
    if (fns.empty()) return false;  // lambdas at namespace scope: rare, skip
    const std::string& s = pending;
    // Find the last '[' that is a lambda introducer (not a subscript).
    std::size_t intro = std::string::npos;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '[') continue;
      std::size_t p = i;
      while (p > 0 &&
             std::isspace(static_cast<unsigned char>(s[p - 1])) != 0) {
        --p;
      }
      if (p == 0 || (!ident_char(s[p - 1]) && s[p - 1] != ')' &&
                     s[p - 1] != ']')) {
        intro = i;
      }
    }
    if (intro == std::string::npos) return false;
    // Between the matching ']' and the end: only parameter-list /
    // specifier characters.
    int depth = 0;
    std::size_t close = std::string::npos;
    for (std::size_t i = intro; i < s.size(); ++i) {
      if (s[i] == '[') ++depth;
      if (s[i] == ']' && --depth == 0) { close = i; break; }
    }
    if (close == std::string::npos) return false;
    for (std::size_t i = close + 1; i < s.size(); ++i) {
      const char c = s[i];
      if (ident_char(c) || std::isspace(static_cast<unsigned char>(c)) != 0 ||
          c == '(' || c == ')' || c == '<' || c == '>' || c == '&' ||
          c == '*' || c == ':' || c == ',' || c == '-' || c == '.') {
        continue;
      }
      return false;
    }
    return true;
  }

  void open_brace(std::size_t line) {
    // Events in a control-flow or call head (`while (cond) {`,
    // `cv.wait(lk, [&] {`) belong to the enclosing function.
    const bool lambda = pending_is_lambda();
    if (active_fn() != nullptr) analyze_statement();

    Ctx ctx;
    const std::string& s = pending;
    if (lambda) {
      ctx.kind = Ctx::kLambda;
      out.functions.push_back(LockFunction{});
      LockFunction& f = out.functions.back();
      f.cls.clear();
      f.name = "<lambda>";
      f.file = out.path;
      f.line = line;
      f.anonymous = true;
      fns.push_back(FnCtx{out.functions.size() - 1, {}, {}, stack.size() + 1});
    } else if (active_fn() != nullptr) {
      ctx.kind = Ctx::kBlock;
    } else if (!find_word(s, "namespace").empty()) {
      ctx.kind = Ctx::kNamespace;
    } else if ((!find_word(s, "class").empty() ||
                !find_word(s, "struct").empty()) &&
               find_word(s, "enum").empty() &&
               s.find('(') == std::string::npos) {
      ctx.kind = Ctx::kClass;
      // Name: first non-macro identifier after the keyword.
      std::size_t kw = 0;
      for (std::string_view w : {"class", "struct"}) {
        for (std::size_t pos : find_word(s, w)) kw = std::max(kw, pos);
      }
      std::size_t i = kw;
      while (i < s.size() && ident_char(s[i])) ++i;
      while (i < s.size()) {
        i = skip_spaces(s, i);
        if (i >= s.size() || s[i] == ':' || s[i] == '{') break;
        std::size_t e = i;
        while (e < s.size() && ident_char(s[e])) ++e;
        if (e == i) break;
        const std::string tok = s.substr(i, e - i);
        if (!macro_like(tok) && tok != "final" && tok != "alignas") {
          ctx.name = tok;
          break;
        }
        i = e;
      }
    } else if (s.find('(') != std::string::npos) {
      // Function definition at namespace/class scope.
      const std::size_t open = s.find('(');
      std::size_t e = open;
      while (e > 0 &&
             std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) {
        --e;
      }
      std::size_t b = e;
      while (b > 0 && (ident_char(s[b - 1]) || s[b - 1] == ':' ||
                       s[b - 1] == '~')) {
        --b;
      }
      std::string qname = s.substr(b, e - b);
      std::string cls = enclosing_class();
      std::string name = qname;
      const std::size_t sep = qname.rfind("::");
      if (sep != std::string::npos) {
        cls = qname.substr(0, sep);
        const std::size_t csep = cls.rfind("::");
        if (csep != std::string::npos) cls = cls.substr(csep + 2);
        name = qname.substr(sep + 2);
      }
      if (!name.empty() && name[0] == '~') name = name.substr(1);
      ctx.kind = Ctx::kFunction;
      out.functions.push_back(LockFunction{});
      LockFunction& f = out.functions.back();
      f.cls = cls;
      f.name = name;
      f.file = out.path;
      f.line = line;
      f.anonymous = name.empty() || name == "operator" ||
                    in_list(name, std::begin(kCallKeywords),
                            std::end(kCallKeywords));
      // GB_REQUIRES on the definition's signature.
      std::size_t rq = 0;
      while ((rq = s.find("GB_REQUIRES", rq)) != std::string::npos) {
        const std::size_t ro = s.find('(', rq);
        if (ro == std::string::npos) break;
        std::size_t rc = 0;
        for (const auto& arg : split_args(s, ro, rc)) {
          f.requires_held.push_back(normalize_mutex(arg, cls, {}, out.path));
        }
        rq = rc;
      }
      fns.push_back(FnCtx{out.functions.size() - 1, {}, {}, stack.size() + 1});
    } else {
      ctx.kind = Ctx::kBlock;  // brace init, extern "C", etc.
    }
    stack.push_back(ctx);
    pending.clear();
    pend_line.clear();
  }

  void close_brace() {
    if (!pending.empty() && active_fn() != nullptr) analyze_statement();
    pending.clear();
    pend_line.clear();
    if (stack.empty()) return;
    const Ctx::Kind kind = stack.back().kind;
    stack.pop_back();
    if ((kind == Ctx::kFunction || kind == Ctx::kLambda) && !fns.empty()) {
      fns.pop_back();
    }
    // RAII releases at scope exit.
    if (FnCtx* fn = active_fn()) {
      auto& held = fn->held;
      held.erase(std::remove_if(held.begin(), held.end(),
                                [&](const Held& h) {
                                  return h.depth > stack.size();
                                }),
                 held.end());
    }
  }

  void statement_end() {
    if (active_fn() != nullptr) {
      analyze_statement();
    } else {
      analyze_member_decl();
    }
    pending.clear();
    pend_line.clear();
  }
};

}  // namespace

LockIndexFile index_lock_file(const std::string& path,
                              const std::vector<std::string>& code) {
  LockIndexFile out;
  out.path = path;
  // The capability wrappers' own definitions (Mutex::lock and friends)
  // would alias every manual lock() in the tree onto one node.
  if (std::filesystem::path(path).filename() == "thread_annotations.h") {
    return out;
  }
  Scanner sc{out, {}, {}, {}, {}};
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& line = code[li];
    for (char c : line) {
      if (c == '{') {
        sc.open_brace(li);
      } else if (c == '}') {
        sc.close_brace();
      } else if (c == ';') {
        sc.statement_end();
      } else {
        sc.append(c, li);
      }
    }
    sc.append(' ', li);  // newlines separate tokens
  }
  return out;
}

// --- cycle detection --------------------------------------------------------

std::vector<std::vector<std::string>> detect_lock_cycles(
    const std::vector<LockEdge>& edges) {
  std::map<std::string, std::set<std::string>> adj;
  std::set<std::string> self_loops;
  for (const auto& e : edges) {
    if (e.from.empty() || e.to.empty()) continue;
    adj[e.from].insert(e.to);
    adj[e.to];  // ensure node exists
    if (e.from == e.to) self_loops.insert(e.from);
  }

  // Iterative Tarjan.
  std::map<std::string, int> index, low;
  std::set<std::string> on_stack;
  std::vector<std::string> stck;
  int next_index = 0;
  std::vector<std::vector<std::string>> sccs;

  struct Frame {
    std::string node;
    std::set<std::string>::const_iterator it, end;
  };
  for (const auto& [root, _] : adj) {
    if (index.count(root) != 0) continue;
    std::vector<Frame> frames;
    index[root] = low[root] = next_index++;
    stck.push_back(root);
    on_stack.insert(root);
    frames.push_back({root, adj[root].begin(), adj[root].end()});
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.it != f.end) {
        const std::string next = *f.it++;
        if (index.count(next) == 0) {
          index[next] = low[next] = next_index++;
          stck.push_back(next);
          on_stack.insert(next);
          frames.push_back({next, adj[next].begin(), adj[next].end()});
        } else if (on_stack.count(next) != 0) {
          low[f.node] = std::min(low[f.node], index[next]);
        }
        continue;
      }
      if (low[f.node] == index[f.node]) {
        std::vector<std::string> scc;
        for (;;) {
          const std::string n = stck.back();
          stck.pop_back();
          on_stack.erase(n);
          scc.push_back(n);
          if (n == f.node) break;
        }
        if (scc.size() > 1 ||
            (scc.size() == 1 && self_loops.count(scc[0]) != 0)) {
          std::sort(scc.begin(), scc.end());
          sccs.push_back(std::move(scc));
        }
      }
      const std::string done = f.node;
      frames.pop_back();
      if (!frames.empty()) {
        low[frames.back().node] =
            std::min(low[frames.back().node], low[done]);
      }
    }
  }
  std::sort(sccs.begin(), sccs.end());
  return sccs;
}

// --- the cross-TU analysis --------------------------------------------------

namespace {

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace

std::vector<LockFinding> analyze_lock_graph(
    const std::vector<LockIndexFile>& files) {
  // Function tables. Pointers stay valid: `files` is const.
  std::vector<const LockFunction*> fns;
  std::map<std::pair<std::string, std::string>,
           std::vector<const LockFunction*>>
      by_class_method;
  std::map<std::string, std::vector<const LockFunction*>> by_name;
  std::map<std::pair<std::string, std::string>,
           std::vector<const LockFunction*>>
      free_by_file;
  std::map<std::pair<std::string, std::string>, std::string> field_types;
  for (const auto& file : files) {
    for (const auto& f : file.functions) {
      fns.push_back(&f);
      if (f.anonymous) continue;
      by_name[f.name].push_back(&f);
      if (!f.cls.empty()) {
        by_class_method[{f.cls, f.name}].push_back(&f);
      } else {
        free_by_file[{file.path, f.name}].push_back(&f);
      }
    }
    for (const auto& [key, type] : file.field_types) {
      field_types.emplace(key, type);
    }
  }

  // Merge GB_REQUIRES from body-less declarations into definitions.
  std::map<const LockFunction*, std::set<std::string>> requires_held;
  for (const auto* f : fns) {
    requires_held[f].insert(f->requires_held.begin(),
                            f->requires_held.end());
  }
  for (const auto& file : files) {
    for (const auto& [key, keys] : file.requires_decls) {
      const auto it = by_class_method.find(key);
      if (it == by_class_method.end()) continue;
      for (const auto* f : it->second) {
        requires_held[f].insert(keys.begin(), keys.end());
      }
    }
  }

  // Call resolution (deliberate under-approximation — see header).
  auto resolve = [&](const LockFunction& caller, const LockCallSite& call)
      -> std::vector<const LockFunction*> {
    if (call.member_call) {
      if (!call.receiver.empty() && !caller.cls.empty()) {
        const auto ht = field_types.find({caller.cls, call.receiver});
        if (ht != field_types.end()) {
          const auto mt = by_class_method.find({ht->second, call.callee});
          if (mt != by_class_method.end()) return mt->second;
        }
      }
      if (in_list(call.callee, std::begin(kStdMethodNames),
                  std::end(kStdMethodNames))) {
        return {};
      }
      const auto it = by_name.find(call.callee);
      if (it == by_name.end()) return {};
      // Unique method name tree-wide (all candidates in one class).
      std::string cls;
      for (const auto* f : it->second) {
        if (f->cls.empty()) return {};
        if (cls.empty()) cls = f->cls;
        if (f->cls != cls) return {};
      }
      return it->second;
    }
    // Bare call: same class, then same-file free fn, then unique free fn.
    if (!caller.cls.empty()) {
      const auto mt = by_class_method.find({caller.cls, call.callee});
      if (mt != by_class_method.end()) return mt->second;
    }
    const auto ft = free_by_file.find({caller.file, call.callee});
    if (ft != free_by_file.end()) return ft->second;
    if (in_list(call.callee, std::begin(kStdMethodNames),
                std::end(kStdMethodNames))) {
      return {};
    }
    const auto it = by_name.find(call.callee);
    if (it == by_name.end()) return {};
    std::vector<const LockFunction*> frees;
    for (const auto* f : it->second) {
      if (f->cls.empty()) frees.push_back(f);
    }
    if (frees.size() == it->second.size() && !frees.empty()) {
      // All candidates are free functions in one file?
      std::string file0 = frees[0]->file;
      for (const auto* f : frees) {
        if (f->file != file0) return {};
      }
      return frees;
    }
    return {};
  };

  std::map<const LockFunction*,
           std::vector<std::vector<const LockFunction*>>>
      resolved;
  for (const auto* f : fns) {
    auto& r = resolved[f];
    r.reserve(f->calls.size());
    for (const auto& c : f->calls) r.push_back(resolve(*f, c));
  }

  // Fixpoint 1: transitively acquired mutexes.
  std::map<const LockFunction*, std::set<std::string>> acq;
  for (const auto* f : fns) {
    acq[f].insert(f->acquires.begin(), f->acquires.end());
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto* f : fns) {
      auto& mine = acq[f];
      const std::size_t before = mine.size();
      for (const auto& targets : resolved[f]) {
        for (const auto* t : targets) {
          const auto& theirs = acq[t];
          mine.insert(theirs.begin(), theirs.end());
        }
      }
      changed |= mine.size() != before;
    }
  }

  // Fixpoint 2: held on entry (declared requirements plus every
  // call-site context).
  std::map<const LockFunction*, std::set<std::string>> entry;
  for (const auto* f : fns) entry[f] = requires_held[f];
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto* f : fns) {
      const auto& my_entry = entry[f];
      for (std::size_t ci = 0; ci < f->calls.size(); ++ci) {
        std::set<std::string> ctx(f->calls[ci].held.begin(),
                                  f->calls[ci].held.end());
        ctx.insert(my_entry.begin(), my_entry.end());
        for (const auto* t : resolved[f][ci]) {
          auto& te = entry[t];
          const std::size_t before = te.size();
          te.insert(ctx.begin(), ctx.end());
          changed |= te.size() != before;
        }
      }
    }
  }

  // Edge set: intra-function edges plus acquired-through-call edges.
  std::vector<LockEdge> edges;
  for (const auto* f : fns) {
    edges.insert(edges.end(), f->edges.begin(), f->edges.end());
    for (std::size_t ci = 0; ci < f->calls.size(); ++ci) {
      const auto& call = f->calls[ci];
      if (call.held.empty()) continue;
      for (const auto* t : resolved[f][ci]) {
        for (const auto& m : acq[t]) {
          for (const auto& h : call.held) {
            edges.push_back(LockEdge{h, m, f->file, call.line});
          }
        }
      }
    }
  }

  std::vector<LockFinding> findings;

  // Rule: lock-order-cycle.
  for (const auto& cyc : detect_lock_cycles(edges)) {
    const std::set<std::string> members(cyc.begin(), cyc.end());
    std::vector<std::pair<std::string, std::size_t>> sites;
    for (const auto& e : edges) {
      if (members.count(e.from) != 0 && members.count(e.to) != 0) {
        sites.emplace_back(e.file, e.line);
      }
    }
    std::sort(sites.begin(), sites.end());
    sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
    if (sites.empty()) continue;
    std::string msg =
        cyc.size() == 1
            ? "re-entrant acquisition of '" + cyc[0] +
                  "': a thread holding it acquires it again (deadlock "
                  "with std::mutex)"
            : "lock-order cycle: " + join(cyc, " -> ") + " -> " + cyc[0] +
                  "; threads acquire these mutexes in conflicting orders "
                  "— pick one global order (or waive the intended edge "
                  "with a rationale)";
    findings.push_back(LockFinding{"lock-order-cycle", sites.front().first,
                                   sites.front().second, std::move(msg),
                                   std::move(sites)});
  }

  // Rule: blocking-under-lock.
  for (const auto* f : fns) {
    for (const auto& op : f->blocking) {
      std::set<std::string> held(op.held.begin(), op.held.end());
      held.insert(entry[f].begin(), entry[f].end());
      if (held.empty()) continue;
      const std::vector<std::string> sorted(held.begin(), held.end());
      findings.push_back(LockFinding{
          "blocking-under-lock", f->file, op.line,
          "'" + op.op + "' may block while holding {" + join(sorted, ", ") +
              "}; move it outside the critical section or waive with a "
              "documented rationale",
          {{f->file, op.line}}});
    }
  }

  // Rule: unannotated-guarded-member (per file: the annotation and the
  // member live in the same header by construction).
  for (const auto& file : files) {
    const std::set<std::string> refs(file.annotation_refs.begin(),
                                     file.annotation_refs.end());
    for (const auto& m : file.mutex_members) {
      if (refs.count(m.name) != 0) continue;
      findings.push_back(LockFinding{
          "unannotated-guarded-member", file.path, m.line,
          "mutex member '" + m.name + "' of " + m.cls +
              " has no GB_GUARDED_BY/GB_REQUIRES references in this "
              "file; annotate the state it guards (see "
              "support/thread_annotations.h)",
          {{file.path, m.line}}});
    }
  }

  std::sort(findings.begin(), findings.end(),
            [](const LockFinding& a, const LockFinding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

}  // namespace gb::lint
