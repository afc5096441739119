#include "lint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "lint/scope.hpp"

namespace evvo::lint {

namespace {

// ---------------------------------------------------------------------------
// Single-line rules (carried over from evvo_lint v1)
// ---------------------------------------------------------------------------

/// Parameter names that read as dimensioned quantities. A `double` parameter
/// with one of these names in a boundary header is exactly the mixup the
/// strong types exist to reject.
bool name_reads_as_unit(std::string_view name) {
  static constexpr std::string_view kExact[] = {
      "speed", "time", "flow", "velocity", "depart", "arrival", "dt", "tau",
  };
  for (const auto n : kExact) {
    if (name == n) return true;
  }
  static constexpr std::string_view kSuffixes[] = {
      "_s", "_ms", "_m", "_ms2", "_veh_h", "_veh_s", "_kmh", "_mph", "_ah", "_mah",
  };
  for (const auto suffix : kSuffixes) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      return true;
  }
  static constexpr std::string_view kStems[] = {"speed", "time", "flow"};
  for (const auto stem : kStems) {
    if (name.find(stem) != std::string_view::npos) return true;
  }
  return false;
}

void check_naked_unit_param(const SourceFile& file, const std::string& code,
                            std::size_t idx, std::vector<Violation>& out) {
  if (!file.is_boundary_header) return;
  for (std::size_t pos = code.find("double"); pos != std::string::npos;
       pos = code.find("double", pos + 6)) {
    const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
    if (!left_ok || (pos + 6 < code.size() && is_ident_char(code[pos + 6]))) continue;
    // Walk back over whitespace/const to the separator: only parameters (a
    // preceding '(' or ',') count, not member declarations.
    std::size_t back = pos;
    while (back > 0 && std::isspace(static_cast<unsigned char>(code[back - 1]))) --back;
    if (back >= 5 && code.compare(back - 5, 5, "const") == 0) {
      back -= 5;
      while (back > 0 && std::isspace(static_cast<unsigned char>(code[back - 1]))) --back;
    }
    if (back == 0 || (code[back - 1] != '(' && code[back - 1] != ',')) continue;
    const std::string_view name = ident_starting_at(code, pos + 6);
    if (name.empty()) continue;
    if (name_reads_as_unit(name)) {
      out.push_back({file.path, idx + 1, "naked-unit-param",
                     "parameter 'double " + std::string(name) +
                         "' in a boundary header: use the dimension-checked type from "
                         "common/units.hpp (Seconds, MetersPerSecond, VehiclesPerSecond, ...)"});
    }
  }
}

void check_banned_random(const SourceFile& file, const std::string& code,
                         std::size_t idx, std::vector<Violation>& out) {
  static constexpr std::string_view kBanned[] = {"std::rand", "srand", "std::srand"};
  for (const auto b : kBanned) {
    if (contains_word(code, b)) {
      out.push_back({file.path, idx + 1, "banned-random",
                     std::string(b) + " is banned: use common/random.hpp (deterministic, "
                                      "seedable, reproducible failures)"});
      return;
    }
  }
  // time(0) / time(NULL) / time(nullptr): the classic nondeterministic seed.
  for (std::size_t pos = code.find("time"); pos != std::string::npos;
       pos = code.find("time", pos + 4)) {
    if (pos > 0 && is_ident_char(code[pos - 1])) continue;
    std::size_t p = pos + 4;
    while (p < code.size() && std::isspace(static_cast<unsigned char>(code[p]))) ++p;
    if (p >= code.size() || code[p] != '(') continue;
    ++p;
    while (p < code.size() && std::isspace(static_cast<unsigned char>(code[p]))) ++p;
    if (code.compare(p, 1, "0") == 0 || code.compare(p, 4, "NULL") == 0 ||
        code.compare(p, 7, "nullptr") == 0) {
      out.push_back({file.path, idx + 1, "banned-random",
                     "wall-clock seed time(...) is banned: use common/random.hpp"});
      return;
    }
  }
}

void check_nodiscard_result(const SourceFile& file, const std::string& code,
                            std::size_t idx, std::vector<Violation>& out) {
  if (!file.is_header) return;
  static constexpr std::string_view kSuffixes[] = {"Solution", "Result", "Report", "Response",
                                                   "Stats"};
  for (const auto kw : {std::string_view("struct"), std::string_view("class")}) {
    for (std::size_t pos = code.find(kw); pos != std::string::npos;
         pos = code.find(kw, pos + kw.size())) {
      const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
      if (!left_ok || (pos + kw.size() < code.size() && is_ident_char(code[pos + kw.size()])))
        continue;
      const std::string_view name = ident_starting_at(code, pos + kw.size());
      if (name.empty()) continue;
      // Only definitions introduce the attribute: require '{' or ':' (base
      // clause) after the name, skipping forward declarations and uses.
      std::size_t after = code.find(name, pos) + name.size();
      while (after < code.size() && std::isspace(static_cast<unsigned char>(code[after]))) ++after;
      if (after >= code.size() || (code[after] != '{' && code[after] != ':')) continue;
      const bool result_like = std::any_of(
          std::begin(kSuffixes), std::end(kSuffixes), [&](std::string_view s) {
            return name.size() > s.size() &&
                   name.compare(name.size() - s.size(), s.size(), s) == 0;
          });
      if (!result_like) continue;
      const bool annotated =
          code.find("[[nodiscard]]") != std::string::npos ||
          (idx > 0 && file.raw[idx - 1].find("[[nodiscard]]") != std::string::npos);
      if (!annotated) {
        out.push_back({file.path, idx + 1, "nodiscard-result",
                       std::string(name) + " is a result type: declare it [[nodiscard]] so "
                                           "dropped solver/planner output is a compile error"});
      }
    }
  }
}

void check_raw_sync(const SourceFile& file, const std::string& code, std::size_t idx,
                    std::vector<Violation>& out) {
  if (file.is_mutex_wrapper) return;
  for (const auto banned :
       {std::string_view("std::mutex"), std::string_view("std::condition_variable"),
        std::string_view("std::lock_guard"), std::string_view("std::scoped_lock"),
        std::string_view("std::unique_lock")}) {
    if (contains_word(code, banned)) {
      out.push_back({file.path, idx + 1, "raw-sync",
                     std::string(banned) + " outside common/mutex.hpp: use common::Mutex / "
                                           "common::MutexLock / common::CondVar so clang "
                                           "-Wthread-safety sees the lock"});
      return;
    }
  }
}

void check_raw_clock(const SourceFile& file, const std::string& code, std::size_t idx,
                     std::vector<Violation>& out) {
  if (file.is_clock_seam) return;
  // Any mention of a std::chrono clock type is flagged, not just ::now():
  // `using Clock = std::chrono::steady_clock;` is exactly how a call site
  // slips out of the common::now_ns() funnel (and away from ScopedFakeClock).
  for (const auto banned :
       {std::string_view("steady_clock"), std::string_view("system_clock"),
        std::string_view("high_resolution_clock")}) {
    if (contains_word(code, banned)) {
      out.push_back({file.path, idx + 1, "raw-clock",
                     std::string("std::chrono::") + std::string(banned) +
                         " outside common/clock.hpp: read time through common::now_ns() "
                         "so tests can fake the clock and spans stay on one source"});
      return;
    }
  }
}

void check_raw_intrinsics(const SourceFile& file, const std::string& code,
                          std::size_t idx, std::vector<Violation>& out) {
  if (file.is_simd_wrapper) return;
  const std::string& raw = file.raw[idx];
  if (raw.find("#include") != std::string::npos) {
    static constexpr std::string_view kHeaders[] = {"immintrin.h", "x86intrin.h",
                                                    "emmintrin.h", "arm_neon.h"};
    for (const auto h : kHeaders) {
      if (raw.find(h) != std::string::npos) {
        out.push_back({file.path, idx + 1, "raw-intrinsics",
                       std::string("#include <") + std::string(h) +
                           "> outside common/simd.hpp: all vector code goes through the "
                           "portable wrappers (scalar fallback + bit-identity live there)"});
        return;
      }
    }
  }
  static constexpr std::string_view kPrefixes[] = {"_mm_", "_mm256_", "_mm512_", "vld1q",
                                                   "vst1q"};
  for (const auto p : kPrefixes) {
    if (code.find(p) != std::string::npos) {
      out.push_back({file.path, idx + 1, "raw-intrinsics",
                     "raw SIMD intrinsic '" + std::string(p) +
                         "...' outside common/simd.hpp: use the evvo::common::simd wrappers"});
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// File-scope rules
// ---------------------------------------------------------------------------

/// A Mutex declaration in a file with no EVVO_GUARDED_BY/EVVO_REQUIRES is a
/// lock the thread-safety analyzer cannot check. Driven by the symbol pass,
/// so brace-initialized (ranked) declarations count too.
void check_guarded_mutex(const SourceFile& file, const FileSymbols& symbols,
                         std::vector<Violation>& out) {
  if (file.is_mutex_wrapper || symbols.mutexes.empty()) return;
  for (const auto& code : file.code) {
    if (code.find("EVVO_GUARDED_BY") != std::string::npos ||
        code.find("EVVO_REQUIRES") != std::string::npos ||
        code.find("EVVO_PT_GUARDED_BY") != std::string::npos) {
      return;
    }
  }
  const MutexDecl& first = symbols.mutexes.front();
  if (!suppressed(file, first.line, "guarded-mutex")) {
    out.push_back({file.path, first.line + 1, "guarded-mutex",
                   "file declares Mutex '" + first.name +
                       "' but contains no EVVO_GUARDED_BY/EVVO_REQUIRES annotation: the "
                       "analyzer cannot check an unannotated lock"});
  }
}

void check_include_hygiene(const SourceFile& file, std::vector<Violation>& out) {
  if (file.is_header) {
    const bool has_pragma_once =
        std::any_of(file.raw.begin(), file.raw.end(), [](const std::string& raw) {
          return raw.find("#pragma once") != std::string::npos;
        });
    if (!has_pragma_once) {
      out.push_back({file.path, 1, "include-hygiene", "header is missing #pragma once"});
    }
  }
  for (std::size_t idx = 0; idx < file.code.size(); ++idx) {
    // Include paths live inside string literals, which the tokenizer blanks;
    // #include lines cannot contain comments that matter, so scan them raw.
    const std::string& code =
        file.raw[idx].find("#include") != std::string::npos ? file.raw[idx] : file.code[idx];
    if (code.find("#include \"../") != std::string::npos) {
      if (!suppressed(file, idx, "include-hygiene"))
        out.push_back({file.path, idx + 1, "include-hygiene",
                       "parent-relative include: include project headers by their src/-rooted "
                       "path"});
    }
    if (file.is_header && code.find("using namespace") != std::string::npos) {
      if (!suppressed(file, idx, "include-hygiene"))
        out.push_back({file.path, idx + 1, "include-hygiene",
                       "`using namespace` at header scope leaks into every includer"});
    }
  }
}

// ---------------------------------------------------------------------------
// fp-determinism: the bit-identity contract in lintable form
// ---------------------------------------------------------------------------

void check_fp_determinism(const SourceFile& file, const std::string& code,
                          std::size_t idx, std::vector<Violation>& out) {
  const bool deterministic_zone = file.path.find("src/core/") != std::string::npos ||
                                  file.path.find("src/learn/") != std::string::npos;
  if (deterministic_zone) {
    static constexpr std::string_view kReductions[] = {
        "std::accumulate", "std::reduce", "std::inner_product", "std::transform_reduce"};
    for (const auto r : kReductions) {
      if (contains_word(code, r)) {
        out.push_back({file.path, idx + 1, "fp-determinism",
                       std::string(r) + " in a deterministic zone: reduction order is part of "
                                        "the bit-identity contract — use the fixed-op-order "
                                        "helpers in common/simd.hpp"});
      }
    }
  }
  if (code.find("#pragma") != std::string::npos) {
    if (code.find("fast-math") != std::string::npos ||
        code.find("float_control") != std::string::npos ||
        code.find("FP_CONTRACT") != std::string::npos ||
        code.find("clang fp") != std::string::npos) {
      out.push_back({file.path, idx + 1, "fp-determinism",
                     "floating-point model pragma: the tree builds with -ffp-contract=off and "
                     "results must be bit-identical across builds"});
    }
    if (code.find("#pragma omp") != std::string::npos) {
      out.push_back({file.path, idx + 1, "fp-determinism",
                     "OpenMP pragma: its work split and reduction order vary with the "
                     "thread count; keep the loop serial or give each std::thread a fixed "
                     "share"});
    }
  } else if (code.find("ffast-math") != std::string::npos) {
    out.push_back({file.path, idx + 1, "fp-determinism",
                   "-ffast-math reference: fast-math is banned tree-wide (bit-identity)"});
  }
  if (!file.is_simd_wrapper) {
    for (const auto f : {std::string_view("std::fma"), std::string_view("fmaf"),
                         std::string_view("fmal")}) {
      if (contains_word(code, f)) {
        out.push_back({file.path, idx + 1, "fp-determinism",
                       std::string(f) + " outside common/simd.hpp: explicit fusion changes "
                                        "results vs the scalar path and breaks SIMD-vs-scalar "
                                        "bit-identity"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// atomics-misuse: line checks (order spelled out, consumed relaxed RMW,
// seq_cst) — the check-then-act part lives in the scope walker below.
// ---------------------------------------------------------------------------

constexpr std::string_view kAtomicOps[] = {
    "load",        "store",    "exchange",                "fetch_add",
    "fetch_sub",   "fetch_and", "fetch_or",               "fetch_xor",
    "compare_exchange_weak",    "compare_exchange_strong",
};

constexpr std::string_view kAtomicRmwOps[] = {
    "exchange", "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
};

/// Receiver of a member call whose member name starts at `op_pos`:
/// "batch->next.fetch_add" with op_pos at "fetch_add" yields "next".
std::string_view receiver_of(std::string_view code, std::size_t op_pos) {
  if (op_pos < 1) return {};
  std::size_t dot = op_pos;
  if (code[dot - 1] == '.') {
    return ident_ending_at(code, dot - 1);
  }
  if (dot >= 2 && code[dot - 2] == '-' && code[dot - 1] == '>') {
    return ident_ending_at(code, dot - 2);
  }
  return {};
}

void check_atomics_lines(const SourceFile& file, const SymbolTable& table,
                         const std::string& code, std::size_t idx,
                         std::vector<Violation>& out) {
  if (contains_word(code, "memory_order_seq_cst")) {
    out.push_back({file.path, idx + 1, "atomics-misuse",
                   "memory_order_seq_cst: state the intended order explicitly (relaxed for "
                   "stats counters, acquire/release/acq_rel for synchronization)"});
  }
  for (const auto op : kAtomicOps) {
    for (std::size_t pos = code.find(op); pos != std::string::npos;
         pos = code.find(op, pos + 1)) {
      const bool left_ok = pos > 0 && (code[pos - 1] == '.' || code[pos - 1] == '>');
      const std::size_t end = pos + op.size();
      if (!left_ok || end >= code.size() || code[end] != '(' ||
          (pos > 0 && is_ident_char(code[pos - 1]))) {
        continue;
      }
      const std::string_view receiver = receiver_of(code, pos);
      if (receiver.empty() || !table.is_atomic(receiver)) continue;
      // Argument list up to the matching ')' on this line. A call whose
      // arguments span lines is out of scope (lenient, never false-positive).
      std::size_t p = end;
      int depth = 0;
      for (; p < code.size(); ++p) {
        if (code[p] == '(') ++depth;
        if (code[p] == ')' && --depth == 0) break;
      }
      if (depth != 0) continue;
      const std::string_view args = std::string_view(code).substr(end, p - end);
      if (args.find("memory_order") == std::string_view::npos) {
        out.push_back({file.path, idx + 1, "atomics-misuse",
                       "atomic " + std::string(op) + " on '" + std::string(receiver) +
                           "' without an explicit std::memory_order: the default is seq_cst "
                           "and hides the intended protocol"});
        continue;
      }
      // Consumed relaxed RMW: a relaxed fetch_*/exchange whose value feeds an
      // expression is (almost always) a synchronization edge wearing the
      // wrong order. Discarded results (pure counters) are the legit use.
      const bool is_rmw = std::any_of(std::begin(kAtomicRmwOps), std::end(kAtomicRmwOps),
                                      [&](std::string_view r) { return r == op; });
      if (is_rmw && args.find("memory_order_relaxed") != std::string_view::npos) {
        // Start of the receiver chain: walk back over idents, ., ->, ::,
        // this, and balanced subscripts (cells[i].v.fetch_add is still a
        // statement-position chain).
        std::size_t chain = pos;
        while (chain > 0) {
          const char c = code[chain - 1];
          if (is_ident_char(c) || c == '.' || c == ':') {
            --chain;
          } else if (chain >= 2 && c == '>' && code[chain - 2] == '-') {
            chain -= 2;
          } else if (c == ']') {
            int brackets = 0;
            std::size_t scan = chain;
            while (scan > 0) {
              const char b = code[--scan];
              if (b == ']') ++brackets;
              if (b == '[' && --brackets == 0) break;
            }
            if (brackets != 0) break;  // subscript spans lines: stop walking
            chain = scan;
          } else {
            break;
          }
        }
        std::string_view prefix = std::string_view(code).substr(0, chain);
        while (!prefix.empty() &&
               std::isspace(static_cast<unsigned char>(prefix.back()))) {
          prefix.remove_suffix(1);
        }
        // Statement-position call (value discarded): nothing before the
        // chain, a statement boundary, or the ')' of a guarding condition
        // (`if (cond) counter.fetch_add(...)`). `else`/`do` keywords also
        // leave the call in statement position.
        bool discarded = prefix.empty() || prefix.back() == ';' || prefix.back() == '{' ||
                         prefix.back() == '}' || prefix.back() == ')';
        if (!discarded) {
          const std::string_view last = ident_ending_at(prefix, prefix.size());
          if (last == "else" || last == "do") discarded = true;
        }
        if (!discarded) {
          out.push_back({file.path, idx + 1, "atomics-misuse",
                         "consumed relaxed " + std::string(op) + " on '" +
                             std::string(receiver) +
                             "': a read-modify-write whose value is used orders other memory "
                             "— use acq_rel (or suppress with a justification if it only "
                             "selects work)"});
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scope-walking rules: lock-order, wait-predicate, atomic check-then-act
// ---------------------------------------------------------------------------

/// Tracks nested MutexLock acquisitions through one file and checks each new
/// acquisition's rank against the innermost held rank — the static mirror of
/// deadlock.cpp's runtime validator.
class LockOrderSink : public ScopeSink {
 public:
  LockOrderSink(const SourceFile& file, const SymbolTable& table,
                std::vector<Violation>& out)
      : file_(file), table_(table), out_(out) {}

  void on_identifier(std::size_t line, std::size_t col, std::string_view ident,
                     const WalkState& st) override {
    if (ident != "MutexLock") return;
    const std::string& code = file_.code[line];
    const std::string_view var = ident_starting_at(code, col + ident.size());
    if (var.empty()) return;  // a cast or mention, not a declaration
    std::size_t p = code.find(var, col + ident.size()) + var.size();
    while (p < code.size() && std::isspace(static_cast<unsigned char>(code[p]))) ++p;
    if (p >= code.size() || (code[p] != '(' && code[p] != '{')) return;
    const char open = code[p];
    const char close = open == '(' ? ')' : '}';
    std::size_t q = p + 1;
    int depth = 1;
    for (; q < code.size() && depth > 0; ++q) {
      if (code[q] == open) ++depth;
      if (code[q] == close) --depth;
    }
    if (depth != 0) return;  // expression spans lines: out of scope for v2
    const std::string_view expr = std::string_view(code).substr(p + 1, q - p - 2);
    const std::string_view mutex_name = trailing_ident(expr);
    if (mutex_name.empty()) return;
    const MutexDecl* decl = table_.find_mutex(mutex_name);
    if (decl == nullptr) return;  // local/parameter mutex: not resolvable
    if (suppressed(file_, line, "lock-order")) {
      // Suppressed acquisitions still hold the lock for nesting purposes.
      push_if_ranked(*decl, line, st);
      return;
    }
    if (!decl->ranked) {
      out_.push_back({file_.path, line + 1, "lock-order",
                      "'" + decl->name + "' (declared at " + decl->file + ":" +
                          std::to_string(decl->line + 1) +
                          ") is locked but has no LockRank: rank every lockable mutex so "
                          "acquisition order is checkable"});
      return;
    }
    int rank = 0;
    if (!table_.rank_value(decl->rank_name, &rank)) {
      out_.push_back({file_.path, line + 1, "lock-order",
                      "'" + decl->name + "' uses unknown rank '" + decl->rank_name +
                          "': not an enumerator of common/lock_ranks.hpp"});
      return;
    }
    if (!held_.empty() && held_.back().rank >= rank) {
      const Held& h = held_.back();
      out_.push_back(
          {file_.path, line + 1, "lock-order",
           "lock order inversion: acquiring '" + std::string(mutex_name) + "' (" +
               decl->rank_name + " = " + std::to_string(rank) + ") while holding '" + h.name +
               "' (" + h.rank_name + " = " + std::to_string(h.rank) + ", locked at line " +
               std::to_string(h.line + 1) +
               "): nested acquisitions must be strictly rank-increasing"});
    }
    held_.push_back({std::string(mutex_name), decl->rank_name, rank, line, st.depth});
  }

  void on_scope_close(const ScopeInfo& closing, std::size_t, const WalkState&) override {
    while (!held_.empty() && held_.back().depth >= closing.depth) held_.pop_back();
  }

 private:
  struct Held {
    std::string name;
    std::string rank_name;
    int rank = 0;
    std::size_t line = 0;
    int depth = 0;
  };

  void push_if_ranked(const MutexDecl& decl, std::size_t line, const WalkState& st) {
    int rank = 0;
    if (decl.ranked && table_.rank_value(decl.rank_name, &rank)) {
      held_.push_back({decl.name, decl.rank_name, rank, line, st.depth});
    }
  }

  const SourceFile& file_;
  const SymbolTable& table_;
  std::vector<Violation>& out_;
  std::vector<Held> held_;
};

/// CondVar::wait outside a loop drops spurious wakeups; the wait must be the
/// body of `while (!pred) cv.wait(m);` (or sit inside a braced loop).
class WaitPredicateSink : public ScopeSink {
 public:
  WaitPredicateSink(const SourceFile& file, const SymbolTable& table,
                    std::vector<Violation>& out)
      : file_(file), table_(table), out_(out) {}

  void on_identifier(std::size_t line, std::size_t col, std::string_view ident,
                     const WalkState& st) override {
    if (ident != "wait") return;
    const std::string& code = file_.code[line];
    const std::string_view receiver = receiver_of(code, col);
    if (receiver.empty() || !table_.is_condvar(receiver)) return;
    const std::size_t after = col + ident.size();
    if (after >= code.size() || code[after] != '(') return;
    if (st.statement_has_loop || st.in_loop_scope()) return;
    if (suppressed(file_, line, "wait-predicate")) return;
    out_.push_back({file_.path, line + 1, "wait-predicate",
                    "CondVar '" + std::string(receiver) +
                        "' waited on outside a predicate loop: spurious wakeups make a bare "
                        "or if-guarded wait incorrect — write `while (!pred) " +
                        std::string(receiver) + ".wait(m);`"});
  }

 private:
  const SourceFile& file_;
  const SymbolTable& table_;
  std::vector<Violation>& out_;
};

/// Atomic check-then-act: an atomic load in a branch condition followed by a
/// store/RMW of the same atomic inside the guarded region is a lost-update
/// race; compare_exchange is the closing-the-gap primitive.
class CheckThenActSink : public ScopeSink {
 public:
  CheckThenActSink(const SourceFile& file, const SymbolTable& table,
                   std::vector<Violation>& out)
      : file_(file), table_(table), out_(out) {}

  void on_identifier(std::size_t line, std::size_t col, std::string_view ident,
                     const WalkState& st) override {
    const std::string& code = file_.code[line];
    if (ident == "load" && st.statement_has_branch) {
      const std::string_view receiver = receiver_of(code, col);
      if (!receiver.empty() && table_.is_atomic(receiver)) {
        watches_.push_back({std::string(receiver), line, /*scope_depth=*/-1});
      }
      return;
    }
    const bool is_write =
        ident == "store" || ident == "exchange" || ident.starts_with("fetch_");
    if (!is_write || watches_.empty()) return;
    const std::string_view receiver = receiver_of(code, col);
    if (receiver.empty()) return;
    for (const auto& w : watches_) {
      if (w.atomic != receiver) continue;
      if (suppressed(file_, line, "atomics-misuse")) continue;
      out_.push_back({file_.path, line + 1, "atomics-misuse",
                      "check-then-act on atomic '" + w.atomic + "': loaded in a branch at line " +
                          std::to_string(w.load_line + 1) + " then written at line " +
                          std::to_string(line + 1) +
                          " — another thread can interleave; use compare_exchange"});
      break;
    }
  }

  void on_scope_open(const ScopeInfo& scope, const WalkState&) override {
    // The branch body adopts any watch armed by its condition.
    for (auto& w : watches_) {
      if (w.scope_depth < 0) w.scope_depth = scope.depth;
    }
  }

  void on_scope_close(const ScopeInfo& closing, std::size_t, const WalkState&) override {
    std::erase_if(watches_, [&](const Watch& w) { return w.scope_depth >= closing.depth; });
  }

  void on_statement_end(std::size_t, const WalkState&) override {
    // A watch never adopted by a scope was a single-statement branch body; it
    // dies with the statement.
    std::erase_if(watches_, [](const Watch& w) { return w.scope_depth < 0; });
  }

 private:
  struct Watch {
    std::string atomic;
    std::size_t load_line = 0;
    int scope_depth = -1;  // -1 until a scope adopts it
  };

  const SourceFile& file_;
  const SymbolTable& table_;
  std::vector<Violation>& out_;
  std::vector<Watch> watches_;
};

}  // namespace

std::vector<Violation> analyze(const std::vector<SourceFile>& files) {
  std::vector<Violation> out;

  // Symbol pass: per-file symbols feed guarded-mutex; the merged table feeds
  // the cross-file rules.
  std::vector<FileSymbols> per_file;
  per_file.reserve(files.size());
  SymbolTable table;
  for (const auto& file : files) {
    per_file.push_back(collect_symbols(file));
    table.absorb(per_file.back());
  }
  for (const auto& dup : table.conflicts()) {
    out.push_back({dup.file, dup.line + 1, "lock-order",
                   "Mutex name '" + dup.name +
                       "' is declared elsewhere with a different rank: mutex member names "
                       "must be globally unique so cross-file rank resolution is unambiguous"});
  }

  for (std::size_t f = 0; f < files.size(); ++f) {
    const SourceFile& file = files[f];

    for (std::size_t idx = 0; idx < file.code.size(); ++idx) {
      const std::string& code = file.code[idx];
      std::vector<Violation> line_hits;
      check_naked_unit_param(file, code, idx, line_hits);
      check_banned_random(file, code, idx, line_hits);
      check_nodiscard_result(file, code, idx, line_hits);
      check_raw_sync(file, code, idx, line_hits);
      check_raw_clock(file, code, idx, line_hits);
      check_raw_intrinsics(file, code, idx, line_hits);
      check_fp_determinism(file, code, idx, line_hits);
      check_atomics_lines(file, table, code, idx, line_hits);
      for (auto& v : line_hits) {
        if (!suppressed(file, idx, v.rule)) out.push_back(std::move(v));
      }
    }

    check_guarded_mutex(file, per_file[f], out);
    check_include_hygiene(file, out);

    LockOrderSink lock_order(file, table, out);
    walk_scopes(file.code, lock_order);
    WaitPredicateSink wait_predicate(file, table, out);
    walk_scopes(file.code, wait_predicate);
    CheckThenActSink check_then_act(file, table, out);
    walk_scopes(file.code, check_then_act);
  }

  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

}  // namespace evvo::lint
