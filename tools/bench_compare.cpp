// Benchmark-regression gate over Google-Benchmark JSON reports.
//
// Compares a candidate run against a committed baseline (BENCH_dp.json) and
// exits nonzero when any benchmark present in both regresses by more than
// --max-regress (default 10%), or when the candidate lacks a baseline entry
// (a deleted or renamed benchmark would otherwise stop being gated without
// a word). Used by the CI bench-gate job:
//
//   bench_perf --benchmark_format=json --benchmark_out=cand.json ...
//   bench_compare --baseline BENCH_dp.json --candidate cand.json --max-regress 0.10
//
// --filter SUBSTRING gates only the matching benchmarks; a filter that
// matches no baseline entry is a config error, never a vacuous pass. Only
// baseline entries inside the filter must appear in the candidate.
//
// Exit codes: 0 = within budget, 1 = regression, 2 = usage/parse/config error.
//
// Debug numbers must never be compared (that is how the original baseline
// went bad): files whose evvo_build context tag - written by bench_perf's
// custom main - says "debug" are refused unless --allow-debug. The
// library_build_type tag is NOT consulted: it describes the google-benchmark
// library's own build, not ours.
//
// Entries carry a unit class: the four time units normalize to ns, and
// "count" (histogram-sourced telemetry metrics, e.g. batch group sizes from
// evvo_load) is its own class. An unknown unit is a parse error and a
// baseline/candidate class mismatch a config error - malformed telemetry
// JSON must fail loudly, never gate as if it were nanoseconds.
//
// Dependency-free by design (like evvo_lint): a minimal JSON parser below
// covers the subset google-benchmark emits, so the gate builds everywhere.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace {

// --- minimal JSON ---------------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  const Json* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  std::optional<Json> parse() {
    std::optional<Json> v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  std::optional<Json> value() {
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return boolean();
    if (c == 'n') {
      if (!literal("null")) return std::nullopt;
      return Json{};
    }
    return number();
  }

  std::optional<Json> object() {
    if (!consume('{')) return std::nullopt;
    Json out;
    out.kind = Json::Kind::kObject;
    skip_ws();
    if (consume('}')) return out;
    while (true) {
      std::optional<Json> key = string_value();
      if (!key || !consume(':')) return std::nullopt;
      std::optional<Json> val = value();
      if (!val) return std::nullopt;
      out.fields.emplace(std::move(key->str), std::move(*val));
      if (consume(',')) continue;
      if (consume('}')) return out;
      return std::nullopt;
    }
  }

  std::optional<Json> array() {
    if (!consume('[')) return std::nullopt;
    Json out;
    out.kind = Json::Kind::kArray;
    skip_ws();
    if (consume(']')) return out;
    while (true) {
      std::optional<Json> val = value();
      if (!val) return std::nullopt;
      out.items.push_back(std::move(*val));
      if (consume(',')) continue;
      if (consume(']')) return out;
      return std::nullopt;
    }
  }

  std::optional<Json> string_value() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    Json out;
    out.kind = Json::Kind::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.str += '"'; break;
          case '\\': out.str += '\\'; break;
          case '/': out.str += '/'; break;
          case 'b': out.str += '\b'; break;
          case 'f': out.str += '\f'; break;
          case 'n': out.str += '\n'; break;
          case 'r': out.str += '\r'; break;
          case 't': out.str += '\t'; break;
          case 'u':
            // Benchmark names are ASCII; non-BMP fidelity is not needed here.
            if (pos_ + 4 > text_.size()) return std::nullopt;
            pos_ += 4;
            out.str += '?';
            break;
          default: return std::nullopt;
        }
      } else {
        out.str += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> boolean() {
    Json out;
    out.kind = Json::Kind::kBool;
    if (literal("true")) {
      out.boolean = true;
      return out;
    }
    if (literal("false")) return out;
    return std::nullopt;
  }

  std::optional<Json> number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) return std::nullopt;
    Json out;
    out.kind = Json::Kind::kNumber;
    try {
      out.number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return std::nullopt;
    }
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- benchmark report model -----------------------------------------------

struct BenchEntry {
  double time_ns = 0.0;  ///< normalized within its unit class (ns, or raw count)
  bool from_mean_aggregate = false;
  bool is_count = false;  ///< unit class: "count" vs time
};

struct BenchReport {
  std::string build_tag;  ///< context.evvo_build ("" when absent)
  std::map<std::string, BenchEntry> entries;  ///< base name -> preferred timing
};

/// Unit class and in-class scale. Time units normalize to ns; "count" is its
/// own class. Anything else is malformed input.
struct UnitInfo {
  double scale = 1.0;
  bool is_count = false;
};

std::optional<UnitInfo> parse_unit(const std::string& unit) {
  if (unit == "ns") return UnitInfo{1.0, false};
  if (unit == "us") return UnitInfo{1e3, false};
  if (unit == "ms") return UnitInfo{1e6, false};
  if (unit == "s") return UnitInfo{1e9, false};
  if (unit == "count") return UnitInfo{1.0, true};
  return std::nullopt;
}

std::string strip_suffix(const std::string& name, const char* suffix) {
  const std::size_t len = std::strlen(suffix);
  if (name.size() >= len && name.compare(name.size() - len, len, suffix) == 0) {
    return name.substr(0, name.size() - len);
  }
  return name;
}

/// Extracts per-benchmark timings from a parsed report. Mean aggregates win
/// over raw iteration entries of the same benchmark (repetition runs emit
/// both); other aggregates (median/stddev/cv) are ignored.
std::optional<BenchReport> extract_report(const Json& root, const std::string& metric) {
  BenchReport out;
  if (const Json* context = root.find("context")) {
    if (const Json* tag = context->find("evvo_build")) out.build_tag = tag->str;
  }
  const Json* benchmarks = root.find("benchmarks");
  if (!benchmarks || benchmarks->kind != Json::Kind::kArray) return std::nullopt;
  for (const Json& b : benchmarks->items) {
    const Json* name = b.find("name");
    const Json* time = b.find(metric);
    const Json* unit = b.find("time_unit");
    if (!name || !time || time->kind != Json::Kind::kNumber) continue;
    const Json* agg = b.find("aggregate_name");
    const bool is_aggregate = agg && agg->kind == Json::Kind::kString;
    if (is_aggregate && agg->str != "mean") continue;  // median/stddev/cv/...
    const std::string base =
        is_aggregate ? strip_suffix(name->str, "_mean") : name->str;
    UnitInfo ui;  // a missing time_unit means ns, benchmark's default
    if (unit) {
      const std::optional<UnitInfo> parsed = parse_unit(unit->str);
      if (!parsed) {
        std::fprintf(stderr, "bench_compare: %s has unrecognized time_unit \"%s\"\n",
                     name->str.c_str(), unit->str.c_str());
        return std::nullopt;
      }
      ui = *parsed;
    }
    BenchEntry& slot = out.entries[base];
    if (slot.from_mean_aggregate && !is_aggregate) continue;  // keep the mean
    slot.time_ns = time->number * ui.scale;
    slot.from_mean_aggregate = is_aggregate;
    slot.is_count = ui.is_count;
  }
  return out;
}

std::optional<BenchReport> load_report(const std::string& path, const std::string& metric) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::optional<Json> root = JsonParser(text).parse();
  if (!root) {
    std::fprintf(stderr, "bench_compare: %s is not valid JSON\n", path.c_str());
    return std::nullopt;
  }
  std::optional<BenchReport> report = extract_report(*root, metric);
  if (!report) {
    std::fprintf(stderr, "bench_compare: %s has no benchmarks array\n", path.c_str());
  }
  return report;
}

// --- comparison ------------------------------------------------------------

struct CompareOptions {
  double max_regress = 0.10;
  std::string filter;  ///< substring; empty = all
  bool allow_debug = false;
};

int check_build_tag(const BenchReport& report, const char* which, bool allow_debug) {
  if (report.build_tag == "debug" && !allow_debug) {
    std::fprintf(stderr,
                 "bench_compare: %s was recorded from a debug build (evvo_build=debug); "
                 "refusing to compare. Pass --allow-debug to override.\n",
                 which);
    return 2;
  }
  return 0;
}

int run_compare(const BenchReport& baseline, const BenchReport& candidate,
                const CompareOptions& opt) {
  if (const int rc = check_build_tag(baseline, "baseline", opt.allow_debug)) return rc;
  if (const int rc = check_build_tag(candidate, "candidate", opt.allow_debug)) return rc;

  std::size_t compared = 0;
  std::size_t regressions = 0;
  std::size_t filtered_baseline = 0;
  std::string missing;  ///< baseline entries the candidate lacks, comma-separated
  for (const auto& [name, base] : baseline.entries) {
    if (!opt.filter.empty() && name.find(opt.filter) == std::string::npos) continue;
    ++filtered_baseline;
    const auto it = candidate.entries.find(name);
    if (it == candidate.entries.end()) {
      missing += (missing.empty() ? "" : ", ") + name;
      continue;
    }
    if (base.is_count != it->second.is_count) {
      std::fprintf(stderr,
                   "bench_compare: %s is unit class \"%s\" in the baseline but \"%s\" in the "
                   "candidate - refusing to compare\n",
                   name.c_str(), base.is_count ? "count" : "ns",
                   it->second.is_count ? "count" : "ns");
      return 2;
    }
    ++compared;
    const double ratio = base.time_ns > 0.0 ? it->second.time_ns / base.time_ns : 1.0;
    const double delta_pct = (ratio - 1.0) * 100.0;
    const bool regressed = ratio > 1.0 + opt.max_regress;
    if (regressed) ++regressions;
    std::printf("%-48s %12.1f -> %12.1f %-5s %+7.1f%%%s\n", name.c_str(), base.time_ns,
                it->second.time_ns, base.is_count ? "count" : "ns", delta_pct,
                regressed ? "  REGRESSION" : "");
  }
  // Candidate benchmarks with no baseline entry are new (a benchmark added in
  // the same change that will record its baseline): reported for visibility,
  // never gated - there is no number to regress against.
  std::size_t fresh = 0;
  for (const auto& [name, cand] : candidate.entries) {
    if (!opt.filter.empty() && name.find(opt.filter) == std::string::npos) continue;
    if (baseline.entries.find(name) != baseline.entries.end()) continue;
    ++fresh;
    std::printf("%-48s %12s -> %12.1f %-5s NEW (no baseline)\n", name.c_str(), "-",
                cand.time_ns, cand.is_count ? "count" : "ns");
  }
  // Every gated baseline entry must have run: a missing one is a gate that
  // silently stopped gating. Drop it from the baseline in the same change.
  if (!missing.empty()) {
    std::fprintf(stderr, "bench_compare: baseline entries missing from the candidate: %s\n",
                 missing.c_str());
    return 2;
  }
  // A filter names the benchmarks a gate is for: when the baseline holds
  // none of them the gate would compare nothing and pass, so it is an error.
  if (!opt.filter.empty() && filtered_baseline == 0) {
    std::fprintf(stderr,
                 "bench_compare: no baseline entry matches filter %s - nothing gated\n",
                 opt.filter.c_str());
    return 2;
  }
  if (compared == 0 && fresh == 0) {
    std::fprintf(stderr,
                 "bench_compare: no benchmark appears in either report%s%s - nothing gated\n",
                 opt.filter.empty() ? "" : " under filter ",
                 opt.filter.c_str());
    return 2;
  }
  std::printf("%zu benchmark(s) compared, %zu new, %zu regression(s) beyond %.0f%%\n", compared,
              fresh, regressions, opt.max_regress * 100.0);
  return regressions == 0 ? 0 : 1;
}

// --- self-test --------------------------------------------------------------

std::string report_json(const char* build, const char* name, double time, const char* unit) {
  std::ostringstream out;
  out << R"({"context": {"evvo_build": ")" << build << R"("}, "benchmarks": [)"
      << R"({"name": ")" << name << R"(", "run_type": "iteration", "cpu_time": )" << time
      << R"(, "real_time": )" << time << R"(, "time_unit": ")" << unit << R"("}]})";
  return out.str();
}

int self_test() {
  int failures = 0;
  const auto expect = [&failures](bool ok, const char* what) {
    if (!ok) {
      ++failures;
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
    } else {
      std::printf("self-test ok: %s\n", what);
    }
  };
  const auto parse = [](const std::string& text, const char* metric) {
    std::optional<Json> root = JsonParser(text).parse();
    return extract_report(*root, metric);
  };
  CompareOptions opt;

  // Equal timings pass the gate.
  const auto base = parse(report_json("release", "BM_X/10", 100.0, "ns"), "cpu_time");
  const auto same = parse(report_json("release", "BM_X/10", 100.0, "ns"), "cpu_time");
  expect(run_compare(*base, *same, opt) == 0, "identical reports pass");

  // A 15% injected regression trips the 10% gate.
  const auto slow = parse(report_json("release", "BM_X/10", 115.0, "ns"), "cpu_time");
  expect(run_compare(*base, *slow, opt) == 1, "injected 15% regression fails");

  // 8% stays under the default threshold.
  const auto mild = parse(report_json("release", "BM_X/10", 108.0, "ns"), "cpu_time");
  expect(run_compare(*base, *mild, opt) == 0, "8% drift passes the 10% gate");

  // Debug-tagged reports are refused (and admitted with --allow-debug).
  const auto dbg = parse(report_json("debug", "BM_X/10", 100.0, "ns"), "cpu_time");
  expect(run_compare(*base, *dbg, opt) == 2, "debug candidate refused");
  CompareOptions permissive = opt;
  permissive.allow_debug = true;
  expect(run_compare(*base, *dbg, permissive) == 0, "--allow-debug admits debug numbers");

  // Units are normalized before comparing: 0.0001 ms == 100 ns.
  const auto ms = parse(report_json("release", "BM_X/10", 0.0001, "ms"), "cpu_time");
  expect(run_compare(*base, *ms, opt) == 0, "ms vs ns reports normalize");

  // Count-class entries (histogram-sourced telemetry metrics, e.g. batch
  // group sizes) gate like any other, within their own unit class.
  const auto cbase = parse(report_json("release", "BM_Load/batch", 32.0, "count"), "cpu_time");
  const auto csame = parse(report_json("release", "BM_Load/batch", 32.0, "count"), "cpu_time");
  expect(run_compare(*cbase, *csame, opt) == 0, "count-unit entries pass");
  const auto cgrow = parse(report_json("release", "BM_Load/batch", 40.0, "count"), "cpu_time");
  expect(run_compare(*cbase, *cgrow, opt) == 1, "count regression trips the gate");

  // A ns-vs-count class mismatch is a config error, not a silent ratio.
  const auto mismatched = parse(report_json("release", "BM_X/10", 100.0, "count"), "cpu_time");
  expect(run_compare(*base, *mismatched, opt) == 2, "unit-class mismatch refused");

  // An unknown unit is a parse error: malformed telemetry JSON fails loudly.
  const auto bogus = parse(report_json("release", "BM_X/10", 100.0, "furlongs"), "cpu_time");
  expect(!bogus.has_value(), "unknown unit rejected at parse");

  // Mean aggregates beat raw iteration entries of the same benchmark.
  const std::string agg = R"({"context": {"evvo_build": "release"}, "benchmarks": [
    {"name": "BM_X/10", "run_type": "iteration", "cpu_time": 500.0, "time_unit": "ns"},
    {"name": "BM_X/10_mean", "run_type": "aggregate", "aggregate_name": "mean",
     "cpu_time": 100.0, "time_unit": "ns"},
    {"name": "BM_X/10_stddev", "run_type": "aggregate", "aggregate_name": "stddev",
     "cpu_time": 3.0, "time_unit": "ns"}]})";
  const auto agg_report = parse(agg, "cpu_time");
  expect(agg_report->entries.size() == 1 &&
             agg_report->entries.at("BM_X/10").time_ns == 100.0,
         "mean aggregate preferred over iteration entry");

  // A candidate-only benchmark is "new": reported, never gated, and it does
  // not mask a real regression elsewhere in the same report.
  const std::string grown = R"({"context": {"evvo_build": "release"}, "benchmarks": [
    {"name": "BM_X/10", "run_type": "iteration", "cpu_time": 100.0, "time_unit": "ns"},
    {"name": "BM_New/1", "run_type": "iteration", "cpu_time": 42.0, "time_unit": "ns"}]})";
  const auto grown_report = parse(grown, "cpu_time");
  expect(run_compare(*base, *grown_report, opt) == 0, "new benchmark passes alongside baseline");
  const std::string grown_slow = R"({"context": {"evvo_build": "release"}, "benchmarks": [
    {"name": "BM_X/10", "run_type": "iteration", "cpu_time": 130.0, "time_unit": "ns"},
    {"name": "BM_New/1", "run_type": "iteration", "cpu_time": 42.0, "time_unit": "ns"}]})";
  const auto grown_slow_report = parse(grown_slow, "cpu_time");
  expect(run_compare(*base, *grown_slow_report, opt) == 1,
         "new benchmark does not mask a regression");

  // A baseline entry the candidate lacks is refused, even when the candidate
  // brings new entries; under --filter only the entries inside it count.
  const auto other = parse(report_json("release", "BM_Y/1", 100.0, "ns"), "cpu_time");
  expect(run_compare(*base, *other, opt) == 2, "candidate missing a baseline entry refused");
  const std::string two = R"({"context": {"evvo_build": "release"}, "benchmarks": [
    {"name": "BM_X/10", "run_type": "iteration", "cpu_time": 100.0, "time_unit": "ns"},
    {"name": "BM_Z/1", "run_type": "iteration", "cpu_time": 50.0, "time_unit": "ns"}]})";
  const auto two_report = parse(two, "cpu_time");
  expect(run_compare(*two_report, *same, opt) == 2,
         "baseline entry missing from the candidate refused");
  CompareOptions only_x = opt;
  only_x.filter = "BM_X";
  expect(run_compare(*two_report, *same, only_x) == 0,
         "baseline entry outside --filter may be missing");

  // A filter that matches no baseline entry gates nothing: refused, even
  // when the candidate has matching (new) entries.
  CompareOptions filtered = opt;
  filtered.filter = "BM_Y";
  expect(run_compare(*base, *other, filtered) == 2, "filter matching no baseline entry refused");
  filtered.filter = "BM_X";
  expect(run_compare(*base, *same, filtered) == 0, "filter matching a baseline entry gates it");

  // Two reports with nothing in them at all still flag a config error.
  const std::string empty_report =
      R"({"context": {"evvo_build": "release"}, "benchmarks": []})";
  const auto none = parse(empty_report, "cpu_time");
  expect(run_compare(*none, *none, opt) == 2, "empty reports are an error");

  if (failures == 0) std::printf("bench_compare self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_compare --baseline FILE --candidate FILE\n"
               "         [--max-regress FRACTION]   regression budget (default 0.10)\n"
               "         [--metric cpu_time|real_time]  (default cpu_time)\n"
               "         [--filter SUBSTRING]       gate only matching benchmarks (exit 2\n"
               "                                    when no baseline entry matches)\n"
               "         [--allow-debug]            admit evvo_build=debug reports\n"
               "       bench_compare --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string candidate_path;
  std::string metric = "cpu_time";
  CompareOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--self-test") return self_test();
    if (arg == "--baseline") {
      const char* v = next();
      if (!v) return usage();
      baseline_path = v;
    } else if (arg == "--candidate") {
      const char* v = next();
      if (!v) return usage();
      candidate_path = v;
    } else if (arg == "--max-regress") {
      const char* v = next();
      if (!v) return usage();
      opt.max_regress = std::strtod(v, nullptr);
      if (opt.max_regress <= 0.0) {
        std::fprintf(stderr, "bench_compare: --max-regress must be positive\n");
        return 2;
      }
    } else if (arg == "--metric") {
      const char* v = next();
      if (!v || (std::strcmp(v, "cpu_time") != 0 && std::strcmp(v, "real_time") != 0)) {
        return usage();
      }
      metric = v;
    } else if (arg == "--filter") {
      const char* v = next();
      if (!v) return usage();
      opt.filter = v;
    } else if (arg == "--allow-debug") {
      opt.allow_debug = true;
    } else {
      return usage();
    }
  }
  if (baseline_path.empty() || candidate_path.empty()) return usage();

  const std::optional<BenchReport> baseline = load_report(baseline_path, metric);
  if (!baseline) return 2;
  const std::optional<BenchReport> candidate = load_report(candidate_path, metric);
  if (!candidate) return 2;
  return run_compare(*baseline, *candidate, opt);
}
