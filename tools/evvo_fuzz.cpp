// Scenario-fuzz driver for the correctness harness (src/check).
//
// Generates seed-reproducible scenarios, runs the full invariant battery on
// each (differential oracle, kernel identity, pruning, feasibility, window
// compliance, energy accounting, microsim replay), shrinks any failure to a
// minimal spec, and prints a one-line replay command. Exits nonzero when any
// scenario violates an invariant.
//
//   evvo_fuzz --count 200               # fuzz 200 seeded scenarios
//   evvo_fuzz --seed 41                 # re-run exactly one scenario
//   evvo_fuzz --inject window-shift     # prove the harness catches a fault
//   evvo_fuzz --replay-spec bad.spec    # re-check a shrunk spec file
//   evvo_fuzz --simd-only --count 100   # cheap every-kernel identity sweep
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "common/clock.hpp"
#include "core/dp_solver.hpp"

namespace {

struct Options {
  std::size_t count = 50;
  std::uint64_t seed_start = 1;
  std::optional<std::uint64_t> single_seed;
  unsigned jobs = 0;  // 0 = half the hardware threads
  bool shrink = true;
  bool replay = true;
  bool reference = true;
  bool simd_only = false;  ///< strip everything but the kernel-identity oracle
  std::string inject = "none";
  std::string replay_spec;  // path: check this spec instead of generating
  std::string spec_out;     // path: write the (shrunk) failing spec here
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--count N] [--seed N] [--seed-start N] [--jobs N]\n"
               "          [--inject none|window-shift|accel-tamper|energy-tamper|cost-tamper]\n"
               "          [--replay-spec FILE] [--spec-out FILE] [--no-shrink] [--no-replay]\n"
               "          [--no-reference] [--simd-only]\n",
               argv0);
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--count") {
      const char* v = next();
      if (!v) return false;
      opt.count = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      opt.single_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed-start") {
      const char* v = next();
      if (!v) return false;
      opt.seed_start = std::strtoull(v, nullptr, 10);
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return false;
      opt.jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--inject") {
      const char* v = next();
      if (!v) return false;
      opt.inject = v;
    } else if (arg == "--replay-spec") {
      const char* v = next();
      if (!v) return false;
      opt.replay_spec = v;
    } else if (arg == "--spec-out") {
      const char* v = next();
      if (!v) return false;
      opt.spec_out = v;
    } else if (arg == "--no-shrink") {
      opt.shrink = false;
    } else if (arg == "--no-replay") {
      opt.replay = false;
    } else if (arg == "--no-reference") {
      opt.reference = false;
    } else if (arg == "--simd-only") {
      opt.simd_only = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage(argv[0]);

  evvo::check::CheckOptions check;
  try {
    check.inject = evvo::check::fault_from_name(opt.inject);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage(argv[0]);
  }
  check.run_replay = opt.replay;
  check.run_reference = opt.reference;
  if (opt.simd_only) {
    // Kernel-identity sweep (scalar scan vs every vector kernel the build
    // and CPU offer): skip the expensive oracles so many scenarios fit in a
    // CI timeslot. The pruned, feasibility, compliance, and energy
    // invariants still run - they are byproducts of the solves the identity
    // check needs anyway.
    check.run_reference = false;
    check.run_replay = false;
  }

  const auto handle_failure = [&](const evvo::check::ScenarioSpec& spec,
                                  const evvo::check::CheckReport& report) {
    std::fprintf(stderr, "%s", evvo::check::report_to_string(report).c_str());
    evvo::check::ScenarioSpec final_spec = spec;
    if (opt.shrink) {
      const evvo::check::ShrinkResult shrunk = evvo::check::shrink_failure(spec, check);
      if (shrunk.changed) {
        std::fprintf(stderr, "shrunk (%zu checks, invariant %s):\n%s", shrunk.checks_run,
                     shrunk.invariant.c_str(), evvo::check::spec_to_text(shrunk.spec).c_str());
        final_spec = shrunk.spec;
      }
    }
    if (!opt.spec_out.empty()) {
      evvo::check::save_spec(opt.spec_out, final_spec);
      std::fprintf(stderr, "spec written to %s\n", opt.spec_out.c_str());
    }
    if (spec.seed != 0) {
      std::fprintf(stderr, "replay: evvo_fuzz --seed %llu%s%s\n",
                   static_cast<unsigned long long>(spec.seed),
                   check.inject == evvo::check::Fault::kNone ? "" : " --inject ",
                   check.inject == evvo::check::Fault::kNone
                       ? ""
                       : evvo::check::fault_name(check.inject));
    } else if (!opt.spec_out.empty()) {
      std::fprintf(stderr, "replay: evvo_fuzz --replay-spec %s\n", opt.spec_out.c_str());
    }
  };

  const std::uint64_t t_begin = evvo::common::now_ns();

  // --replay-spec / --seed: single scenario, verbose.
  if (!opt.replay_spec.empty() || opt.single_seed) {
    evvo::check::ScenarioSpec spec;
    try {
      spec = !opt.replay_spec.empty() ? evvo::check::load_spec(opt.replay_spec)
                                      : evvo::check::generate_scenario(*opt.single_seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot load scenario: %s\n", e.what());
      return 2;
    }
    const evvo::check::CheckReport report = evvo::check::check_scenario(spec, check);
    if (!report.ok()) {
      handle_failure(spec, report);
      return 1;
    }
    std::printf("%s", evvo::check::report_to_string(report).c_str());
    return 0;
  }

  // Fuzz run: `jobs` workers each take the next scenario index from one
  // counter and check whole scenarios; every solve runs on its worker.
  const unsigned jobs = std::max(1u, opt.jobs ? opt.jobs : std::thread::hardware_concurrency() / 2);

  std::atomic<std::size_t> next_index{0};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> infeasible{0};
  std::mutex io_mutex;
  std::exception_ptr first_error;  // guarded by io_mutex; rethrown after the join
  const auto worker = [&] {
    try {
      for (std::size_t index = next_index.fetch_add(1, std::memory_order_relaxed);
           index < opt.count; index = next_index.fetch_add(1, std::memory_order_relaxed)) {
        const std::uint64_t seed = opt.seed_start + index;
        const evvo::check::ScenarioSpec spec = evvo::check::generate_scenario(seed);
        const evvo::check::CheckReport report = evvo::check::check_scenario(spec, check);
        if (!report.feasible) infeasible.fetch_add(1, std::memory_order_relaxed);
        if (report.ok()) continue;
        failures.fetch_add(1, std::memory_order_relaxed);
        const std::lock_guard<std::mutex> lock(io_mutex);
        handle_failure(spec, report);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(io_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> workers;
    for (unsigned w = 0; w < std::min<std::size_t>(jobs, opt.count); ++w)
      workers.emplace_back(worker);
  }  // joined here
  if (first_error) std::rethrow_exception(first_error);

  const double elapsed_s = evvo::common::seconds_between_ns(t_begin, evvo::common::now_ns());
  std::printf("%zu scenario(s) checked in %.1f s (%zu infeasible), %zu violation(s)\n", opt.count,
              elapsed_s, infeasible.load(), failures.load());
  if (check.run_simd_identity) {
    std::string kernels;
    for (const evvo::core::detail::DpKernelInfo& k : evvo::core::detail::dp_kernels())
      kernels += std::string(kernels.empty() ? "" : ", ") + k.name;
    std::printf("relaxation kernels compared: %s\n", kernels.c_str());
  }
  return failures.load() == 0 ? 0 : 1;
}
