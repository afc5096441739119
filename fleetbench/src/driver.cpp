#include "driver.hpp"

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <mutex>
#include <optional>
#include <thread>

#include "common/clock.hpp"
#include "common/telemetry.hpp"

namespace evvo::fleetbench {

namespace {

constexpr std::uint64_t kQueueSampleNs = 2'000'000;

struct Spans {
  telemetry::Histogram& call = telemetry::histogram("bench.call_ns");
  telemetry::Histogram& call_size = telemetry::histogram("bench.call_batch_size", telemetry::Unit::kCount);
  telemetry::Histogram& materialize = telemetry::histogram("bench.materialize_ns");
};

Spans& spans() {
  static Spans s;
  return s;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One dispatch plus the materialize of each served plan. Fills `records`
/// (parallel to `batch`) except latency, the served plans, and each
/// request's completion time; returns the CPU seconds this thread spent.
double dispatch(const ServeFn& serve, std::span<const Request> batch, bool traced,
                std::span<RequestRecord> records, std::vector<std::optional<core::PlannedProfile>>& plans,
                std::span<std::uint64_t> done_ns) {
  const double cpu_start = thread_cpu_s();
  plans.assign(batch.size(), std::nullopt);
  std::vector<Outcome> outcomes;
  if (traced) {
    spans().call_size.record(batch.size());
    const telemetry::TraceSpan span(spans().call, "bench.call");
    outcomes = serve(batch);
  } else {
    outcomes = serve(batch);
  }
  for (std::size_t k = 0; k < batch.size(); ++k) {
    RequestRecord& rec = records[k];
    rec.request = batch[k];
    rec.ok = outcomes[k].ok;
    rec.ticket = std::move(outcomes[k].ticket);
    if (rec.ok && rec.ticket.reference) {
      std::optional<core::PlannedProfile>& plan = plans[k];
      if (traced) {
        const telemetry::TraceSpan span(spans().materialize, "bench.materialize");
        plan.emplace(rec.ticket.materialize());
      } else {
        plan.emplace(rec.ticket.materialize());
      }
      rec.energy_mah = plan->total_energy_mah();
      rec.trip_time_s = plan->trip_time();
      rec.length_m = plan->length();
    }
    done_ns[k] = common::now_ns();
  }
  return thread_cpu_s() - cpu_start;
}

/// Pins the calling thread to the `index`-th CPU this process may use
/// (wrapping), so each load thread keeps its caches instead of migrating.
/// Returns the affinity the thread had, for unpin().
cpu_set_t pin_to_cpu(unsigned index) {
  cpu_set_t before;
  CPU_ZERO(&before);
  pthread_getaffinity_np(pthread_self(), sizeof(before), &before);
  const int n = CPU_COUNT(&before);
  if (n <= 0) return before;
  int seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &before)) continue;
    if (seen++ == static_cast<int>(index % static_cast<unsigned>(n))) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      break;
    }
  }
  return before;
}

void unpin(const cpu_set_t& affinity) {
  pthread_setaffinity_np(pthread_self(), sizeof(affinity), &affinity);
}

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spins until the deadline. Sleeping on a timer would be cheaper, but on
/// a virtual CPU the wake-up lands tens of microseconds late and now and
/// then milliseconds late, which would swamp the latency of a cache hit.
void wait_until_ns(std::uint64_t deadline_ns) {
  while (common::now_ns() < deadline_ns) cpu_relax();
}

}  // namespace

RunResult run_open_loop(std::span<const TimedRequest> stream, const ServeFn& serve,
                        const DriveOptions& options) {
  RunResult result;
  result.records.resize(stream.size());
  result.generator_lag_ns.resize(stream.size());
  std::vector<std::uint64_t> due_ns(stream.size());

  // Requests [0, queued) have been queued and [0, head) claimed. Clients
  // poll rather than block: waking a parked thread costs tens of
  // microseconds on a virtual CPU, more than a cache hit itself. Polling is
  // not service work, so cpu_s counts only the time inside dispatches.
  // Client c claims only while clients 0..c-1 are all busy: hits go to the
  // lowest free client, whose caches hold the hot plans, instead of moving
  // between cores with every request.
  std::atomic<std::size_t> queued{0};
  std::atomic<std::size_t> head{0};
  std::atomic<unsigned> busy{0};  // bit c: client c is inside a dispatch
  std::atomic<bool> closed{false};
  std::mutex cpu_mutex;

  const auto client = [&](unsigned c) {
    pin_to_cpu(c + 1);
    const unsigned lower = (1u << c) - 1;
    std::vector<Request> batch;
    std::vector<std::optional<core::PlannedProfile>> plans;
    std::vector<std::uint64_t> done(options.max_batch);
    double cpu_s = 0.0;
    for (;;) {
      std::size_t begin = head.load(std::memory_order_acquire);
      const std::size_t available = queued.load(std::memory_order_acquire);
      if (begin == available) {
        if (closed.load(std::memory_order_acquire) && head.load() == queued.load()) break;
        cpu_relax();
        continue;
      }
      if ((busy.load(std::memory_order_acquire) & lower) != lower) {
        cpu_relax();
        continue;
      }
      const std::size_t end = std::min(available, begin + options.max_batch);
      if (!head.compare_exchange_weak(begin, end, std::memory_order_acq_rel)) continue;
      busy.fetch_or(1u << c, std::memory_order_acq_rel);
      batch.clear();
      for (std::size_t i = begin; i < end; ++i) batch.push_back(stream[i].request);
      cpu_s += dispatch(serve, batch, options.traced,
                        std::span(result.records).subspan(begin, end - begin), plans, done);
      for (std::size_t i = begin; i < end; ++i) {
        result.records[i].start_ns = due_ns[i];
        result.records[i].latency_ns = done[i - begin] - due_ns[i];
      }
      busy.fetch_and(~(1u << c), std::memory_order_acq_rel);
    }
    const std::lock_guard lock(cpu_mutex);
    result.cpu_s += cpu_s;
  };

  std::vector<std::thread> clients;
  for (unsigned c = 0; c < options.clients; ++c) clients.emplace_back(client, c);
  const cpu_set_t affinity = pin_to_cpu(0);

  const std::uint64_t start = common::now_ns() + 2'000'000;  // clients are polling by then
  std::uint64_t next_sample = start;
  for (std::size_t i = 0, end = 0; i < stream.size(); i = end) {
    // Requests due at the same instant (a platoon) are queued together, so
    // one client can take them as one dispatch.
    for (end = i + 1; end < stream.size() && stream[end].due_s == stream[i].due_s;) ++end;
    const std::uint64_t due = start + static_cast<std::uint64_t>(std::llround(stream[i].due_s * 1e9));
    wait_until_ns(due);
    const std::uint64_t now = common::now_ns();
    for (std::size_t k = i; k < end; ++k) {
      due_ns[k] = due;
      result.generator_lag_ns[k] = now - due;
    }
    queued.store(end, std::memory_order_release);
    result.backlog_max = std::max(result.backlog_max, end - head.load(std::memory_order_relaxed));
    if (options.traced && options.queue_depth && now >= next_sample) {
      result.queue_depth_max = std::max(result.queue_depth_max, options.queue_depth());
      next_sample = now + kQueueSampleNs;
    }
  }
  closed.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  unpin(affinity);
  result.wall_s = common::seconds_between_ns(start, common::now_ns());
  return result;
}

namespace {

constexpr int kFleetStartHour = 31;  // Tuesday 07:00 of the forecast week

/// Departure phase [s into the 60 s signal cycle] of a cohort's trip. Every
/// (cohort, trip) pair gets its own phase, so a departure never lands on
/// another trip's cached plan: how often it would otherwise depends on the
/// seed, and so would the fleet's hit ratio and pace.
double departure_phase(unsigned cohort, int trip, unsigned cohorts) {
  return 1.0 + static_cast<double>((7 * (cohort + cohorts * static_cast<unsigned>(trip))) % 58);
}

/// How far into its first trip a cohort joins the window: a whole number of
/// replan intervals, 1 to 15, a different one for each of up to 15 cohorts.
/// Staggered cohorts spread the fleet over trip phases, so a window holds a
/// steady mix of long (early) and short (late) suffix solves instead of every
/// cohort's first trip at once; fixed rather than drawn, so the mix does not
/// move with the seed.
double first_skip_s(const FleetPlan& fleet, unsigned cohort) {
  return fleet.replan_interval_s * static_cast<double>(1 + (7 * cohort) % 15);
}

/// Integer rest between a cohort's trips, agreed by every member.
int rest_s(std::uint64_t seed, unsigned cohort, int trip) {
  Rng rng(seed * 1'000'003ull + cohort * 1'009ull + static_cast<std::uint64_t>(trip));
  return rng.uniform_int(20, 60);
}

struct Vehicle {
  unsigned cohort = 0;
  int id = 0;
  int trip = 0;
  double base_s = 0.0;    ///< the cohort's schedule: whole seconds
  double jitter_s = 0.0;  ///< this member's offset from it, inside the phase bin
  double skip_s = 0.0;    ///< logical time to the next request
  bool need_plan = true;
  std::optional<core::PlannedProfile> plan;

  double clock_s() const { return base_s + jitter_s; }  ///< time of the next request
};

}  // namespace

/// Cohort of the vehicle in client `k`'s slot `c`. A cohort's members share
/// a client and sit in consecutive slots: the first asks for a key and
/// solves it, the others ask next and hit the cache. Cohorts never span
/// clients, so clients do not wait on each other's solves and the fleet's
/// pace does not hang on how their schedules happen to interleave.
unsigned cohort_of(const FleetPlan& fleet, unsigned k, unsigned c) {
  const unsigned cohorts_per_client = fleet.vehicles_per_client / fleet.cohort_per_client;
  return k * cohorts_per_client + c / fleet.cohort_per_client;
}

std::vector<Request> fleet_departures(const FleetPlan& fleet, unsigned clients) {
  Rng rng(fleet.seed * 0x9E3779B97F4A7C15ULL + 29);
  const unsigned n = fleet.vehicles_per_client;
  const unsigned cohorts = clients * n / fleet.cohort_per_client;
  std::vector<double> cohort_depart(cohorts);
  for (unsigned c = 0; c < cohorts; ++c) {
    cohort_depart[c] = 3600.0 * kFleetStartHour + 60.0 * rng.uniform_int(0, 30) +
                       departure_phase(c, 0, cohorts);
  }
  std::vector<Request> out;
  for (unsigned k = 0; k < clients; ++k) {
    for (unsigned c = 0; c < n; ++c) {
      const int id = static_cast<int>(k * n + c);
      out.push_back(Request{false, id, cohort_depart[cohort_of(fleet, k, c)] + rng.uniform(-0.3, 0.3),
                            0.0, 0.0});
    }
  }
  return out;
}

RunResult run_closed_loop(const FleetPlan& fleet, const ServeFn& serve,
                          const DriveOptions& options) {
  const std::vector<Request> departures = fleet_departures(fleet, options.clients);
  std::vector<std::vector<RequestRecord>> per_client(options.clients);
  std::vector<double> cpu_s(options.clients, 0.0);
  const std::uint64_t start = common::now_ns();
  const std::uint64_t deadline = start + static_cast<std::uint64_t>(fleet.seconds * 1e9);

  const unsigned cohorts = options.clients * fleet.vehicles_per_client / fleet.cohort_per_client;
  const auto client = [&](unsigned k) {
    pin_to_cpu(k + 1);
    const unsigned n = fleet.vehicles_per_client;
    std::vector<Vehicle> vehicles(n);
    for (unsigned c = 0; c < n; ++c) {
      const Request& d = departures[k * n + c];
      vehicles[c].cohort = cohort_of(fleet, k, c);
      vehicles[c].id = d.vehicle;
      vehicles[c].base_s = std::round(d.time_s);
      vehicles[c].jitter_s = d.time_s - vehicles[c].base_s;
      vehicles[c].skip_s = first_skip_s(fleet, vehicles[c].cohort);
    }
    std::vector<std::optional<core::PlannedProfile>> plans;
    std::uint64_t done = 0;
    std::vector<RequestRecord>& records = per_client[k];
    for (std::size_t turn = 0; common::now_ns() < deadline; ++turn) {
      Vehicle& v = vehicles[turn % n];
      Request request{false, v.id, v.clock_s(), 0.0, 0.0};
      if (!v.need_plan) {
        const VehicleState s = state_at(*v.plan, v.clock_s());
        request = Request{true, v.id, v.clock_s(), s.position_m, s.speed_ms};
      }
      RequestRecord& rec = records.emplace_back();
      const std::uint64_t sent = common::now_ns();
      cpu_s[k] += dispatch(serve, std::span(&request, 1), options.traced, std::span(&rec, 1), plans,
                           std::span(&done, 1));
      rec.start_ns = sent;
      rec.latency_ns = done - sent;
      if (plans[0]) {
        v.plan = std::move(plans[0]);
        v.need_plan = false;
      }
      if (!v.plan) continue;  // a failed first request asks again next turn
      // Advance along the served plan; a vehicle within one grid step of the
      // end has arrived, rests, and departs on its next trip at its cohort's
      // next phase. Members compute the same schedule: their plans are one
      // reference shifted by their jitter.
      const double next = v.clock_s() + v.skip_s;
      const VehicleState s = state_at(*v.plan, next);
      if (next >= v.plan->arrival_time() || s.position_m > v.plan->nodes().back().position_m - 15.0) {
        const double ready = v.base_s + std::ceil(v.plan->arrival_time() - v.clock_s()) +
                             rest_s(fleet.seed, v.cohort, v.trip);
        const double phase = departure_phase(v.cohort, ++v.trip, cohorts);
        v.base_s = 60.0 * std::ceil((ready - phase) / 60.0) + phase;
        v.need_plan = true;
        v.plan.reset();
      } else {
        v.base_s += v.skip_s;
        v.skip_s = fleet.replan_interval_s;
      }
    }
  };

  RunResult result;
  std::vector<std::thread> clients;
  for (unsigned k = 0; k < options.clients; ++k) clients.emplace_back(client, k);
  if (options.traced && options.queue_depth) {
    while (common::now_ns() < deadline) {
      result.queue_depth_max = std::max(result.queue_depth_max, options.queue_depth());
      std::this_thread::sleep_for(std::chrono::nanoseconds(kQueueSampleNs));
    }
  }
  for (std::thread& t : clients) t.join();
  result.wall_s = common::seconds_between_ns(start, common::now_ns());
  for (double c : cpu_s) result.cpu_s += c;
  for (std::vector<RequestRecord>& records : per_client) {
    for (RequestRecord& rec : records) result.records.push_back(std::move(rec));
  }
  return result;
}

RunResult run_split(std::span<const Request> requests, const ServeFn& serve, unsigned parts,
                    std::size_t max_batch) {
  RunResult result;
  result.records.resize(requests.size());
  const std::size_t chunk = (requests.size() + parts - 1) / std::max(1u, parts);
  const std::uint64_t start = common::now_ns();
  const auto part = [&](std::size_t first) {
    const std::size_t last = std::min(requests.size(), first + chunk);
    std::vector<std::optional<core::PlannedProfile>> plans;
    std::vector<std::uint64_t> done(max_batch);
    for (std::size_t begin = first; begin < last; begin += max_batch) {
      const std::size_t end = std::min(last, begin + max_batch);
      dispatch(serve, requests.subspan(begin, end - begin), false,
               std::span(result.records).subspan(begin, end - begin), plans, done);
      for (std::size_t i = begin; i < end; ++i) {
        result.records[i].start_ns = start;
        result.records[i].latency_ns = done[i - begin] - start;
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t first = chunk; first < requests.size(); first += chunk) threads.emplace_back(part, first);
  if (!requests.empty()) part(0);
  for (std::thread& t : threads) t.join();
  result.wall_s = common::seconds_between_ns(start, common::now_ns());
  return result;
}

}  // namespace evvo::fleetbench
