// Corridor sharding for the vehicular-cloud plan service.
//
// A fleet workload partitions naturally by corridor and signal-timing epoch:
// requests cluster on hot corridors, and within a corridor on the departure
// phase bins of its signal hyperperiod. The shard router maps the full cache
// identity of a request - (route content hash, phase bin, demand bin, replan
// layer, velocity level) - onto one of N shards with a pure integer mix, so
//  - the same identity always lands on the same shard: single-flight dedup
//    stays global even though every shard has its own lock, and
//  - the mapping depends on nothing but the key's value (no pointers, no
//    std::hash, no per-process salt), so it is stable across processes and
//    rebuilds and usable as a cross-process routing contract.
#pragma once

#include <cstddef>
#include <cstdint>

#include "road/corridor.hpp"

namespace evvo::cloud {

/// The value identity of a cached plan, as seen by the shard router. Layer
/// and velocity level are -1 for full-trip plans (the same sentinel
/// PlanService uses, so routing and caching quantize identically).
struct ShardKey {
  std::uint64_t route_hash = 0;
  long phase_bin = 0;
  long demand_bin = 0;
  long layer = -1;
  long vlevel = -1;

  bool operator==(const ShardKey&) const = default;
};

/// splitmix64 finalizer: the standard invertible 64-bit mix. Chosen over
/// std::hash because its output is pinned by the algorithm, not the standard
/// library - the routing tests bake expected shard indices as constants.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Order-sensitive mix of every key field. Two keys differing in any single
/// field (route, epoch, or replan state) land on independent mixes.
constexpr std::uint64_t shard_mix(const ShardKey& key) {
  std::uint64_t h = mix64(key.route_hash);
  h = mix64(h ^ static_cast<std::uint64_t>(key.phase_bin));
  h = mix64(h ^ static_cast<std::uint64_t>(key.demand_bin));
  h = mix64(h ^ static_cast<std::uint64_t>(key.layer));
  h = mix64(h ^ static_cast<std::uint64_t>(key.vlevel));
  return h;
}

/// The shard a key routes to. Total over n_shards >= 1; n_shards = 1 is the
/// degenerate single-shard (single-mutex) layout.
constexpr std::size_t shard_index(const ShardKey& key, std::size_t n_shards) {
  return n_shards <= 1 ? 0 : static_cast<std::size_t>(shard_mix(key) % n_shards);
}

/// Content hash of a whole corridor: the route segments plus every
/// regulatory element (lights with their timing, stop signs). Two services
/// built over byte-identical corridors agree on it, which is what makes the
/// shard mapping a contract between processes rather than an implementation
/// detail of one.
std::uint64_t hash_corridor(const road::Corridor& corridor);

}  // namespace evvo::cloud
