#include "cloud/shard.hpp"

#include <cstring>

#include "core/dp_common.hpp"

namespace evvo::cloud {

namespace {

/// FNV-1a continuation over a double's bit pattern, matching the byte order
/// core::detail::hash_route uses so corridor hashes extend route hashes.
std::uint64_t fnv_mix(std::uint64_t h, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (bits >> (8 * byte)) & 0xFFu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::uint64_t hash_corridor(const road::Corridor& corridor) {
  std::uint64_t h = core::detail::hash_route(corridor.route);
  for (const road::TrafficLight& light : corridor.lights) {
    h = fnv_mix(h, light.position());
    h = fnv_mix(h, light.red_duration());
    h = fnv_mix(h, light.green_duration());
    h = fnv_mix(h, light.offset());
  }
  for (const road::StopSign& sign : corridor.stop_signs) {
    h = fnv_mix(h, sign.position_m);
    h = fnv_mix(h, sign.min_stop_s);
  }
  return h;
}

}  // namespace evvo::cloud
