#include "cloud/shard.hpp"

#include <cstring>

namespace evvo::cloud {

namespace {

/// FNV-1a continuation over a double's bit pattern, low byte first.
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
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const road::RoadSegment& seg : corridor.route.segments()) {
    h = fnv_mix(h, seg.start_m);
    h = fnv_mix(h, seg.end_m);
    h = fnv_mix(h, seg.speed_limit_ms);
    h = fnv_mix(h, seg.min_speed_ms);
    h = fnv_mix(h, seg.grade_rad);
  }
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
