// Layout constants and helpers shared by the production DP solver and the
// naive reference solver in src/check/. Both sides must agree bit-for-bit on
// backpointer packing and the state-table checksum, or the differential
// harness would report spurious divergences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>

namespace evvo::core::detail {

inline constexpr float kDpInf = std::numeric_limits<float>::infinity();

/// Backpointer packing: predecessor (j, k) plus a flag for same-layer dwells.
inline constexpr std::uint32_t kDwellFlag = 0x8000'0000u;
inline constexpr std::uint32_t kNoPred = 0xFFFF'FFFFu;
/// Time-bin field of a packed backpointer (pred_k without the call, for the
/// relaxation kernels).
inline constexpr std::uint32_t kPredBinMask = 0x000F'FFFFu;

/// Dominance-pruning slack. The destination selection breaks near-ties
/// within 1e-9; pruning only drops states that are worse by more than this
/// much larger margin, so a dropped state's completion can never have won
/// that tie-break either.
inline constexpr float kPruneMargin = 1e-6f;

inline std::uint32_t pack_pred(std::size_t j, std::size_t k, bool dwell) {
  return static_cast<std::uint32_t>(j << 20) | static_cast<std::uint32_t>(k) |
         (dwell ? kDwellFlag : 0u);
}
inline std::size_t pred_j(std::uint32_t p) { return (p & ~kDwellFlag) >> 20; }
inline std::size_t pred_k(std::uint32_t p) { return p & kPredBinMask; }
inline bool pred_is_dwell(std::uint32_t p) { return (p & kDwellFlag) != 0u && p != kNoPred; }

/// FNV-1a accumulator for checksumming solver state.
class TableHasher {
 public:
  void mix_u64(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (value >> (8 * byte)) & 0xFFu;
      h_ *= 1099511628211ull;
    }
  }
  void mix_f32(float value) {
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    mix_u64(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Mixes one layer of the reachable DP state into `hasher`: every
/// finite-cost cell's identity, cost, continuous arrival time, and
/// backpointer, in (velocity, time-bin) order. `cost`, `time` and `back`
/// address the layer's n_v * n_t cells (index j * n_t + k). Cells that were
/// never relaxed into are skipped, so lazily reset tables (which leave stale
/// time/back values behind infinite costs) hash identically to densely
/// initialized ones.
inline void mix_state_layer(TableHasher& hasher, std::size_t layer, std::size_t layer_size,
                            const float* cost, const float* time, const std::uint32_t* back) {
  for (std::size_t cell = 0; cell < layer_size; ++cell) {
    if (cost[cell] >= kDpInf) continue;
    hasher.mix_u64((static_cast<std::uint64_t>(layer) << 32) | cell);
    hasher.mix_f32(cost[cell]);
    hasher.mix_f32(time[cell]);
    hasher.mix_u64(back[cell]);
  }
}

/// Checksum of the reachable DP state: mix_state_layer over every layer in
/// order. Tables are layer-major: index = layer * (n_v * n_t) + j * n_t + k.
/// The production solver, which keeps one layer of costs and times, mixes
/// each layer as it finishes it and reaches the same value.
inline std::uint64_t checksum_state_tables(std::size_t n_layers, std::size_t n_v, std::size_t n_t,
                                           const float* cost, const float* time,
                                           const std::uint32_t* back) {
  TableHasher hasher;
  const std::size_t layer_size = n_v * n_t;
  for (std::size_t layer = 0; layer < n_layers; ++layer) {
    const std::size_t base = layer * layer_size;
    mix_state_layer(hasher, layer, layer_size, cost + base, time + base, back + base);
  }
  return hasher.value();
}

}  // namespace evvo::core::detail
