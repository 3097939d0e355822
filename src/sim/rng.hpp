// Deterministic per-rank random number generation.
//
// Every simulated rank owns an independent splitmix64 stream seeded from
// (global seed, rank id), so results are identical regardless of how the
// cooperative scheduler interleaves ranks and regardless of the host.
#pragma once

#include <cstdint>

#include "sim/hash.hpp"

namespace casper::sim {

/// Small, fast, deterministic PRNG (splitmix64). Not cryptographic.
class Rng {
 public:
  Rng() = default;
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Seed from a (global seed, stream id) pair; streams are decorrelated by
  /// mixing the id through the output function before use.
  Rng(std::uint64_t seed, std::uint64_t stream)
      : state_(mix64(seed + kGamma * (stream + 1))) {}

  /// Next uniformly distributed 64-bit value.
  std::uint64_t next_u64() {
    state_ += kGamma;
    return mix64(state_);
  }

  /// Uniform value in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) { return next_u64() % bound; }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_ = 0x853c49e6748fea9bULL;
};

}  // namespace casper::sim
