// The two hashes the simulator's fingerprints and keyed placements share:
// FNV-1a over bytes (window and history fingerprints) and the splitmix64
// finalizer (Rng streams, KV key placement, race-treap priorities). Pinned
// corpora and golden outputs depend on their exact bits.
#pragma once

#include <cstddef>
#include <cstdint>

namespace casper::sim {

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a over `n` bytes at `p`, continuing from `h`.
inline std::uint64_t fnv1a(const void* p, std::size_t n,
                           std::uint64_t h = kFnvBasis) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// splitmix64's state increment (the golden-ratio gamma).
inline constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64's output finalizer: a bijection on 64-bit values.
inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One splitmix64 output from state `x`: the finalizer of x + gamma.
inline std::uint64_t splitmix64(std::uint64_t x) { return mix64(x + kGamma); }

}  // namespace casper::sim
