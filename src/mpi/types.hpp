// Basic MPI-3-shaped vocabulary types for the minimpi runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace casper::mpi {

/// Basic datatypes (the "predefined datatype" subset we model).
enum class Dt : std::uint8_t { Byte = 0, Int = 1, Double = 2 };

constexpr std::size_t dt_size(Dt d) {
  switch (d) {
    case Dt::Byte: return 1;
    case Dt::Int: return 4;
    case Dt::Double: return 8;
  }
  return 1;
}

/// Maximum size of an MPI basic datatype; the paper's segment-binding
/// alignment unit ("16 bytes for MPI_REAL").
inline constexpr std::size_t kMaxBasicDtSize = 16;

/// A derived datatype: `blocklen` consecutive basic elements repeated with a
/// `stride` (in elements). stride == blocklen describes contiguous data;
/// stride > blocklen describes an MPI_Type_vector-style strided layout, which
/// always takes the software (active-message) path on every profile.
struct Datatype {
  Dt base = Dt::Double;
  int blocklen = 1;
  int stride = 1;

  constexpr bool contiguous() const { return stride == blocklen; }
  constexpr std::size_t elem_size() const { return dt_size(base); }
  bool operator==(const Datatype&) const = default;
};

constexpr Datatype contig(Dt base) { return Datatype{base, 1, 1}; }
constexpr Datatype vector_of(Dt base, int blocklen, int stride) {
  return Datatype{base, blocklen, stride};
}

/// Payload bytes moved by `count` blocks of `dt`.
constexpr std::size_t data_bytes(int count, const Datatype& dt) {
  return static_cast<std::size_t>(count) *
         static_cast<std::size_t>(dt.blocklen) * dt.elem_size();
}

/// Extent in the target buffer touched by `count` blocks of `dt` (first byte
/// to one past the last byte).
constexpr std::size_t span_bytes(int count, const Datatype& dt) {
  if (count <= 0) return 0;
  return (static_cast<std::size_t>(count - 1) *
              static_cast<std::size_t>(dt.stride) +
          static_cast<std::size_t>(dt.blocklen)) *
         dt.elem_size();
}

/// Accumulate / reduction operations.
enum class AccOp : std::uint8_t { Replace, Sum, Min, Max, NoOp };

/// Passive-target lock types.
enum class LockType : std::uint8_t { Shared = 1, Exclusive = 2 };

/// MPI_MODE_* assertions for epoch calls.
enum ModeAssert : unsigned {
  kModeNone = 0,
  kModeNoCheck = 1u << 0,
  kModeNoStore = 1u << 1,
  kModeNoPut = 1u << 2,
  kModeNoPrecede = 1u << 3,
  kModeNoSucceed = 1u << 4,
};

/// Wildcards for point-to-point matching.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Completion status of a receive.
struct Status {
  int source = -1;
  int tag = -1;
  std::size_t bytes = 0;
};

/// MPI_Info-style key/value hints.
class Info {
 public:
  Info() = default;
  void set(const std::string& k, const std::string& v) { kv_[k] = v; }
  std::optional<std::string> get(const std::string& k) const {
    auto it = kv_.find(k);
    if (it == kv_.end()) return std::nullopt;
    return it->second;
  }
  const std::map<std::string, std::string>& all() const { return kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

}  // namespace casper::mpi
