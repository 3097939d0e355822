// Seeded KV-workload fuzzing: the linearizability analogue of the RMA
// conformance fuzzer (check/fuzz.hpp), driving the RMA-backed KV store
// (src/kv/) instead of raw op streams.
//
// A seed deterministically generates a KV case — progress mode (original /
// thread / Casper), topology, Casper binding and dynamic-LB policy, store
// shape (buckets, associativity, lock kind), and a pre-materialized Zipfian
// op mix — which is replayed under several perturbed fiber schedules with
// the LinearChecker riding as the store's history sink AND the shadow
// oracle attached (unsharded runs). A case fails when
//   * the checker finds a per-key history with no legal linearization
//     ("kv-violation": the lock protocol lost an update / served a stale
//     read), or
//   * the shadow oracle diverges / the runtime's atomicity detector fires
//     ("kv-oracle-divergence": the runtime itself broke).
// KvWorkload hands these cases to the shared fuzz pipeline
// (check/campaign.hpp), which minimizes failures to the shortest failing
// global op prefix and writes replayable repro files. Its planted bug
// ("skip-unlock-flush", KvConfig::skip_unlock_flush — the value PUT left
// unordered w.r.t. the lock release) runs under a delay-heavy network, and
// the proof requires the checker to catch the resulting stale read.
#pragma once

#include <cstdint>
#include <vector>

#include "check/campaign.hpp"
#include "check/linear.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"

namespace casper::check {

/// A complete generated KV test case; every user rank is a client. The op
/// list is pre-materialized so a prefix truncation is a pure prefix of every
/// client's program.
struct KvCase : Deployment {
  kv::KvConfig store;
  kv::TrafficConfig traffic;
  /// Planted bug: run the store with skip_unlock_flush (tests / proofs).
  bool broken_skip_flush = false;
  std::vector<kv::KvOp> ops;
};

/// Deterministically generate the case for `seed`. `reduced` shrinks op
/// counts for the ctest-time corpus; `ops_per_client` > 0 overrides the
/// seed-drawn per-client op count.
KvCase make_kv_case(std::uint64_t seed, bool reduced, int ops_per_client = 0);

/// Outcome of one simulated run of a KV case; `violations` counts
/// linearizability violations, `counters` keeps kv.* / linear.*.
struct KvOutcome : CheckedOutcome {
  sim::Time end_time = 0;               ///< rank 0 virtual end time
  std::uint64_t fingerprint = 0;        ///< final-table digest
  kv::KvStats stats;                    ///< cluster-wide client counters
  std::uint64_t acc_ops = 0;            ///< server-side ACC op total
};

/// Run the case once under schedule `perturb_seed` and `shards` engine
/// shards. Sharded runs force perturb 0 and skip the (not concurrent_safe)
/// shadow oracle; the checker rides every run. `op_limit` truncates the
/// global op list (minimizer support).
KvOutcome run_kv_case(const KvCase& fc, std::uint64_t perturb_seed,
                      int shards = 1,
                      std::size_t op_limit = ~std::size_t{0});

/// The KV workload of the shared fuzz pipeline (check/campaign.hpp).
struct KvWorkload : CheckedWorkload {
  using Case = KvCase;
  using Outcome = KvOutcome;
  static constexpr const char* kName = "kv";
  static constexpr const char* kCountLabel = "checked KV op(s)";
  static constexpr LossyNet kLossyNet{0xfa06b, 0x6b76a5a5a5a5a5a5ULL, 0.13,
                                      0.25, 40, 0.10};
  static Case generate(const Repro& r) {
    KvCase c = make_kv_case(r.seed, r.reduced);
    if (r.lockfree) c.store.lock = kv::KvConfig::LockKind::LockFree;
    return c;
  }
  /// Cuts the case with run_kv_case's op_limit.
  static Outcome run(const Case& c, std::uint64_t perturb,
                     std::size_t prefix) {
    return run_kv_case(c, perturb, 1, prefix);
  }
  static std::span<const Check<KvWorkload>> checks();
  static std::span<const PlantedBug<KvWorkload>> bugs();
  static void write_case(std::FILE* f, const Case& c, std::size_t nops);
};

}  // namespace casper::check
