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
#include <map>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/linear.hpp"
#include "core/casper.hpp"
#include "fault/plan.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"

namespace casper::check {

enum class KvMode : std::uint8_t { Original = 0, Thread = 1, Casper = 2 };
const char* to_string(KvMode m);

/// A complete generated KV test case. The op list is pre-materialized so a
/// prefix truncation is a pure prefix of every client's program.
struct KvCase {
  std::uint64_t seed = 0;
  KvMode mode = KvMode::Casper;
  int nodes = 1;
  int users_per_node = 2;
  int ghosts = 1;  ///< Casper mode only
  core::Binding binding = core::Binding::Rank;
  core::DynamicLb dynamic = core::DynamicLb::None;
  kv::KvConfig store;
  kv::TrafficConfig traffic;
  fault::FaultPlan fault_plan;  ///< inert unless active()
  /// Planted bug: run the store with skip_unlock_flush (tests / proofs).
  bool broken_skip_flush = false;
  std::vector<kv::KvOp> ops;

  int nclients() const { return nodes * users_per_node; }
};

/// Deterministically generate the case for `seed`. `reduced` shrinks op
/// counts for the ctest-time corpus; `ops_per_client` > 0 overrides the
/// seed-drawn per-client op count.
KvCase make_kv_case(std::uint64_t seed, bool reduced, int ops_per_client = 0);

/// Outcome of one simulated run of a KV case.
struct KvOutcome {
  std::size_t violations = 0;           ///< linearizability violations
  std::vector<std::string> diags;       ///< per-violation diagnostics
  std::uint64_t history_hash = 0;       ///< canonical-history FNV
  std::size_t checker_ops = 0;          ///< events the checker recorded
  sim::Time end_time = 0;               ///< rank 0 virtual end time
  std::uint64_t fingerprint = 0;        ///< final-table digest
  kv::KvStats stats;                    ///< cluster-wide client counters
  std::uint64_t acc_ops = 0;            ///< server-side ACC op total
  std::uint64_t divergences = 0;        ///< shadow-oracle (unsharded only)
  std::uint64_t atomicity = 0;          ///< runtime atomicity violations
  std::map<std::string, std::uint64_t> metrics;     ///< kv.* / linear.*
  std::map<std::string, std::uint64_t> fault_stats; ///< fault.* / recovery.*

  bool clean() const {
    return violations == 0 && divergences == 0 && atomicity == 0;
  }
};

/// Run the case once under schedule `perturb_seed` and `shards` engine
/// shards. Sharded runs force perturb 0 and skip the (not concurrent_safe)
/// shadow oracle; the checker rides every run. `op_limit` truncates the
/// global op list (minimizer support).
KvOutcome run_kv_case(const KvCase& fc, std::uint64_t perturb_seed,
                      int shards = 1,
                      std::size_t op_limit = ~std::size_t{0});

/// The KV workload of the shared fuzz pipeline (check/campaign.hpp).
struct KvWorkload {
  using Case = KvCase;
  using Outcome = KvOutcome;
  static constexpr const char* kName = "kv";
  static constexpr const char* kCountLabel = "checked KV op(s)";
  static constexpr LossyNet kLossyNet{0xfa06b, 0x6b76a5a5a5a5a5a5ULL, 0.13,
                                      0.25, 40, 0.10};
  static Case generate(const Repro& r);
  /// Cuts the case with run_kv_case's op_limit.
  static Outcome run(const Case& c, std::uint64_t perturb,
                     std::size_t prefix) {
    return run_kv_case(c, perturb, 1, prefix);
  }
  static std::uint64_t count(const Outcome& o) { return o.checker_ops; }
  static std::span<const Check<KvWorkload>> checks();
  static std::span<const PlantedBug<KvWorkload>> bugs();
  static void write_case(std::FILE* f, const Case& c, std::size_t nops);
  static void write_diags(std::FILE* f, const Outcome& o);
};

}  // namespace casper::check
