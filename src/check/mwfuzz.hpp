// Seeded MWCAS-program fuzzing: the multi-word-atomics analogue of the KV
// fuzzer (check/kvfuzz.hpp), driving src/mwcas/ over a shared word heap.
//
// A seed deterministically generates a case — progress mode, topology,
// Casper binding/dynamic policy, heap shape (words per rank), and a
// pre-materialized per-client program of reads and 1–4-word MWCASes over a
// deliberately tiny global word pool (so descriptors collide and the helping
// protocol actually runs) — replayed under perturbed fiber schedules with
// the MwChecker recording every operation, the shadow oracle attached
// (unsharded runs), and the race analyzer riding throughout. A case fails
// when
//   * the MWCAS history has no legal linearization ("mwcas-violation":
//     a torn install, lost update, or leaked descriptor),
//   * the oracle diverges / the atomicity detector fires / the race
//     analyzer flags a conflict ("mwcas-oracle-divergence": the protocol
//     must be entirely atomic-class RMA, so ANY conflict is a bug), or
//   * a perturbed schedule's outcome differs from schedule 0
//     ("mwcas-mismatch": history hash, heap fingerprint, end time, and the
//     cluster-wide protocol counters must be exact-match invariant).
// MwWorkload hands these cases to the shared fuzz pipeline
// (check/campaign.hpp); its proof scans seeds under contention for EACH
// planted bug (skip-help, torn-install, stale-status — see MwConfig) until
// the checker catches it, then minimizes, writes and replays the repro.
#pragma once

#include <cstdint>
#include <vector>

#include "check/campaign.hpp"
#include "check/mwlinear.hpp"
#include "mwcas/mwcas.hpp"

namespace casper::check {

/// Which planted protocol bug (if any) a case runs with.
enum class MwBug : std::uint8_t {
  None = 0,
  SkipHelp = 1,
  TornInstall = 2,
  StaleStatus = 3,
};
const char* to_string(MwBug b);

/// One generated program step. width == 0 is a single-word read; width >= 1
/// is an MWCAS over `width` distinct global words (expected values are
/// gathered by reads at run time; `stale` inserts a think window between
/// gather and CAS so the op contends on stale expectations).
struct MwProgOp {
  int client = 0;
  int width = 0;
  int word[8] = {};  ///< global word ids, distinct within one op
  sim::Time think = 0;
  bool stale = false;
};

/// A complete generated MWCAS test case; every user rank is a client.
struct MwCase : Deployment {
  int words_per_rank = 2;  ///< heap data words each rank owns
  mwcas::MwConfig mw;
  MwBug bug = MwBug::None;
  std::vector<MwProgOp> ops;

  int total_words() const { return nusers() * words_per_rank; }
};

MwCase make_mw_case(std::uint64_t seed, bool reduced, int ops_per_client = 0);

/// Outcome of one simulated run of an MWCAS case; `counters` keeps
/// mwcas.* / linear.*.
struct MwOutcome : CheckedOutcome {
  std::uint64_t semantic_hash = 0;  ///< timing-free per-client history digest
  sim::Time end_time = 0;
  std::uint64_t fingerprint = 0;  ///< heap data words (descriptors excluded)
  mwcas::MwStats stats;           ///< cluster-wide protocol counters
  std::uint64_t race_conflicts = 0;
  /// mpi::Runtime::simultaneous_arrivals of the run.
  std::uint64_t simultaneous_arrivals = 0;
};

MwOutcome run_mw_case(const MwCase& fc, std::uint64_t perturb_seed,
                      int shards = 1,
                      std::size_t op_limit = ~std::size_t{0});

/// The cross-schedule invariance gate. Original mode and single-ghost
/// statically-routed Casper are event-driven with one serialization point
/// per target, so everything must match bit-for-bit: timed history,
/// timing-free semantic history, heap fingerprint, end time, and the
/// cluster-wide protocol counters. A serialization point still orders two
/// messages that reach its inbox in the same nanosecond by the schedule's
/// tie-break, and with every origin funnelled through one ghost such a tie
/// can shift op timing and flip contended races (tests/repro/ holds two
/// counterexamples). So single-ghost Casper runs are compared only when
/// neither run saw a simultaneous arrival. Three configs have LEGAL
/// service-time ties throughout — Thread mode (progress polling quantizes
/// service instants), Casper with a dynamic LB policy (routing consumes load
/// state / an RNG stream in arrival order), and multi-ghost Casper (two
/// service loops can retire AMs at the same virtual instant) — where no
/// cross-schedule comparison is made; every resolution is still a legal
/// linearizable execution (each run is individually gated on
/// checker/oracle/race/atomicity). Active fault plans are tie-prone for the
/// same reason.
bool mw_outcomes_differ(const MwCase& fc, const MwOutcome& a,
                        const MwOutcome& b);

/// The MWCAS workload of the shared fuzz pipeline (check/campaign.hpp).
struct MwWorkload : CheckedWorkload {
  using Case = MwCase;
  using Outcome = MwOutcome;
  static constexpr const char* kName = "mwcas";
  static constexpr const char* kCountLabel = "checked MWCAS op(s)";
  static constexpr LossyNet kLossyNet{0xfa6d7, 0x6d77a5a5a5a5a5a5ULL, 0.13,
                                      0.25, 40, 0.10};
  static Case generate(const Repro& r) {
    return make_mw_case(r.seed, r.reduced);
  }
  /// Cuts the case with run_mw_case's op_limit.
  static Outcome run(const Case& c, std::uint64_t perturb,
                     std::size_t prefix) {
    return run_mw_case(c, perturb, 1, prefix);
  }
  static std::span<const Check<MwWorkload>> checks();
  static std::span<const PlantedBug<MwWorkload>> bugs();
  static void write_case(std::FILE* f, const Case& c, std::size_t nops);
};

}  // namespace casper::check
