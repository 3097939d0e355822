// Randomized RMA conformance fuzzer.
//
// A seed deterministically generates a small RMA program (topology, Casper
// config, epoch style, and an op stream of PUT/GET/ACC/GET_ACC/FAO — plus
// CAS and ACC-Replace in explicitly order-sensitive cases), which is then run
// under several perturbed fiber schedules (sim::Engine::Options::perturb_seed)
// with the shadow-memory oracle attached. A case fails when
//   * the oracle finds real window bytes diverging from the sequentially
//     consistent reference at a synchronization point, or
//   * the runtime's atomicity-violation detector fires, or
//   * two legal schedules of a schedule-invariant program produce different
//     final window contents.
// The shared pipeline (check/campaign.hpp) minimizes failures to the shortest
// failing op prefix and writes them as replayable repro files.
//
// Programs are constructed to be schedule-invariant unless marked
// order-sensitive: PUT targets per-origin-exclusive, per-round-disjoint slot
// ranges with deterministic values; accumulates use one commutative operation
// per case (Sum on exactly-representable values, or Min/Max) on a shared
// region; GETs read a never-written slot. Order-sensitive cases (CAS,
// ACC-Replace, mixed accumulate ops) keep every oracle check but skip the
// cross-schedule content comparison.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/oracle.hpp"
#include "check/race.hpp"
#include "core/casper.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"

namespace casper::check {

// EpochStyle (fence/pscw/lock/lockall) is shared with the race analyzer and
// lives in check/race.hpp.

/// One generated operation, fully resolved (so truncating the op stream is a
/// pure prefix of the program).
struct OpRec {
  mpi::OpKind kind = mpi::OpKind::Put;
  mpi::AccOp aop = mpi::AccOp::Replace;
  int origin = 0;          ///< user rank issuing the op
  int target = 0;          ///< user rank owning the memory
  int round = 0;           ///< epoch round the op belongs to
  std::size_t disp = 0;    ///< byte displacement in the target segment
  int count = 0;           ///< target datatype blocks
  mpi::Datatype tdt;       ///< target datatype (contig or stride-2 vector)
  std::int64_t val = 0;    ///< deterministic value seed for the payload
  /// Local access to the origin's own segment instead of an RMA op (racy
  /// mode): Put = Env::local_store, Get = Env::local_load. origin == target.
  bool local = false;
};

/// A complete generated test case, deployed in Casper mode (the default).
/// Its fault plan carries the --faults network, the fault matrix and the
/// ghost-failure suites' kills.
struct FuzzCase : Deployment {
  /// Online adaptive progress control (DESIGN.md §15) on for the run. Drawn
  /// from a stream separate from the main case stream so the established
  /// corpus replays identical programs with the controller merely toggled.
  bool adaptive = false;
  EpochStyle epoch = EpochStyle::Fence;
  int rounds = 1;
  bool mid_flush = false;    ///< Lock/LockAll: flush_all halfway (III.B.3)
  bool pscw_nocheck = false; ///< PSCW: barrier + MPI_MODE_NOCHECK variant
  bool hint_exact = false;   ///< set epochs_used info to exactly the style
  mpi::Dt acc_dt = mpi::Dt::Double;
  mpi::AccOp acc_op = mpi::AccOp::Sum;  ///< the case's commutative acc op
  bool order_sensitive = false;
  std::size_t slot_bytes = 64;  ///< per-slot bytes; layout below
  /// One deliberately planted same-epoch conflicting access pair (racy
  /// mode). The analyzer must flag every planted pair in every schedule.
  struct PlantedRace {
    int origin_a = -1;  ///< user rank of the first access
    int origin_b = -1;  ///< user rank of the second access
    int target = -1;    ///< user rank owning the overlapping bytes
    std::size_t lo = 0; ///< overlapping byte range in the target segment
    std::size_t hi = 0;
    int op_a = -1;      ///< indices of the planted ops in `ops`
    int op_b = -1;
  };
  std::vector<PlantedRace> planted;
  std::vector<OpRec> ops;

  /// Segment layout: nusers() per-origin put slots, then the shared
  /// accumulate region, then a never-written read-only slot.
  std::size_t seg_bytes() const {
    return slot_bytes * static_cast<std::size_t>(nusers() + 2);
  }
};

/// Deterministically generate the case for `seed`. `reduced` shrinks op
/// counts and slot sizes for the ctest-time corpus.
FuzzCase make_case(std::uint64_t seed, bool reduced);

/// make_case plus `races` deliberately planted same-epoch conflicting access
/// pairs (PUT-vs-PUT, PUT-vs-GET, or local-store-vs-PUT into a victim's put
/// slot), recorded in `planted`. Positive tests for the race analyzer: every
/// planted pair must be flagged; the case is marked order-sensitive because
/// racing writes make final contents schedule-dependent.
FuzzCase make_racy_case(std::uint64_t seed, bool reduced, int races);

/// Outcome of one simulated run of a case.
struct RunOutcome : RunSnapshot {
  std::vector<Divergence> divergences;
  std::uint64_t commits = 0;
  std::vector<std::uint64_t> content_hash;  ///< per user rank, own segment
  std::vector<sim::Engine::SchedRecord> trace;
  /// Last obs-trace lines (export_text form); populated only when the
  /// CASPER_TRACE environment variable enables tracing for the run.
  std::vector<std::string> trace_tail;
  /// Race-analyzer verdicts (the analyzer rides along on every run).
  std::uint64_t race_conflict_events = 0;
  std::uint64_t race_conflict_bytes = 0;
  std::vector<RaceAnalyzer::Group> race_groups;
  /// Diagnostics of the first recorded conflicts (repro material).
  std::vector<std::string> race_diags;
  /// World rank of each user rank (planted races are phrased in user ranks;
  /// analyzer groups are phrased in world ranks).
  std::vector<int> world_of;

  bool oracle_clean() const {
    return divergences.empty() && atomicity_violations == 0;
  }
  bool races_clean() const { return race_conflict_events == 0; }
};

/// True when the analyzer flagged the planted pair in this run: some conflict
/// group matches its target, its {origin_a, origin_b} pair (translated to
/// world ranks via out.world_of), and intersects its byte range.
bool planted_flagged(const RunOutcome& out, const FuzzCase::PlantedRace& pr);

/// Run the case once under schedule `perturb_seed` (0 = classic order).
/// `inject_flip_fault` enables the deliberate segment→ghost binding bug.
RunOutcome run_case(const FuzzCase& fc, std::uint64_t perturb_seed,
                    bool inject_flip_fault = false);

/// A FuzzCase as the campaign runs it, plus the planted segment-binding bug
/// (run_case takes that as an argument, not as a case field).
struct RmaCase : FuzzCase {
  bool flip_binding = false;
};

/// The RMA workload of the shared fuzz pipeline (check/campaign.hpp).
/// Checks, in order: oracle-divergence, race-conflict (analyzer false
/// positive), race-miss (planted race not flagged), schedule-divergence.
struct RmaWorkload {
  using Case = RmaCase;
  using Outcome = RunOutcome;
  static constexpr const char* kName = "rma";
  static constexpr const char* kCountLabel = "observed commits";
  static constexpr LossyNet kLossyNet{0xfa0175, 0x9e3779b97f4a7c15ULL, 0.18,
                                      0.35, 60, 0.13};
  static Case generate(const Repro& r);
  /// Cuts the case with ops.resize: planted-race op indices stay valid.
  static Outcome run(const Case& c, std::uint64_t perturb,
                     std::size_t prefix);
  static std::uint64_t count(const Outcome& o) { return o.commits; }
  static std::span<const Check<RmaWorkload>> checks();
  static std::span<const PlantedBug<RmaWorkload>> bugs();
  static void write_case(std::FILE* f, const Case& c, std::size_t nops);
  static void write_diags(std::FILE* f, const Outcome& o);
};

}  // namespace casper::check
