// One fuzz pipeline for every workload: the campaign loop, the op-prefix
// minimizer, the planted-bug proof driver and the repro file format.
//
// A workload is a traits struct (RmaWorkload in check/fuzz.hpp, KvWorkload in
// check/kvfuzz.hpp, MwWorkload in check/mwfuzz.hpp). It keeps its own case
// generator, runner and outcome type and describes itself with:
//
//   using Case = ...;      // has .seed, .ops and .fault_plan
//   using Outcome = ...;
//   static constexpr const char* kName;        // "rma" | "kv" | "mwcas"
//   static constexpr const char* kCountLabel;  // summary-line count label
//   static constexpr LossyNet kLossyNet;       // --faults network shape
//   static Case generate(const Repro& r);      // seed + generator switches
//   static Outcome run(const Case&, std::uint64_t perturb, std::size_t prefix);
//   static std::uint64_t count(const Outcome&);  // summed over every run
//   static std::span<const Check<W>> checks();   // ordered failure checks
//   static std::span<const PlantedBug<W>> bugs();
//   static void write_case(std::FILE*, const Case&, std::size_t nops);
//   static void write_diags(std::FILE*, const Outcome&);
//
// Campaign: every case runs under `schedules` perturbed fiber schedules.
// After each run the checks are tried in order — single-run checks on that
// run, cross-schedule checks against schedule 0's run — and the first one
// that fails ends the case: its op prefix is minimized and a repro written.
//
// Proof: for every planted bug, scan seeds for candidate cases, plant the
// bug, and require the workload's FIRST check to fire in some schedule; the
// failure is minimized, written, re-parsed and replayed. A proof that cannot
// catch its bug means the harness lost its teeth.
//
// Repro files: one line-oriented format for every workload, "# casper repro
// v2" with a `workload` tag; DESIGN.md §7 lists its keys.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/casper.hpp"
#include "fault/plan.hpp"

namespace casper::check {

/// Prefix value meaning "run every op".
inline constexpr std::size_t kAllOps = ~std::size_t{0};

/// Schedule perturb seed of schedule index `s` for a case (s == 0 → 0, the
/// classic order).
std::uint64_t perturb_for(std::uint64_t seed, int s);

/// Smallest k in [1, total] for which `fails(k)` holds, assuming rough
/// monotonicity (verified; falls back to `total` when the assumption broke).
int minimize_prefix(int total, const std::function<bool(int)>& fails);

/// Shape of a seed-derived lossy network: at least one of drop / duplicate /
/// delay-reorder, sometimes several, plus occasional ack drops.
struct LossyNet {
  std::uint64_t stream;         ///< RNG stream keyed with the case seed
  std::uint64_t seed_xor;       ///< plan seed = case seed ^ seed_xor
  double drop_dup_span;         ///< drop_p / dup_p in 0.02 + [0, span)
  double delay_span;            ///< delay_p in 0.05 + [0, span)
  std::uint64_t delay_max_us;   ///< delay_max in 5 + [0, n) us
  double ack_span;              ///< ack_drop_p in 0.02 + [0, span)
};

/// Install the seed-derived lossy network into `fp` (--faults mode). The
/// reliable AM layer must absorb every mix with every check staying clean.
void add_lossy_net(fault::FaultPlan& fp, std::uint64_t seed,
                   const LossyNet& shape);

/// Everything needed to regenerate and replay one failure.
struct Repro {
  std::string workload;  ///< the workload's kName
  std::string kind;      ///< the failing check's kind
  std::uint64_t seed = 0;
  std::uint64_t perturb = 0;  ///< the failing schedule
  int prefix_ops = 0;         ///< minimized op prefix (0 = every op)
  bool reduced = true;
  std::string bug;  ///< planted bug name ("" = none)
  // Generator switches; each workload reads the ones it has.
  int races = 0;          ///< rma: planted races (make_racy_case)
  bool adaptive = false;  ///< rma: progress controller forced on
  bool lockfree = false;  ///< kv: LockKind::LockFree store
  /// The FaultPlan active when the failure triggered; replay installs it so
  /// the same drops/dups/delays, kills and stalls recur.
  fault::FaultPlan plan;
};

/// One ordered failure check of a workload: a single-run predicate, or a
/// cross-schedule predicate against schedule 0's run. Exactly one is set.
template <class W>
struct Check {
  const char* kind;
  /// True when `out`, a run of `c` cut to `prefix` ops, fails.
  bool (*fails)(const typename W::Case& c, std::size_t prefix,
                const typename W::Outcome& out);
  /// True when `out` differs from `ref`, the same cut run under schedule 0.
  bool (*differs)(const typename W::Case& c, const typename W::Outcome& out,
                  const typename W::Outcome& ref);
};

/// A deliberately planted bug the workload's first check must catch.
template <class W>
struct PlantedBug {
  const char* name;
  int seed_scan;  ///< seeds tried from the base seed
  /// Does the bug have a surface in this (unplanted) case?
  bool (*candidate)(const typename W::Case& c);
  void (*plant)(typename W::Case& c);
  /// Fault plan the bug needs to show (nullptr = none).
  void (*faults)(typename W::Case& c);
};

struct CampaignOptions {
  std::uint64_t base_seed = 1;
  int cases = 200;
  int schedules = 4;
  bool reduced = true;
  /// --faults: every case additionally runs under the workload's
  /// seed-derived lossy network; repros embed the plan.
  bool net_faults = false;
  /// --races N (rma): every case is generated with N planted conflicting
  /// pairs, and a pair the race analyzer misses is a "race-miss" failure.
  int planted_races = 0;
  /// --adaptive (rma): force the online progress controller on for every
  /// case (the seed stream only turns it on for ~25% of the corpus).
  bool force_adaptive = false;
  /// --lockfree (kv): run every store in the MWCAS-guarded lock-free bucket
  /// mode regardless of the seed-drawn lock kind.
  bool force_lockfree = false;
  std::string repro_dir = ".";
  bool verbose = false;
};

struct Failure {
  std::uint64_t seed = 0;
  std::uint64_t perturb = 0;
  std::string kind;
  int minimized_ops = 0;
  std::string repro_path;
};

struct CampaignResult {
  int cases_run = 0;
  int runs = 0;
  std::uint64_t total = 0;  ///< sum of W::count over every run
  std::vector<Failure> failures;
};

/// Run `cases` seeds × `schedules` schedules of workload W; minimize and
/// write a repro for every failing case.
template <class W>
CampaignResult run_campaign(const CampaignOptions& opt);

/// Prove every planted bug of W is caught (see the file comment). Returns
/// one record per bug — seed, schedule, minimized size and the repro that
/// replayed — or an empty vector when any bug escaped.
template <class W>
std::vector<Failure> prove(std::uint64_t base_seed, int schedules,
                           const std::string& dir);

/// Write a repro file for `r` (with `out` supplying the diagnostics) into
/// `dir`; returns its path, or "" when the file could not be created.
template <class W>
std::string write_repro(const Repro& r, const typename W::Case& c,
                        const typename W::Outcome& out,
                        const std::string& dir);

/// Read a repro file. False when it lacks the v2 header, `seed` or `kind`.
bool parse_repro(const std::string& path, Repro& out);

struct ReplayResult {
  /// Parsed, and names a known workload and one of its kinds and bugs.
  bool valid = false;
  bool reproduced = false;
  Repro repro;
};

/// Parse a repro file and re-run it under its workload.
ReplayResult replay_file(const std::string& path);

// --- helpers for the workloads' repro writers ------------------------------

const char* binding_name(core::Binding b);
/// Write `text` as one "key line" per line, so multi-line diagnostics keep
/// their keyword prefix.
void put_lines(std::FILE* f, const char* key, const std::string& text);

}  // namespace casper::check
