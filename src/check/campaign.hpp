// One fuzz pipeline for every workload: the deployment a case runs on and
// its draws, the run harness and counter snapshot, the campaign loop, the
// op-prefix minimizer, the planted-bug proof driver and the repro format.
//
// A workload is a traits struct (RmaWorkload in check/fuzz.hpp, KvWorkload in
// check/kvfuzz.hpp, MwWorkload in check/mwfuzz.hpp). It keeps its own op
// stream, run body, checks and planted bugs and describes itself with:
//
//   using Case = ...;      // a Deployment with .ops
//   using Outcome = ...;   // a RunSnapshot (DeployedRun fills it)
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
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/casper.hpp"
#include "fault/plan.hpp"
#include "obs/record.hpp"
#include "sim/rng.hpp"

namespace casper::check {

/// Progress mode a deployment runs under: original MPI (no asynchronous
/// progress), a progress thread per rank, or Casper ghost processes.
enum class Mode : std::uint8_t { Original = 0, Thread = 1, Casper = 2 };
const char* to_string(Mode m);

/// The deployment a fuzz case runs on. The RMA, KV and MWCAS cases derive
/// from it, so every workload and progress mode is deployed one way
/// (DeployedRun below).
struct Deployment {
  std::uint64_t seed = 0;
  Mode mode = Mode::Casper;
  int nodes = 1;
  int users_per_node = 2;
  int ghosts = 1;  ///< ghosts per node; Casper mode only
  core::Binding binding = core::Binding::Rank;
  core::DynamicLb dynamic = core::DynamicLb::None;
  /// Injected network/process faults. Inert unless `fault_plan.active()`.
  fault::FaultPlan fault_plan;

  int nusers() const { return nodes * users_per_node; }
  /// Cores per node are users + ghosts in Casper mode, users otherwise.
  net::Topology topology() const;
  /// The Casper layer's configuration: ghosts, binding, dynamic LB.
  core::Config casper() const;
  /// World ranks of the ghosts in rank order; empty outside Casper mode.
  std::vector<int> ghost_ranks() const;
};

/// Draw nodes (1-2), users per node (1-3, raised to 2 when that would leave
/// a single user) and ghosts per node (1-2), in that order.
void draw_topology(sim::Rng& rng, Deployment& d);
/// Draw the Casper binding, then the dynamic-LB policy.
void draw_routing(sim::Rng& rng, Deployment& d);

/// Named counters read back from one run.
struct Counters : std::map<std::string, std::uint64_t> {
  /// The counter `key`, 0 when the run never moved it.
  std::uint64_t get(const std::string& key) const {
    const auto it = find(key);
    return it == end() ? 0 : it->second;
  }
};

/// What every fuzz run reads back from its runtime.
struct RunSnapshot {
  std::uint64_t atomicity_violations = 0;
  /// fault.* / recovery.* when the run had an active fault plan, plus the
  /// workload's recorder counters when a recorder rode the run.
  Counters counters;
};

/// One run of a deployment: the run configuration, the layer (Casper's in
/// Casper mode, with config `cc`) and the recorder. Sharded engines reject
/// perturb seeds and fault plans, so a sharded run uses perturb 0 and no
/// plan. Attach observers to runtime(), then run() and snapshot().
class DeployedRun {
 public:
  /// `on_request`: attach a recorder only when the CASPER_TRACE environment
  /// variable asks (set, and not 0 or off); otherwise whenever tracing is
  /// compiled in.
  DeployedRun(const Deployment& d, const core::Config& cc,
              std::uint64_t perturb, int shards, bool on_request,
              std::function<void(mpi::Env&)> body);

  mpi::Runtime& runtime() { return *rt_; }
  /// The recorder riding the run; nullptr when none does.
  obs::Recorder* recorder() { return traced_ ? &rec_ : nullptr; }
  void run() { rt_->run(); }
  /// Read the counters into `out`; recorder counters are kept when named
  /// `prefix`* or linear.* (the history checkers').
  void snapshot(RunSnapshot& out, const char* prefix);

 private:
  const bool faulted_;
  bool traced_ = false;
  obs::Recorder rec_;
  std::optional<mpi::Runtime> rt_;
};

/// Verdicts of the history checker and shadow oracle riding a KV/MWCAS run.
struct CheckedOutcome : RunSnapshot {
  std::size_t violations = 0;
  std::vector<std::string> diags;  ///< the first 4 violations' diagnostics
  std::uint64_t history_hash = 0;  ///< canonical-history FNV
  std::size_t checker_ops = 0;     ///< events the checker recorded
  std::uint64_t divergences = 0;   ///< shadow oracle's (unsharded runs only)
};

/// Read `checker`'s verdict into `out`; `diag` renders one violation.
template <class Checker, class Diag>
void read_checker(Checker& checker, Diag diag, CheckedOutcome& out) {
  out.violations = checker.check().size();
  for (const auto& v : checker.check()) {
    out.diags.push_back(diag(v));
    if (out.diags.size() >= 4) break;
  }
  out.history_hash = checker.history_hash();
  out.checker_ops = checker.ops_recorded();
}

/// What the KV and MWCAS workloads share.
struct CheckedWorkload {
  static std::uint64_t count(const CheckedOutcome& o) { return o.checker_ops; }
  /// Violations, history hash and checked op count.
  static void write_diags(std::FILE* f, const CheckedOutcome& out);
};

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

/// Write "case [mode=M ]nodes=N ... dynamic=D", the head of a repro's case
/// line; the workload appends its own fields and the newline.
void write_deployment(std::FILE* f, const Deployment& d, bool with_mode);
/// Write `text` as one "key line" per line, so multi-line diagnostics keep
/// their keyword prefix.
void put_lines(std::FILE* f, const char* key, const std::string& text);

}  // namespace casper::check
