// Conformance fuzzer driver (not a gtest binary): argument parsing around
// the shared fuzz pipeline (check/campaign.hpp). Each mode runs one
// workload's campaign — seeded cases under perturbed fiber schedules with
// its checkers attached — and then its planted-bug proofs, which REQUIRE
// the harness to catch, minimize and replay every planted bug. Exits
// non-zero on any failure, including a planted bug going undetected.
//
//   fuzz_conformance [--cases N] [--schedules N] [--base-seed N] [--full]
//                    [--faults] [--races N] [--kv N] [--lockfree]
//                    [--mwcas N] [--adaptive] [--out DIR]
//                    [--no-fault-proof] [--verbose]
//   fuzz_conformance --replay FILE      # re-run a recorded repro
//
// Default: RMA programs under the shadow oracle and race analyzer; proof:
// the flipped segment binding. --races N plants N same-epoch conflicting
// pairs per case that the analyzer must flag in every schedule (no proof in
// racy mode). --adaptive forces the progress controller on for every case.
// --kv N: KV-store workloads under the linearizability checker; proof:
// skip-unlock-flush. --lockfree runs every store in the MWCAS-guarded
// lock-free bucket mode (the proof keeps its own locked cases).
// --mwcas N: MWCAS programs under the MWCAS checker, oracle and race
// analyzer; proofs: skip-help, torn-install, stale-status.
// --faults adds each workload's seed-derived lossy network to every case;
// repros embed the FaultPlan. --no-fault-proof skips the proofs.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/campaign.hpp"
#include "check/fuzz.hpp"
#include "check/kvfuzz.hpp"
#include "check/mwfuzz.hpp"

using namespace casper;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fuzz_conformance [--cases N] [--schedules N] "
               "[--base-seed N] [--full] [--faults] [--races N] [--kv N] "
               "[--lockfree] [--mwcas N] [--adaptive] [--out DIR] "
               "[--no-fault-proof] [--verbose] | --replay FILE\n");
  return 2;
}

/// Campaign plus (optionally) the planted-bug proofs of workload W; prints
/// the summary line and every failure. True when everything held.
template <class W>
bool run(const check::CampaignOptions& opt, const std::string& tags,
         bool proof) {
  const check::CampaignResult res = check::run_campaign<W>(opt);
  std::printf("fuzz_conformance%s: %d case(s) x %d schedule(s) = %d run(s), "
              "%" PRIu64 " %s, %zu failure(s)\n",
              tags.c_str(), res.cases_run, opt.schedules, res.runs,
              res.total, W::kCountLabel, res.failures.size());
  for (const check::Failure& f : res.failures) {
    std::fprintf(stderr,
                 "FAILURE seed %" PRIu64 " perturb %" PRIu64
                 " kind %s minimized %d op(s) repro %s\n",
                 f.seed, f.perturb, f.kind.c_str(), f.minimized_ops,
                 f.repro_path.c_str());
  }
  bool ok = res.failures.empty();
  if (proof) {
    ok = !check::prove<W>(opt.base_seed, opt.schedules, opt.repro_dir)
              .empty() &&
         ok;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  check::CampaignOptions opt;
  bool do_fault_proof = true;
  int kv_cases = 0;
  int mw_cases = 0;
  const char* replay_path = nullptr;

  const struct {
    const char* name;
    bool* dst;
    bool value;
  } switches[] = {
      {"--full", &opt.reduced, false},
      {"--faults", &opt.net_faults, true},
      {"--lockfree", &opt.force_lockfree, true},
      {"--adaptive", &opt.force_adaptive, true},
      {"--no-fault-proof", &do_fault_proof, false},
      {"--verbose", &opt.verbose, true},
  };
  // Integer options; the mode counts and --races must be positive.
  const struct {
    const char* name;
    int* dst;
    bool positive;
  } counts[] = {
      {"--cases", &opt.cases, false},
      {"--schedules", &opt.schedules, false},
      {"--races", &opt.planted_races, true},
      {"--kv", &kv_cases, true},
      {"--mwcas", &mw_cases, true},
  };

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    bool is_switch = false;
    for (const auto& s : switches) {
      if (a == s.name) {
        *s.dst = s.value;
        is_switch = true;
      }
    }
    if (is_switch) continue;
    // Every other option takes a value.
    const char* v = i + 1 < argc ? argv[++i] : nullptr;
    if (v == nullptr) return usage();
    if (a == "--base-seed") {
      opt.base_seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--out") {
      opt.repro_dir = v;
    } else if (a == "--replay") {
      replay_path = v;
    } else {
      const auto* c = std::find_if(std::begin(counts), std::end(counts),
                                   [&](const auto& o) { return a == o.name; });
      if (c == std::end(counts)) return usage();
      *c->dst = std::atoi(v);
      if (c->positive && *c->dst <= 0) return usage();
    }
  }

  if (replay_path != nullptr) {
    const check::ReplayResult r = check::replay_file(replay_path);
    if (!r.valid) {
      std::fprintf(stderr, "replay: cannot parse %s\n", replay_path);
      return 2;
    }
    const check::Repro& rp = r.repro;
    std::printf("replay %s: %s (%s %s, seed %" PRIu64 ", perturb %" PRIu64
                ", %d op prefix, bug %s)\n",
                replay_path, r.reproduced ? "REPRODUCED" : "did not reproduce",
                rp.workload.c_str(), rp.kind.c_str(), rp.seed, rp.perturb,
                rp.prefix_ops, rp.bug.empty() ? "none" : rp.bug.c_str());
    return r.reproduced ? 0 : 1;
  }

  const std::string faults = opt.net_faults ? " [--faults]" : "";
  bool ok = false;
  if (mw_cases > 0) {
    opt.cases = mw_cases;
    ok = run<check::MwWorkload>(opt, " [--mwcas]" + faults, do_fault_proof);
  } else if (kv_cases > 0) {
    opt.cases = kv_cases;
    ok = run<check::KvWorkload>(
        opt, " [--kv]" + faults + (opt.force_lockfree ? " [--lockfree]" : ""),
        do_fault_proof);
  } else {
    const bool racy = opt.planted_races > 0;
    ok = run<check::RmaWorkload>(
        opt,
        faults + (racy ? " [--races]" : "") +
            (opt.force_adaptive ? " [--adaptive]" : ""),
        do_fault_proof && !racy);
  }
  return ok ? 0 : 1;
}
