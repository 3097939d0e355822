// ablation_adaptive: static vs. adaptive progress control (DESIGN.md §15)
// over the workload regimes the online controller was built for.
//
// Every row runs the IDENTICAL workload twice — same geometry, same op
// stream, same per-round flush_all+barrier epoch boundaries — differing
// only in Config::adaptive.enabled. The round barriers are part of the
// workload in both series, so the adaptive series is never credited for
// sync the static series did not pay.
//
//   seg_balanced  Segment binding, uniform PUTs over every remote segment.
//                 No skew, so the controller must not remap: the no-regression
//                 row (ratio ~= 1.0 exactly — identical routing).
//   seg_skew      Same geometry, every origin hammers the first user of the
//                 other node. That rank's whole segment is chunk 0 of its
//                 node, i.e. one ghost serves everything; the controller
//                 spreads its subchunks over all ghosts (up to ~ghost-count).
//   rank_phase    Rank binding, phase-shifting hot pairs: {0,1} then {2,3}.
//                 Each phase funnels both hot users through one ghost under
//                 the static map; the controller re-partitions per phase.
//   policy_mix    Fig. 7(c) uneven PUT/ACC sizes, static random policy vs.
//                 the controller switching random -> byte-counting online.
//   kv_zipf99     The fig_kv store under Zipfian s=0.99 traffic (PR 8),
//                 driven in batches with a barrier (= adaptation point)
//                 between batches; linearizability checked on both series.
//
// ratio = static(ms) / adaptive(ms). Gate (mirrored by bench_compare.py):
// balanced rows must hold ratio >= 1 - tol, skewed rows >= 1.2x.
#include <iostream>
#include <string>
#include <vector>

#include "check/linear.hpp"
#include "workloads.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"
#include "obs/record.hpp"
#include "report/json.hpp"

using namespace casper;
using bench::Mode;
using bench::RunSpec;

namespace {

constexpr int kSegElems = 512;  // 4 KiB of doubles per rank's segment
constexpr int kPutElems = 32;   // 256 B per PUT; 16 PUTs sweep a segment
constexpr int kRounds = 8;      // epochs per series (controller decisions)

RunSpec seg_spec(bool adaptive, int ghosts) {
  RunSpec s;
  s.mode = Mode::Casper;
  s.profile = net::cray_xc30_regular();
  s.nodes = 2;
  s.user_cpn = 4;
  s.ghosts = ghosts;
  s.binding = core::Binding::Segment;
  s.dynamic = core::DynamicLb::None;
  s.adaptive.enabled = adaptive;
  return s;
}

RunSpec rank_spec(bool adaptive) {
  RunSpec s = seg_spec(adaptive, 2);
  s.binding = core::Binding::Rank;
  return s;
}

/// Segment-binding sweep: every round each origin PUTs 256 B x 16 covering a
/// full 4 KiB segment; balanced touches every user of the other node, skewed
/// only its first user (whose segment is exactly node chunk 0). When `rec`
/// is set, user rank 0 advances the windowed-rate view at every round
/// barrier — the satellite's "explicit virtual-time advance" in action.
double seg_sweep_us(const RunSpec& spec, bool skewed,
                    obs::Recorder* rec = nullptr,
                    obs::WindowedRates* wr = nullptr) {
  return bench::run_metric(spec, [skewed, rec, wr](mpi::Env& env,
                                                   double* out) {
    mpi::Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    const int upn = p / env.runtime().topo().nodes;
    const int other = (me / upn == 0) ? upn : 0;  // other node's first user
    void* base = nullptr;
    mpi::Win win =
        env.win_allocate(kSegElems * sizeof(double), sizeof(double),
                         mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    const sim::Time t0 = env.now();
    std::vector<double> v(kPutElems, 1.0);
    const int sweeps = kSegElems / kPutElems;
    for (int r = 0; r < kRounds; ++r) {
      for (int c = 0; c < sweeps; ++c) {
        if (skewed) {
          env.put(v.data(), kPutElems, other, c * kPutElems, win);
        } else {
          for (int u = 0; u < upn; ++u) {
            env.put(v.data(), kPutElems, other + u, c * kPutElems, win);
          }
        }
      }
      env.win_flush_all(win);
      env.barrier(w);  // epoch boundary: the controller adapts here
      if (rec != nullptr && wr != nullptr && me == 0) {
        wr->advance(rec->metrics(), env.now());
      }
    }
    const double us = sim::to_us(env.now() - t0);
    double us_max = 0;
    env.allreduce(&us, &us_max, 1, mpi::Dt::Double, mpi::AccOp::Max, w);
    env.win_unlock_all(win);
    if (me == 0) *out = us_max;
    env.win_free(win);
  });
}

/// Rank-binding phase shift: hot local users {0,1} for the first half of the
/// rounds, {2,3} for the second. Both pairs share one bound ghost under the
/// initial map, so each phase funnels until the controller re-partitions.
double rank_phase_us(const RunSpec& spec) {
  return bench::run_metric(spec, [](mpi::Env& env, double* out) {
    mpi::Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    const int upn = p / env.runtime().topo().nodes;
    const int other = (me / upn == 0) ? upn : 0;
    constexpr int kElems = 256;  // 2 KiB PUTs: ghost service dominates
    constexpr int kOpsPerTarget = 24;
    void* base = nullptr;
    mpi::Win win = env.win_allocate(kElems * sizeof(double), sizeof(double),
                                    mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    const sim::Time t0 = env.now();
    std::vector<double> v(kElems, 1.0);
    // NUMA-aware static binding pairs local users {0,1} on one ghost and
    // {2,3} on the other (one ghost per memory domain), so each phase's hot
    // pair shares a single bound ghost until the controller re-partitions.
    for (int r = 0; r < kRounds; ++r) {
      const int h0 = (r < kRounds / 2) ? 0 : 2;  // hot pair {h0, h0+1}
      for (int hot : {h0, h0 + 1}) {
        for (int k = 0; k < kOpsPerTarget; ++k) {
          env.put(v.data(), kElems, other + hot, 0, win);
        }
      }
      env.win_flush_all(win);
      env.barrier(w);
    }
    const double us = sim::to_us(env.now() - t0);
    double us_max = 0;
    env.allreduce(&us, &us_max, 1, mpi::Dt::Double, mpi::AccOp::Max, w);
    env.win_unlock_all(win);
    if (me == 0) *out = us_max;
    env.win_free(win);
  });
}

struct KvRow {
  double ms = 0;
  std::uint64_t ops = 0;
  bool clean = false;
};

/// fig_kv's Zipfian s=0.99 traffic against the PR 8 store under Segment
/// binding, driven in batches with a barrier between batches so the
/// controller gets epoch boundaries mid-workload. Zero think time keeps the
/// run service-bound (ghost load, not client pacing, sets the makespan).
///
/// The key population is adversarially PLACED: every Zipf rank is remapped
/// through key_for() onto server 0, striped across its buckets so that
/// consecutive popularity ranks land in different quarters of its segment.
/// That turns per-key popularity skew into per-ghost load skew (one node
/// chunk holds the whole working set) without serializing the traffic on a
/// single bucket lock — the regime segment re-partitioning can actually fix.
KvRow kv_zipf_row(const RunSpec& spec, int batches, int per_batch) {
  KvRow out;
  check::LinearChecker checker;
  bench::run(spec, [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    const int nclients = env.size(w);
    kv::TrafficConfig tc;
    tc.nkeys = 32;
    tc.zipf_s = 0.99;
    tc.read_pct = 75;
    tc.rmw_pct = 0;
    tc.ops_per_client = batches * per_batch;
    tc.think_mean = 0;
    tc.seed = 2024;
    std::vector<kv::KvOp> ops = kv::make_ops(tc, nclients);

    kv::KvConfig kc;
    kc.nbuckets = 16;
    kc.assoc = 4;
    kv::KvStore store(env, kc, w);
    for (kv::KvOp& op : ops) {
      const std::uint64_t z = op.key - 1;  // 0-based Zipf popularity rank
      const int bucket = static_cast<int>((z % 4) * 4 + (z / 4) % 4);
      const int chain = static_cast<int>(z / 16);
      op.key = store.key_for(0, bucket, chain);
    }
    store.set_sink(&checker);
    store.open();
    env.barrier(w);
    const sim::Time t0 = env.now();
    env.compute(static_cast<sim::Time>(me + 1) * sim::ns(1637));
    const std::size_t batch_global =
        static_cast<std::size_t>(nclients) * static_cast<std::size_t>(per_batch);
    std::size_t done = 0;
    for (const kv::KvOp& op : ops) {
      if (op.client == me) {
        env.compute(op.think);
        if (op.kind == 0) {
          store.get(op.key);
        } else {
          store.put(op.key, op.val);
        }
      }
      ++done;
      if (done % batch_global == 0 && done != ops.size()) {
        env.barrier(w);  // batch boundary = adaptation point
      }
    }
    env.barrier(w);
    const sim::Time t1 = env.now();
    store.close();
    if (me == 0) {
      out.ops = store.global_stats().ops();
      out.ms = sim::to_ms(t1 - t0);
    }
  });
  out.clean = checker.clean();
  if (!out.clean) {
    std::cerr << "ablation_adaptive: LINEARIZABILITY VIOLATION: "
              << checker.check().front().diag << "\n";
  }
  return out;
}

std::uint64_t ctr(const obs::Recorder& rec, const char* name) {
  return rec.metrics().counter_value(name);
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = report::csv_mode(argc, argv);
  report::banner(std::cout, "ablation_adaptive",
                 "static vs. adaptive progress control: segment rebinding, "
                 "rank phase shift, policy switching, Zipfian KV");

  report::Table t({"row", "kind", "static(ms)", "adaptive(ms)", "ratio",
                   "rebinds", "policy_switches"});
  bool gate_ok = true;
  const double kTol = 0.05;
  const auto add_row = [&](const char* row, const char* kind, double st_ms,
                           double ad_ms, const obs::Recorder& rec) {
    const double ratio = ad_ms > 0 ? st_ms / ad_ms : 0;
    const bool skewed = std::string(kind) == "skewed";
    const bool ok = skewed ? ratio >= 1.2 : ratio >= 1.0 - kTol;
    if (!ok) {
      std::cerr << "ablation_adaptive: GATE FAIL: row " << row << " ratio "
                << ratio << (skewed ? " < 1.2" : " < 1 - tol") << "\n";
      gate_ok = false;
    }
    t.row({row, kind, report::fmt(st_ms, 3), report::fmt(ad_ms, 3),
           report::fmt(ratio, 2), std::to_string(ctr(rec, "adapt.rebinds")),
           std::to_string(ctr(rec, "adapt.policy_switches"))});
  };

  // -- seg_balanced: uniform load, the controller must hold still ----------
  obs::WindowedRates rates;
  obs::Recorder rec_bal;
  {
    const double st = seg_sweep_us(seg_spec(false, 4), false) / 1000.0;
    RunSpec ad = seg_spec(true, 4);
    ad.recorder = &rec_bal;
    const double adt = seg_sweep_us(ad, false) / 1000.0;
    add_row("seg_balanced", "balanced", st, adt, rec_bal);
  }

  // -- seg_skew: one hot rank = one hot chunk; instrumented run also feeds
  //    the windowed-rate view exported in the JSON metrics block -----------
  obs::Recorder rec_skew;
  {
    const double st = seg_sweep_us(seg_spec(false, 4), true) / 1000.0;
    RunSpec ad = seg_spec(true, 4);
    ad.recorder = &rec_skew;
    const double adt = seg_sweep_us(ad, true, &rec_skew, &rates) / 1000.0;
    add_row("seg_skew", "skewed", st, adt, rec_skew);
  }

  // -- rank_phase: phase-shifting hot pairs under Rank binding -------------
  obs::Recorder rec_phase;
  {
    const double st = rank_phase_us(rank_spec(false)) / 1000.0;
    RunSpec ad = rank_spec(true);
    ad.recorder = &rec_phase;
    const double adt = rank_phase_us(ad) / 1000.0;
    add_row("rank_phase", "skewed", st, adt, rec_phase);
  }

  // -- policy_mix: fig7(c) uneven sizes, random vs. random->byte-counting --
  obs::Recorder rec_pol;
  {
    const int nodes = 4, upn = 8, ghosts = 4, hot_pairs = 4, elems = 2048;
    RunSpec st_spec =
        bench::fig7_spec(core::DynamicLb::Random, nodes, upn, ghosts);
    const double st =
        bench::fig7_uneven_us(st_spec, hot_pairs, elems, true, true) / 1000.0;
    RunSpec ad = bench::fig7_adaptive_spec(nodes, upn, ghosts);
    ad.recorder = &rec_pol;
    const double adt =
        bench::fig7_uneven_us(ad, hot_pairs, elems, true, true) / 1000.0;
    add_row("policy_mix", "balanced", st, adt, rec_pol);
  }

  // -- kv_zipf99: the PR 8 store under its skewed headline traffic ---------
  obs::Recorder rec_kv;
  bool kv_clean = true;
  {
    RunSpec st_spec = seg_spec(false, 4);
    const KvRow st = kv_zipf_row(st_spec, 12, 16);
    RunSpec ad = seg_spec(true, 4);
    ad.recorder = &rec_kv;
    const KvRow adr = kv_zipf_row(ad, 12, 16);
    kv_clean = st.clean && adr.clean;
    add_row("kv_zipf99", "skewed", st.ms, adr.ms, rec_kv);
  }

  t.print(std::cout, csv);
  std::cout << "expectation: adaptive matches static on balanced load and "
               "wins >= 1.2x wherever one ghost is left holding the skew.\n";
  if (!kv_clean) {
    std::cerr << "ablation_adaptive: FAIL: KV history did not linearize\n";
    return 1;
  }
  if (!gate_ok) {
    std::cerr << "ablation_adaptive: FAIL: adaptive-vs-static ordering gate\n";
    return 1;
  }

  if (bench::has_flag(argc, argv, "--json")) {
    // Metrics block: the instrumented seg_skew adaptive run plus its
    // windowed rates folded in as adapt.rate.* (satellite 1's export path).
    rates.fold_into(rec_skew.metrics(), "adapt.rate.");
    const int kRuns = 3;
    const double sweep_ms = bench::host_best_of_ms(kRuns, [&] {
      seg_sweep_us(seg_spec(false, 4), true);
      seg_sweep_us(seg_spec(true, 4), true);
    });
    if (!report::write_bench_json_file(
            "BENCH_adaptive.json", "adaptive", t, &rec_skew.metrics(),
            bench::host_block_json(sweep_ms, kRuns))) {
      std::cerr << "ablation_adaptive: cannot write BENCH_adaptive.json\n";
      return 1;
    }
    std::cout << "wrote BENCH_adaptive.json\n";
  }
  return 0;
}
