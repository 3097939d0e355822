#include "check/mwfuzz.hpp"

#include <cinttypes>
#include <cstdio>

#include "check/oracle.hpp"
#include "check/race.hpp"
#include "mpi/runtime.hpp"
#include "sim/rng.hpp"

namespace casper::check {

bool mw_outcomes_differ(const MwCase& fc, const MwOutcome& a,
                        const MwOutcome& b) {
  const bool timed_ties =
      fc.mode == Mode::Thread ||
      (fc.mode == Mode::Casper &&
       (fc.dynamic != core::DynamicLb::None || fc.ghosts > 1)) ||
      fc.fault_plan.active();
  if (timed_ties) return false;
  if (a.simultaneous_arrivals != 0 || b.simultaneous_arrivals != 0) {
    return false;  // an inbox served a same-nanosecond pair in tie order
  }
  return a.semantic_hash != b.semantic_hash ||
         a.fingerprint != b.fingerprint ||
         a.history_hash != b.history_hash || a.end_time != b.end_time ||
         !(a.stats == b.stats);
}

const char* to_string(MwBug b) {
  switch (b) {
    case MwBug::None: return "none";
    case MwBug::SkipHelp: return "skip-help";
    case MwBug::TornInstall: return "torn-install";
    case MwBug::StaleStatus: return "stale-status";
  }
  return "?";
}

MwCase make_mw_case(std::uint64_t seed, bool reduced, int ops_per_client) {
  sim::Rng rng(seed, 0x6d77);
  MwCase fc;
  fc.seed = seed;
  draw_topology(rng, fc);
  switch (rng.next_below(4)) {
    case 0: fc.mode = Mode::Original; break;
    case 1: fc.mode = Mode::Thread; break;
    default: fc.mode = Mode::Casper; break;
  }
  draw_routing(rng, fc);
  // A deliberately tiny heap: descriptors collide, helpers run, and the
  // hot-head draw below concentrates most ops on the first few words.
  fc.words_per_rank = 1 + static_cast<int>(rng.next_below(2));
  const int total = fc.total_words();
  const int hot = total < 4 ? total : 4;
  // Always draw, then override (repro files record the override).
  const int drawn = reduced ? 4 + static_cast<int>(rng.next_below(8))
                            : 12 + static_cast<int>(rng.next_below(20));
  const int opsper = ops_per_client > 0 ? ops_per_client : drawn;
  const int max_width = total < 4 ? total : 4;

  // Per-client RNG streams keep each client's program (and think times)
  // independent of every other client's draws — and tie-free.
  std::vector<sim::Rng> crng;
  for (int c = 0; c < fc.nusers(); ++c) {
    crng.emplace_back(seed, 0x300 + static_cast<std::uint64_t>(c));
  }
  // Client-minor interleave, like kv::make_ops: a global prefix truncation
  // cuts every client's program evenly.
  for (int k = 0; k < opsper; ++k) {
    for (int c = 0; c < fc.nusers(); ++c) {
      sim::Rng& r = crng[static_cast<std::size_t>(c)];
      MwProgOp op;
      op.client = c;
      op.think = sim::us(1) + r.next_below(sim::us(3));
      const std::uint64_t kindroll = r.next_below(10);
      if (kindroll < 3) {
        op.width = 0;  // read
        op.word[0] = static_cast<int>(
            r.next_below(2) ? r.next_below(static_cast<std::uint64_t>(hot))
                            : r.next_below(static_cast<std::uint64_t>(total)));
      } else {
        op.width = 1 + static_cast<int>(
                           r.next_below(static_cast<std::uint64_t>(max_width)));
        op.stale = r.next_below(4) == 0;
        for (int i = 0; i < op.width; ++i) {
          for (;;) {
            const int w = static_cast<int>(
                r.next_below(2)
                    ? r.next_below(static_cast<std::uint64_t>(hot))
                    : r.next_below(static_cast<std::uint64_t>(total)));
            bool dup = false;
            for (int j = 0; j < i; ++j) dup = dup || op.word[j] == w;
            if (!dup) {
              op.word[i] = w;
              break;
            }
          }
        }
      }
      fc.ops.push_back(op);
    }
  }
  return fc;
}

MwOutcome run_mw_case(const MwCase& fc, std::uint64_t perturb_seed,
                      int shards, std::size_t op_limit) {
  mwcas::MwConfig mc = fc.mw;
  mc.bug_skip_help = fc.bug == MwBug::SkipHelp;
  mc.bug_torn_install = fc.bug == MwBug::TornInstall;
  mc.bug_stale_status = fc.bug == MwBug::StaleStatus;

  MwOutcome out;
  MwChecker checker;
  ShadowOracle oracle;
  RaceAnalyzer race;
  const int wpr = fc.words_per_rank;
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    mwcas::MwHeap heap(env, w, wpr, mc);
    heap.open();
    mwcas::Mwcas& mw = heap.mw();
    const auto rank_of = [wpr](int gw) { return gw / wpr; };
    const auto off_of = [wpr](int gw) {
      return static_cast<std::size_t>(gw % wpr) * 8;
    };
    // Staggered starts keep the workload tie-free under every schedule.
    env.compute(sim::ns(211) * static_cast<sim::Time>(me + 1));
    std::uint64_t cseq = 0;
    const auto read_logged = [&](int gw) {
      MwEvent g;
      g.kind = MwEvent::Kind::Read;
      g.client = me;
      g.cseq = cseq++;
      g.width = 1;
      g.word[0] = static_cast<std::uint64_t>(gw);
      g.inv = env.now();
      g.value = mw.read(rank_of(gw), off_of(gw));
      g.resp = env.now();
      checker.record(g);
      return g.value;
    };
    std::size_t gidx = 0;
    for (const MwProgOp& op : fc.ops) {
      if (gidx++ >= op_limit) break;
      if (op.client != me) continue;
      env.compute(op.think);
      if (op.width == 0) {
        read_logged(op.word[0]);
        continue;
      }
      // Gather expected values through logged reads: if a torn install or a
      // leaked descriptor is sitting in a word, the gather itself records
      // the impossible value.
      std::int64_t exp[8];
      for (int i = 0; i < op.width; ++i) exp[i] = read_logged(op.word[i]);
      if (op.stale) env.compute(op.think + sim::us(1));
      MwEvent e;
      e.kind = MwEvent::Kind::Mwcas;
      e.client = me;
      e.cseq = cseq++;
      e.width = op.width;
      mwcas::MwTarget ts[8];
      for (int i = 0; i < op.width; ++i) {
        ts[i].rank = rank_of(op.word[i]);
        ts[i].off = off_of(op.word[i]);
        ts[i].expected = exp[i];
        // Globally unique desired values (cseq strictly increases per
        // client): lost/duplicated updates are attributable.
        ts[i].desired = static_cast<std::int64_t>(me + 1) * 1000000 +
                        static_cast<std::int64_t>(e.cseq) * 16 + i;
        e.word[i] = static_cast<std::uint64_t>(op.word[i]);
        e.expected[i] = ts[i].expected;
        e.desired[i] = ts[i].desired;
      }
      e.inv = env.now();
      // A leaked descriptor pointer (skip-help bug) read during the gather
      // is not a legal expected value; clamp so the mwcas target asserts
      // hold and the op simply fails — the gather's Get already recorded
      // the violation.
      bool sane = true;
      for (int i = 0; i < op.width; ++i) {
        sane = sane && !mwcas::Mwcas::is_ptr_value(ts[i].expected);
      }
      if (sane) {
        const mwcas::MwResult r = mw.mwcas(ts, op.width);
        e.ok = r.ok;
        e.mismatch_index = r.mismatch_index;
        e.observed = r.observed;
        if (r.mismatch_index >= 0) {
          // Map the library's canonical-order index back to ours.
          // run_own sorts by (rank, off); find the matching target.
          int mi = -1;
          for (int i = 0; i < op.width && mi < 0; ++i) {
            int less = 0;
            for (int j = 0; j < op.width; ++j) {
              if (ts[j].rank < ts[i].rank ||
                  (ts[j].rank == ts[i].rank && ts[j].off < ts[i].off)) {
                ++less;
              }
            }
            if (less == r.mismatch_index) mi = i;
          }
          e.mismatch_index = mi;
        }
      } else {
        e.ok = false;
        e.mismatch_index = -1;
      }
      e.resp = env.now();
      checker.record(e);
    }
    env.barrier(w);
    // Final sweep: rank 0 reads back every heap word, so any torn value
    // still sitting in the heap lands in the checked history.
    if (me == 0) {
      for (int gw = 0; gw < fc.total_words(); ++gw) read_logged(gw);
    }
    env.barrier(w);
    // Workload end time: every op and the sweep completed and flushed. The
    // teardown below (simultaneous unlock_all from all ranks) has benign
    // scheduling ties that must not enter the invariance gate.
    if (me == 0) out.end_time = env.now();
    const mwcas::MwStats local = mw.stats();
    heap.close();
    // Cluster-wide protocol counters: exact double sums.
    constexpr int kFields = sizeof(mwcas::MwStats) / sizeof(std::uint64_t);
    const std::uint64_t* f = &local.ops;
    double in[kFields], sum[kFields];
    for (int i = 0; i < kFields; ++i) in[i] = static_cast<double>(f[i]);
    env.allreduce(in, sum, kFields, mpi::Dt::Double, mpi::AccOp::Sum, w);
    if (me == 0) {
      std::uint64_t* g = &out.stats.ops;
      for (int i = 0; i < kFields; ++i) {
        g[i] = static_cast<std::uint64_t>(sum[i]);
      }
      out.fingerprint = heap.fingerprint();
    }
  };

  DeployedRun run(fc, fc.casper(), perturb_seed, shards,
                  /*on_request=*/false, body);
  if (shards == 1) run.runtime().add_observer(&oracle);
  run.runtime().add_observer(&race);
  run.runtime().add_observer(&checker);
  checker.set_recorder(run.recorder());
  run.run();
  out.simultaneous_arrivals = run.runtime().simultaneous_arrivals();
  read_checker(
      checker, [](const MwChecker::Violation& v) { return v.diag; }, out);
  out.semantic_hash = checker.semantic_hash();
  out.race_conflicts = race.conflict_events();
  if (shards == 1) out.divergences = oracle.divergences().size();
  run.snapshot(out, "mwcas.");
  return out;
}

std::span<const Check<MwWorkload>> MwWorkload::checks() {
  static constexpr Check<MwWorkload> kChecks[] = {
      {"mwcas-violation",
       [](const MwCase&, std::size_t, const MwOutcome& o) {
         return o.violations > 0;
       },
       nullptr},
      {"mwcas-oracle-divergence",
       [](const MwCase&, std::size_t, const MwOutcome& o) {
         return o.divergences > 0 || o.atomicity_violations > 0 ||
                o.race_conflicts > 0;
       },
       nullptr},
      // Exact-match invariance across schedules for event-driven configs
      // (see mw_outcomes_differ for the exempt, legally tie-prone ones).
      {"mwcas-mismatch", nullptr,
       [](const MwCase& c, const MwOutcome& o, const MwOutcome& ref) {
         return mw_outcomes_differ(c, ref, o);
       }},
  };
  return kChecks;
}

std::span<const PlantedBug<MwWorkload>> MwWorkload::bugs() {
  // Every bug needs real contention: several clients hammering a word pool
  // small enough that descriptors collide mid-protocol.
  constexpr auto contended = [](const MwCase& c) {
    return c.nusers() >= 2 && c.total_words() <= 6;
  };
  static constexpr PlantedBug<MwWorkload> kBugs[] = {
      {"skip-help", 200, contended,
       [](MwCase& c) { c.bug = MwBug::SkipHelp; }, nullptr},
      {"torn-install", 200, contended,
       [](MwCase& c) { c.bug = MwBug::TornInstall; }, nullptr},
      {"stale-status", 200, contended,
       [](MwCase& c) { c.bug = MwBug::StaleStatus; }, nullptr},
  };
  return kBugs;
}

void MwWorkload::write_case(std::FILE* f, const MwCase& fc,
                            std::size_t nops) {
  write_deployment(f, fc, /*with_mode=*/true);
  std::fprintf(f, " words_per_rank=%d bug=%s\n", fc.words_per_rank,
               to_string(fc.bug));
  for (std::size_t i = 0; i < nops; ++i) {
    const MwProgOp& op = fc.ops[i];
    std::fprintf(f, "op %zu client=%d width=%d stale=%d think=%" PRIu64
                    " words=",
                 i, op.client, op.width, op.stale ? 1 : 0, op.think);
    const int nw = op.width == 0 ? 1 : op.width;
    for (int j = 0; j < nw; ++j) {
      std::fprintf(f, "%s%d", j == 0 ? "" : ",", op.word[j]);
    }
    std::fprintf(f, "\n");
  }
}

}  // namespace casper::check
