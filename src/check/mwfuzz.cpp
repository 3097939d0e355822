#include "check/mwfuzz.hpp"

#include <cinttypes>
#include <cstdio>

#include "check/oracle.hpp"
#include "check/race.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"
#include "progress/progress.hpp"
#include "sim/rng.hpp"

namespace casper::check {

namespace {

void apply_bug(mwcas::MwConfig& mc, MwBug bug) {
  mc.bug_skip_help = bug == MwBug::SkipHelp;
  mc.bug_torn_install = bug == MwBug::TornInstall;
  mc.bug_stale_status = bug == MwBug::StaleStatus;
}

}  // namespace

bool mw_outcomes_differ(const MwCase& fc, const MwOutcome& a,
                        const MwOutcome& b) {
  // Thread-mode progress polling quantizes AM service instants, and a
  // dynamic-LB Casper config routes through load state consumed in arrival
  // order; in both, equal-time arrivals are legal ties whose resolution can
  // shift op timing and therefore flip contended CAS races. Every resolution
  // is a legal linearizable execution — each run is still individually gated
  // on checker/oracle/race/atomicity — but no cross-schedule bit-match claim
  // is sound there.
  // An active fault plan is tie-prone too: injected delays and the reliable
  // layer's retransmission timers are drawn/armed in arrival order.
  // So is multi-ghost Casper, even statically bound: clients bound to
  // DIFFERENT ghost service loops have deterministic, equal-length service
  // intervals that can retire at the same virtual instant (one ghost
  // serializes everything; two don't), and the tie order decides which
  // contended CAS lands first.
  const bool timed_ties =
      fc.mode == KvMode::Thread ||
      (fc.mode == KvMode::Casper &&
       (fc.dynamic != core::DynamicLb::None || fc.ghosts > 1)) ||
      fc.fault_plan.active();
  if (timed_ties) return false;
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
  fc.nodes = 1 + static_cast<int>(rng.next_below(2));
  fc.users_per_node = 1 + static_cast<int>(rng.next_below(3));
  if (fc.nodes * fc.users_per_node < 2) fc.users_per_node = 2;
  fc.ghosts = 1 + static_cast<int>(rng.next_below(2));
  switch (rng.next_below(4)) {
    case 0: fc.mode = KvMode::Original; break;
    case 1: fc.mode = KvMode::Thread; break;
    default: fc.mode = KvMode::Casper; break;
  }
  fc.binding =
      rng.next_below(2) ? core::Binding::Segment : core::Binding::Rank;
  switch (rng.next_below(4)) {
    case 0: fc.dynamic = core::DynamicLb::None; break;
    case 1: fc.dynamic = core::DynamicLb::Random; break;
    case 2: fc.dynamic = core::DynamicLb::OpCounting; break;
    default: fc.dynamic = core::DynamicLb::ByteCounting; break;
  }
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
  for (int c = 0; c < fc.nclients(); ++c) {
    crng.emplace_back(seed, 0x300 + static_cast<std::uint64_t>(c));
  }
  // Client-minor interleave, like kv::make_ops: a global prefix truncation
  // cuts every client's program evenly.
  for (int k = 0; k < opsper; ++k) {
    for (int c = 0; c < fc.nclients(); ++c) {
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
  const bool sharded = shards > 1;
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = fc.nodes;
  rc.machine.topo.cores_per_node =
      fc.mode == KvMode::Casper ? fc.users_per_node + fc.ghosts
                                : fc.users_per_node;
  rc.seed = fc.seed;
  rc.perturb_seed = sharded ? 0 : perturb_seed;
  rc.shards = shards;
  if (!sharded && fc.fault_plan.active()) rc.fault = &fc.fault_plan;
  if (fc.mode == KvMode::Thread) {
    rc.progress.kind = progress::Kind::Thread;
    rc.progress.oversubscribed = true;
  }

  obs::Recorder rec;
  if (obs::kTraceCompiled) {
    rc.recorder = &rec;
    if (sharded) rec.set_shards(shards);
  }

  mwcas::MwConfig mc = fc.mw;
  apply_bug(mc, fc.bug);

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

  core::Config cc;
  cc.ghosts_per_node = fc.ghosts;
  cc.binding = fc.binding;
  cc.dynamic = fc.dynamic;
  mpi::Runtime rt(rc, body,
                  fc.mode == KvMode::Casper ? core::layer(cc)
                                            : mpi::LayerFactory{});
  if (!sharded) rt.add_observer(&oracle);
  rt.add_observer(&race);
  rt.add_observer(&checker);
  rt.run();

  if (obs::kTraceCompiled) {
    rec.merge_shards();
    checker.set_recorder(&rec);
    race.set_recorder(&rec);
  }
  out.violations = checker.check().size();
  for (const MwChecker::Violation& v : checker.check()) {
    out.diags.push_back(v.diag);
    if (out.diags.size() >= 4) break;
  }
  out.history_hash = checker.history_hash();
  out.semantic_hash = checker.semantic_hash();
  out.checker_ops = checker.ops_recorded();
  out.atomicity = rt.stats().get("atomicity_violations");
  out.race_conflicts = race.conflict_events();
  if (!sharded) out.divergences = oracle.divergences().size();
  if (obs::kTraceCompiled) {
    for (const auto& [key, val] : rec.metrics().counters()) {
      if (key.rfind("mwcas.", 0) == 0 || key.rfind("linear.", 0) == 0) {
        out.metrics[key] = val;
      }
    }
  }
  if (fc.fault_plan.active()) {
    for (const auto& [key, val] : rt.stats().all()) {
      if (key.rfind("fault.", 0) == 0 || key.rfind("recovery.", 0) == 0) {
        out.fault_stats[key] = val;
      }
    }
  }
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
         return o.divergences > 0 || o.atomicity > 0 || o.race_conflicts > 0;
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
    return c.nclients() >= 2 && c.total_words() <= 6;
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
  std::fprintf(f,
               "case mode=%s nodes=%d users_per_node=%d ghosts=%d "
               "binding=%s dynamic=%d words_per_rank=%d bug=%s\n",
               to_string(fc.mode), fc.nodes, fc.users_per_node, fc.ghosts,
               binding_name(fc.binding), static_cast<int>(fc.dynamic),
               fc.words_per_rank, to_string(fc.bug));
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

void MwWorkload::write_diags(std::FILE* f, const MwOutcome& out) {
  for (const std::string& d : out.diags) put_lines(f, "violation", d);
  std::fprintf(f, "history_hash %" PRIu64 "\n", out.history_hash);
  std::fprintf(f, "checker_ops %zu\n", out.checker_ops);
}

}  // namespace casper::check
