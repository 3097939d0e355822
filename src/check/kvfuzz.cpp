#include "check/kvfuzz.hpp"

#include <cinttypes>
#include <cstdio>

#include "check/oracle.hpp"
#include "mpi/runtime.hpp"
#include "sim/rng.hpp"

namespace casper::check {

KvCase make_kv_case(std::uint64_t seed, bool reduced, int ops_per_client) {
  sim::Rng rng(seed, 0x6b76);
  KvCase fc;
  fc.seed = seed;
  draw_topology(rng, fc);
  switch (rng.next_below(4)) {
    case 0: fc.mode = Mode::Original; break;
    case 1: fc.mode = Mode::Thread; break;
    default: fc.mode = Mode::Casper; break;  // Casper twice as often
  }
  draw_routing(rng, fc);
  // Tiny tables keep every bucket hot: collisions, overflow PUTs, and lock
  // contention all happen at ctest scale.
  fc.store.nbuckets = 2 + static_cast<int>(rng.next_below(6));
  fc.store.assoc = 1 + static_cast<int>(rng.next_below(3));
  fc.store.lock = rng.next_below(2) ? kv::KvConfig::LockKind::FaoTicket
                                    : kv::KvConfig::LockKind::CasSpin;
  fc.traffic.nkeys = 2 + static_cast<int>(rng.next_below(14));
  switch (rng.next_below(4)) {
    case 0: fc.traffic.zipf_s = 0.0; break;
    case 1: fc.traffic.zipf_s = 0.6; break;
    case 2: fc.traffic.zipf_s = 0.99; break;
    default: fc.traffic.zipf_s = 1.2; break;
  }
  fc.traffic.read_pct = 20 + static_cast<int>(rng.next_below(70));
  const int room = 100 - fc.traffic.read_pct;
  fc.traffic.rmw_pct = static_cast<int>(
      rng.next_below(static_cast<std::uint64_t>(room < 60 ? room : 60) + 1));
  // Always draw, then override: replays record the override and must not
  // shift the downstream draws relative to the original generation.
  const int drawn = reduced ? 6 + static_cast<int>(rng.next_below(10))
                            : 20 + static_cast<int>(rng.next_below(30));
  fc.traffic.ops_per_client = ops_per_client > 0 ? ops_per_client : drawn;
  fc.traffic.think_mean = sim::us(1 + rng.next_below(6));
  fc.traffic.seed = seed;
  fc.ops = kv::make_ops(fc.traffic, fc.nusers());
  return fc;
}

KvOutcome run_kv_case(const KvCase& fc, std::uint64_t perturb_seed,
                      int shards, std::size_t op_limit) {
  kv::KvConfig store_cfg = fc.store;
  store_cfg.skip_unlock_flush = fc.broken_skip_flush;

  KvOutcome out;
  LinearChecker checker;
  ShadowOracle oracle;
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    kv::KvStore store(env, store_cfg, w);
    store.set_sink(&checker);
    store.open();
    kv::run_ops(env, store, fc.ops, op_limit, fc.traffic);
    store.close();
    if (env.rank(w) == 0) {
      out.end_time = env.now();
      out.fingerprint = store.fingerprint();
      out.stats = store.global_stats();
      out.acc_ops = store.acc_total(0);
    }
  };
  DeployedRun run(fc, fc.casper(), perturb_seed, shards,
                  /*on_request=*/false, body);
  // The oracle is not concurrent_safe; it only rides unsharded runs. The
  // checker is internally synchronized and rides every run.
  if (shards == 1) run.runtime().add_observer(&oracle);
  run.runtime().add_observer(&checker);
  checker.set_recorder(run.recorder());
  run.run();
  read_checker(
      checker,
      [](const LinearChecker::Violation& v) {
        return "key " + std::to_string(v.key) + ":\n" + v.diag;
      },
      out);
  if (shards == 1) out.divergences = oracle.divergences().size();
  run.snapshot(out, "kv.");
  return out;
}

std::span<const Check<KvWorkload>> KvWorkload::checks() {
  static constexpr Check<KvWorkload> kChecks[] = {
      {"kv-violation",
       [](const KvCase&, std::size_t, const KvOutcome& o) {
         return o.violations > 0;
       },
       nullptr},
      {"kv-oracle-divergence",
       [](const KvCase&, std::size_t, const KvOutcome& o) {
         return o.divergences > 0 || o.atomicity_violations > 0;
       },
       nullptr},
  };
  return kChecks;
}

std::span<const PlantedBug<KvWorkload>> KvWorkload::bugs() {
  static constexpr PlantedBug<KvWorkload> kBugs[] = {
      // The bug needs contended writes: some write traffic and at least two
      // clients hammering few keys.
      {"skip-unlock-flush", 200,
       [](const KvCase& c) {
         return c.traffic.read_pct <= 80 && c.nusers() >= 2;
       },
       [](KvCase& c) { c.broken_skip_flush = true; },
       // Heavy delay, nothing else: a jitter window much wider than the
       // PUT→release issue gap routinely commits the lock release before
       // the unflushed value PUT, so the next lock holder reads stale.
       [](KvCase& c) {
         sim::Rng rng(c.seed, 0xbadf1);
         fault::FaultPlan& fp = c.fault_plan;
         fp.seed = c.seed ^ 0x9e3779b97f4a7c15ULL;
         fp.net.delay_p = 0.45 + 0.35 * rng.next_double();
         fp.net.delay_min = sim::us(2);
         fp.net.delay_max = sim::us(10 + rng.next_below(40));
       }},
  };
  return kBugs;
}

void KvWorkload::write_case(std::FILE* f, const KvCase& fc,
                            std::size_t nops) {
  write_deployment(f, fc, /*with_mode=*/true);
  std::fprintf(
      f,
      " nbuckets=%d assoc=%d lock=%d nkeys=%d zipf=%.3f read_pct=%d "
      "rmw_pct=%d ops_per_client=%d\n",
      fc.store.nbuckets, fc.store.assoc, static_cast<int>(fc.store.lock),
      fc.traffic.nkeys, fc.traffic.zipf_s, fc.traffic.read_pct,
      fc.traffic.rmw_pct, fc.traffic.ops_per_client);
  for (std::size_t i = 0; i < nops; ++i) {
    const kv::KvOp& op = fc.ops[i];
    std::fprintf(f,
                 "op %zu client=%d kind=%d key=%" PRIu64 " val=%lld "
                 "think=%" PRIu64 "\n",
                 i, op.client, op.kind, op.key,
                 static_cast<long long>(op.val), op.think);
  }
}

}  // namespace casper::check
