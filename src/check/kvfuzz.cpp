#include "check/kvfuzz.hpp"

#include <cinttypes>
#include <cstdio>

#include "check/oracle.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"
#include "progress/progress.hpp"
#include "sim/rng.hpp"

namespace casper::check {

const char* to_string(KvMode m) {
  switch (m) {
    case KvMode::Original: return "original";
    case KvMode::Thread: return "thread";
    case KvMode::Casper: return "casper";
  }
  return "?";
}

KvCase make_kv_case(std::uint64_t seed, bool reduced, int ops_per_client) {
  sim::Rng rng(seed, 0x6b76);
  KvCase fc;
  fc.seed = seed;
  fc.nodes = 1 + static_cast<int>(rng.next_below(2));
  fc.users_per_node = 1 + static_cast<int>(rng.next_below(3));
  if (fc.nodes * fc.users_per_node < 2) fc.users_per_node = 2;
  fc.ghosts = 1 + static_cast<int>(rng.next_below(2));
  switch (rng.next_below(4)) {
    case 0: fc.mode = KvMode::Original; break;
    case 1: fc.mode = KvMode::Thread; break;
    default: fc.mode = KvMode::Casper; break;  // Casper twice as often
  }
  fc.binding =
      rng.next_below(2) ? core::Binding::Segment : core::Binding::Rank;
  switch (rng.next_below(4)) {
    case 0: fc.dynamic = core::DynamicLb::None; break;
    case 1: fc.dynamic = core::DynamicLb::Random; break;
    case 2: fc.dynamic = core::DynamicLb::OpCounting; break;
    default: fc.dynamic = core::DynamicLb::ByteCounting; break;
  }
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
  fc.ops = kv::make_ops(fc.traffic, fc.nclients());
  return fc;
}

KvOutcome run_kv_case(const KvCase& fc, std::uint64_t perturb_seed,
                      int shards, std::size_t op_limit) {
  const bool sharded = shards > 1;
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = fc.nodes;
  rc.machine.topo.cores_per_node =
      fc.mode == KvMode::Casper ? fc.users_per_node + fc.ghosts
                                : fc.users_per_node;
  rc.seed = fc.seed;
  // Sharded engines reject perturb_seed and fault plans (runtime.hpp).
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

  kv::KvConfig store_cfg = fc.store;
  store_cfg.skip_unlock_flush = fc.broken_skip_flush;

  KvOutcome out;
  LinearChecker checker;
  ShadowOracle oracle;
  const std::vector<kv::KvOp>& ops = fc.ops;
  auto body = [&](mpi::Env& env) {
    mpi::Comm w = env.world();
    kv::KvStore store(env, store_cfg, w);
    store.set_sink(&checker);
    store.open();
    kv::run_ops(env, store, ops, op_limit, fc.traffic);
    store.close();
    if (env.rank(w) == 0) {
      out.end_time = env.now();
      out.fingerprint = store.fingerprint();
      out.stats = store.global_stats();
      out.acc_ops = store.acc_total(0);
    }
  };

  core::Config cc;
  cc.ghosts_per_node = fc.ghosts;
  cc.binding = fc.binding;
  cc.dynamic = fc.dynamic;
  mpi::Runtime rt(rc, body,
                  fc.mode == KvMode::Casper ? core::layer(cc)
                                            : mpi::LayerFactory{});
  // The oracle is not concurrent_safe; it only rides unsharded runs. The
  // checker is internally synchronized and rides every run.
  if (!sharded) rt.add_observer(&oracle);
  rt.add_observer(&checker);
  rt.run();

  if (obs::kTraceCompiled) {
    rec.merge_shards();
    checker.set_recorder(&rec);
  }
  out.violations = checker.check().size();
  for (const LinearChecker::Violation& v : checker.check()) {
    out.diags.push_back("key " + std::to_string(v.key) + ":\n" + v.diag);
    if (out.diags.size() >= 4) break;
  }
  out.history_hash = checker.history_hash();
  out.checker_ops = checker.ops_recorded();
  out.atomicity = rt.stats().get("atomicity_violations");
  if (!sharded) out.divergences = oracle.divergences().size();
  if (obs::kTraceCompiled) {
    for (const auto& [key, val] : rec.metrics().counters()) {
      if (key.rfind("kv.", 0) == 0 || key.rfind("linear.", 0) == 0) {
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

KvCase KvWorkload::generate(const Repro& r) {
  KvCase c = make_kv_case(r.seed, r.reduced);
  if (r.lockfree) c.store.lock = kv::KvConfig::LockKind::LockFree;
  return c;
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
         return o.divergences > 0 || o.atomicity > 0;
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
         return c.traffic.read_pct <= 80 && c.nclients() >= 2;
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
  std::fprintf(
      f,
      "case mode=%s nodes=%d users_per_node=%d ghosts=%d binding=%s "
      "dynamic=%d nbuckets=%d assoc=%d lock=%d nkeys=%d zipf=%.3f "
      "read_pct=%d rmw_pct=%d ops_per_client=%d\n",
      to_string(fc.mode), fc.nodes, fc.users_per_node, fc.ghosts,
      binding_name(fc.binding), static_cast<int>(fc.dynamic),
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

void KvWorkload::write_diags(std::FILE* f, const KvOutcome& out) {
  for (const std::string& d : out.diags) put_lines(f, "violation", d);
  std::fprintf(f, "history_hash %" PRIu64 "\n", out.history_hash);
  std::fprintf(f, "checker_ops %zu\n", out.checker_ops);
}

}  // namespace casper::check
