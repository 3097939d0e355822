// perfbench: one pass of one benchmark workload, reported as one JSON line.
//
//   perfbench <workload> <seed> <plain|traced|counters> [shards]
//
//   plain     untraced; the end-to-end numbers come from these passes.
//   traced    HostLedger + TracingLayer attached (ledger.hpp): host time
//             split by module.
//   counters  an obs::Recorder attached, for the Casper plan-cache and
//             per-ghost counters (kept out of the traced pass so its string
//             and map work does not pollute the ledger).
//   shards    overrides the workload's engine shard count (the self-test
//             checks shard invariance and the per-shard ledger with it).
//
// Every pass verifies its own outputs (final window sums, ring values, the
// KV checker verdict) and reports failed operations, the deterministic
// virtual-time result, and a fingerprint of the final window bytes, so the
// driver (run.py) can demand identical results across pass kinds.
//
// The workloads drive only public APIs: mpi::Runtime/Env, core::layer,
// kv::KvStore/run_ops and check::LinearChecker.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/linear.hpp"
#include "core/casper.hpp"
#include "kv/kv.hpp"
#include "kv/traffic.hpp"
#include "ledger.hpp"
#include "mpi/pmpi.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"

namespace perfbench {
namespace {

using casper::mpi::AccOp;
using casper::mpi::Comm;
using casper::mpi::Env;
using casper::mpi::Win;
namespace sim = casper::sim;

/// Peak resident set (VmHWM) of this process, MB.
double vm_hwm_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::uint64_t fnv1a(const void* p, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  return h;
}

/// Seeded small integer in [1, 8]: exact in a double however many times it
/// is summed, so window sums verify exactly.
double seeded_value(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  sim::Rng r(seed, a * 1000003ull + b);
  return static_cast<double>(1 + r.next_below(8));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Length of one compute phase: 99-101 us chosen by the seed for the whole
/// run, plus up to 1 us of per-rank, per-iteration jitter. The seed-wide part
/// keeps the virtual result seed-dependent even where the slowest of many
/// ranks would otherwise saturate the jitter.
sim::Time compute_len(std::uint64_t seed, std::uint64_t stream,
                      std::uint64_t rank, std::uint64_t it) {
  sim::Rng run(seed, 0xC0);
  sim::Rng jit(seed, stream + rank * 64 + it);
  return sim::us(99) + sim::ns(run.next_below(2001)) +
         sim::ns(jit.next_below(1001));
}

/// Everything rank code reports to the host side of a pass.
struct Probe {
  HostLedger* ledger = nullptr;
  std::uint64_t t_setup_end = 0, t_measure_end = 0;
  double setup_hwm_mb = 0;
  double virt_us = 0;
  std::vector<std::uint64_t> win_hash;  ///< per world rank
  std::vector<std::uint64_t> bad_ops;   ///< per world rank

  void sized(int nranks) {
    win_hash.assign(static_cast<std::size_t>(nranks), 0);
    bad_ops.assign(static_cast<std::size_t>(nranks), 0);
  }
  /// Rank 0 has passed the set-up barrier.
  void setup_done() {
    t_setup_end = wall_ns();
    setup_hwm_mb = vm_hwm_mb();
    if (ledger != nullptr) ledger->set_phase(kMeasured);
  }
  /// Rank 0 has passed the barrier closing the measured phase.
  void measure_done() {
    t_measure_end = wall_ns();
    if (ledger != nullptr) ledger->set_phase(kTail);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Machine and seed; the layer is decided by casper().
  virtual casper::mpi::RunConfig config(std::uint64_t seed) = 0;
  /// Casper configuration, or null for original MPI (plain Pmpi).
  virtual const casper::core::Config* casper() const { return nullptr; }
  /// Rank main (application-visible world).
  virtual void main(Env& env, Probe& pr) = 0;
  /// Workload operations issued in the measured phase.
  virtual std::uint64_t ops() const = 0;
  /// Host-side verification after run(); returns failed operations found.
  virtual std::uint64_t verify() { return 0; }
  /// Extra metrics only this workload has (check/kv layers).
  virtual void extra(std::map<std::string, double>&) const {}
  /// The traced pass's ledger, for workloads with hooks of their own.
  virtual void attach(HostLedger*) {}
};

// ---------------------------------------------------------------------------
// acc_alltoall: the Casper column of Fig. 5(a). Each iteration: one
// accumulate to every peer, flush_all, about 100 us of compute (see
// compute_len), ten accumulates to every peer, flush_all, all under one
// lock_all epoch.
class AccAlltoall final : public Workload {
 public:
  static constexpr int kNodes = 128;
  static constexpr int kIters = 2;

  AccAlltoall() { cc_.ghosts_per_node = 1; }
  casper::mpi::RunConfig config(std::uint64_t seed) override {
    casper::mpi::RunConfig rc;
    rc.machine.profile = casper::net::cray_xc30_regular();
    rc.machine.topo.nodes = kNodes;
    rc.machine.topo.cores_per_node = 2;  // 1 user + 1 ghost
    rc.seed = seed;
    seed_ = seed;
    return rc;
  }
  const casper::core::Config* casper() const override { return &cc_; }
  std::uint64_t ops() const override {
    return static_cast<std::uint64_t>(kNodes) * (kNodes - 1) * 11 * kIters;
  }

  void main(Env& env, Probe& pr) override {
    const Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    void* base = nullptr;
    Win win = env.win_allocate(static_cast<std::size_t>(p) * sizeof(double),
                               sizeof(double), casper::mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    if (me == 0) pr.setup_done();
    const double v = seeded_value(seed_, 1, static_cast<std::uint64_t>(me));
    double total = 0;
    for (int it = 0; it < kIters; ++it) {
      env.barrier(w);
      const sim::Time t0 = env.now();
      for (int t = 0; t < p; ++t) {
        if (t != me) {
          env.accumulate(&v, 1, t, static_cast<std::size_t>(me), AccOp::Sum,
                         win);
        }
      }
      env.win_flush_all(win);
      env.compute(compute_len(seed_, 0x51u, static_cast<std::uint64_t>(me),
                              static_cast<std::uint64_t>(it)));
      for (int t = 0; t < p; ++t) {
        if (t == me) continue;
        for (int k = 0; k < 10; ++k) {
          env.accumulate(&v, 1, t, static_cast<std::size_t>(me), AccOp::Sum,
                         win);
        }
      }
      env.win_flush_all(win);
      total += sim::to_us(env.now() - t0);
    }
    env.barrier(w);
    if (me == 0) {
      pr.measure_done();
      pr.virt_us = total / kIters;
    }
    env.win_unlock_all(win);
    // Window verification: slot o holds origin o's 11*iters accumulates.
    const auto* cell = static_cast<const double*>(base);
    std::uint64_t bad = 0;
    for (int o = 0; o < p; ++o) {
      const double want =
          o == me ? 0.0
                  : 11.0 * kIters *
                        seeded_value(seed_, 1, static_cast<std::uint64_t>(o));
      if (cell[o] != want) bad += 11 * kIters;
    }
    const auto wr = static_cast<std::size_t>(env.world_rank());
    pr.bad_ops[wr] = bad;
    pr.win_hash[wr] = fnv1a(base, static_cast<std::size_t>(p) * sizeof(double));
    env.win_free(win);
  }

 private:
  casper::core::Config cc_;
  std::uint64_t seed_ = 0;
};

// ---------------------------------------------------------------------------
// dense_node: the Fig. 6(a) shape. 16 users and 8 ghosts per node with rank
// binding; every user accumulates to every peer (starting at a seeded peer)
// `kRounds` times in one lock_all epoch. Casper window set-up, which builds
// per-user epoch state for every node-local user pair, dominates the pass.
class DenseNode final : public Workload {
 public:
  static constexpr int kNodes = 16;
  static constexpr int kUsers = 16;
  static constexpr int kGhosts = 8;
  static constexpr int kRounds = 2;

  DenseNode() {
    cc_.ghosts_per_node = kGhosts;
    cc_.binding = casper::core::Binding::Rank;
  }
  casper::mpi::RunConfig config(std::uint64_t seed) override {
    casper::mpi::RunConfig rc;
    rc.machine.profile = casper::net::cray_xc30_regular();
    rc.machine.topo.nodes = kNodes;
    rc.machine.topo.cores_per_node = kUsers + kGhosts;
    rc.seed = seed;
    seed_ = seed;
    return rc;
  }
  const casper::core::Config* casper() const override { return &cc_; }
  std::uint64_t ops() const override {
    const std::uint64_t p = static_cast<std::uint64_t>(kNodes) * kUsers;
    return p * (p - 1) * kRounds;
  }

  void main(Env& env, Probe& pr) override {
    const Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    void* base = nullptr;
    Win win = env.win_allocate(static_cast<std::size_t>(p) * sizeof(double),
                               sizeof(double), casper::mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    if (me == 0) pr.setup_done();
    const double v = seeded_value(seed_, 2, static_cast<std::uint64_t>(me));
    sim::Rng start_rng(seed_, 0x6a00u + static_cast<std::uint64_t>(me));
    const int start = static_cast<int>(start_rng.next_below(
        static_cast<std::uint64_t>(p)));
    const sim::Time t0 = env.now();
    for (int k = 0; k < kRounds; ++k) {
      for (int i = 0; i < p; ++i) {
        const int t = (start + i) % p;
        if (t != me) {
          env.accumulate(&v, 1, t, static_cast<std::size_t>(me), AccOp::Sum,
                         win);
        }
      }
    }
    env.win_flush_all(win);
    env.barrier(w);
    const double us = sim::to_us(env.now() - t0);
    double us_max = 0;
    env.allreduce(&us, &us_max, 1, casper::mpi::Dt::Double, AccOp::Max, w);
    if (me == 0) {
      pr.measure_done();
      pr.virt_us = us_max;
    }
    env.win_unlock_all(win);
    const auto* cell = static_cast<const double*>(base);
    std::uint64_t bad = 0;
    for (int o = 0; o < p; ++o) {
      const double want =
          o == me ? 0.0
                  : kRounds *
                        seeded_value(seed_, 2, static_cast<std::uint64_t>(o));
      if (cell[o] != want) bad += kRounds;
    }
    const auto wr = static_cast<std::size_t>(env.world_rank());
    pr.bad_ops[wr] = bad;
    pr.win_hash[wr] = fnv1a(base, static_cast<std::size_t>(p) * sizeof(double));
    env.win_free(win);
  }

 private:
  casper::core::Config cc_;
  std::uint64_t seed_ = 0;
};

// ---------------------------------------------------------------------------
// kv_zipf: the KV store with CasSpin bucket locks under Zipf s=0.99 over 64
// keys, 75% GET / 25% PUT with 4 us mean think time, 2 nodes of 3 clients +
// 1 ghost. The linearizability checker is the history sink on every pass.
class KvZipf final : public Workload {
 public:
  static constexpr int kNodes = 2;
  static constexpr int kClientsPerNode = 3;
  static constexpr int kOpsPerClient = 20000;

  KvZipf() { cc_.ghosts_per_node = 1; }
  casper::mpi::RunConfig config(std::uint64_t seed) override {
    casper::mpi::RunConfig rc;
    rc.machine.profile = casper::net::cray_xc30_regular();
    rc.machine.topo.nodes = kNodes;
    rc.machine.topo.cores_per_node = kClientsPerNode + 1;
    rc.seed = seed;
    tc_.nkeys = 64;
    tc_.zipf_s = 0.99;
    tc_.read_pct = 75;
    tc_.rmw_pct = 0;
    tc_.ops_per_client = kOpsPerClient;
    tc_.think_mean = sim::us(4);
    tc_.seed = seed;
    ops_ = casper::kv::make_ops(tc_, kNodes * kClientsPerNode);
    return rc;
  }
  const casper::core::Config* casper() const override { return &cc_; }
  std::uint64_t ops() const override { return ops_.size(); }
  void attach(HostLedger* l) override { ledger_ = l; }

  void main(Env& env, Probe& pr) override {
    casper::kv::KvConfig kc;
    kc.nbuckets = 32;
    kc.assoc = 4;
    casper::kv::KvStore store(env, kc, env.world());
    std::unique_ptr<TimedSink> timed;
    if (ledger_ != nullptr) {
      timed = std::make_unique<TimedSink>(checker_, *ledger_);
    }
    store.set_sink(timed ? static_cast<casper::kv::HistorySink*>(timed.get())
                         : &checker_);
    store.open();
    env.barrier(env.world());
    const bool root = env.rank(env.world()) == 0;
    if (root) pr.setup_done();
    const sim::Time t0 = env.now();
    casper::kv::run_ops(env, store, ops_, ops_.size(), tc_);
    env.barrier(env.world());
    if (root) {
      pr.measure_done();
      pr.virt_us = sim::to_us(env.now() - t0);
    }
    store.close();
    if (root) {
      stats_ = store.global_stats();
      pr.win_hash[static_cast<std::size_t>(env.world_rank())] =
          store.fingerprint();
    }
  }

  std::uint64_t verify() override {
    const std::uint64_t t0 = wall_ns();
    const auto& violations = checker_.check();
    linear_ns_ = wall_ns() - t0;
    std::uint64_t failed = stats_.overflows;
    if (stats_.ops() < ops_.size()) failed += ops_.size() - stats_.ops();
    for (const auto& v : violations) {
      for (const auto& op : ops_) failed += op.key == v.key ? 1 : 0;
    }
    return failed;
  }

  void extra(std::map<std::string, double>& m) const override {
    m["check.linear_ns"] = static_cast<double>(linear_ns_);
    m["check.ops_checked"] = static_cast<double>(checker_.ops_recorded());
    const auto acquires = static_cast<double>(stats_.lock_acquires);
    const auto retries = static_cast<double>(stats_.lock_retries);
    m["kv.lock_retries_per_op"] =
        ratio(retries, static_cast<double>(stats_.ops()));
    m["kv.useful_ratio"] = ratio(acquires, acquires + retries);
  }

 private:
  casper::core::Config cc_;
  casper::kv::TrafficConfig tc_;
  std::vector<casper::kv::KvOp> ops_;
  casper::check::LinearChecker checker_;
  HostLedger* ledger_ = nullptr;
  casper::kv::KvStats stats_;
  std::uint64_t linear_ns_ = 0;
};

// ---------------------------------------------------------------------------
// xl_tiled: the fig5xl shape in original MPI (no Casper). 8 ranks per node,
// 64-rank tiles; each iteration does a degree-8 accumulate, about 100 us
// compute, a 4-put burst per neighbour, a tile-stride p2p ring across nodes,
// and a barrier. Accumulates and puts land in separate window halves so both
// verify. It runs on one engine shard: two shards are faster, but their
// host times spread too widely between runs to gate on (the self-test runs
// it on two shards for shard invariance instead).
class XlTiled final : public Workload {
 public:
  static constexpr int kRanks = 1024;
  static constexpr int kPerNode = 8;
  static constexpr int kTile = 64;
  static constexpr int kDegree = 8;
  static constexpr int kBurst = 4;
  static constexpr int kIters = 4;

  casper::mpi::RunConfig config(std::uint64_t seed) override {
    casper::mpi::RunConfig rc;
    rc.machine.profile = casper::net::cray_xc30_regular();
    rc.machine.topo.nodes = kRanks / kPerNode;
    rc.machine.topo.cores_per_node = kPerNode;
    rc.seed = seed;
    seed_ = seed;
    return rc;
  }
  std::uint64_t ops() const override {
    return static_cast<std::uint64_t>(kRanks) * kDegree * (1 + kBurst) *
           kIters;
  }

  void main(Env& env, Probe& pr) override {
    const Comm w = env.world();
    const int p = env.size(w);
    const int me = env.rank(w);
    const Comm tile = env.comm_split(w, me / kTile, me);
    const int tn = env.size(tile);
    const int tr = env.rank(tile);
    void* base = nullptr;
    Win win = env.win_allocate(
        2 * static_cast<std::size_t>(tn) * sizeof(double), sizeof(double),
        casper::mpi::Info{}, tile, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    if (me == 0) pr.setup_done();
    const auto id = static_cast<std::uint64_t>(me);
    const double va = seeded_value(seed_, 3, id);
    const int src = (me + p - kTile) % p;
    std::uint64_t bad = 0;
    const sim::Time start = env.now();
    for (int it = 0; it < kIters; ++it) {
      for (int k = 1; k <= kDegree; ++k) {
        env.accumulate(&va, 1, (tr + k) % tn, static_cast<std::size_t>(tr),
                       AccOp::Sum, win);
      }
      env.win_flush_all(win);
      env.compute(
          compute_len(seed_, 0x7700000u, id, static_cast<std::uint64_t>(it)));
      const double vp = seeded_value(seed_, 4 + static_cast<std::uint64_t>(it),
                                     id);
      for (int k = 1; k <= kDegree; ++k) {
        for (int b = 0; b < kBurst; ++b) {
          env.put(&vp, 1, (tr + k) % tn,
                  static_cast<std::size_t>(tn + tr), win);
        }
      }
      env.win_flush_all(win);
      double ring = 0.0;
      casper::mpi::Request reqs[2];
      reqs[0] = env.irecv(&ring, 1, casper::mpi::Dt::Double, src, 7, w);
      reqs[1] = env.isend(&vp, 1, casper::mpi::Dt::Double, (me + kTile) % p,
                          7, w);
      env.waitall(reqs, 2);
      const double want_ring = seeded_value(
          seed_, 4 + static_cast<std::uint64_t>(it),
          static_cast<std::uint64_t>(src));
      if (ring != want_ring) ++bad;
      env.barrier(w);
    }
    const sim::Time end = env.now();
    if (me == 0) {
      pr.measure_done();
      pr.virt_us = sim::to_us(end - start) / kIters;
    }
    env.win_unlock_all(win);
    // Slot o (accumulates) and tn + o (puts) are written by tile rank o when
    // o is one of this rank's kDegree predecessors.
    const auto* cell = static_cast<const double*>(base);
    const int tile0 = me - tr;
    for (int o = 0; o < tn; ++o) {
      const int d = (tr - o + tn) % tn;
      const bool writer = d >= 1 && d <= kDegree;
      const auto oid = static_cast<std::uint64_t>(tile0 + o);
      const double want_acc = writer ? kIters * seeded_value(seed_, 3, oid) : 0;
      const double want_put =
          writer ? seeded_value(seed_, 4 + kIters - 1, oid) : 0;
      if (cell[o] != want_acc) bad += kIters;
      if (cell[tn + o] != want_put) bad += kBurst;
    }
    const auto wr = static_cast<std::size_t>(env.world_rank());
    pr.bad_ops[wr] = bad;
    pr.win_hash[wr] =
        fnv1a(base, 2 * static_cast<std::size_t>(tn) * sizeof(double));
    env.win_free(win);
  }

 private:
  std::uint64_t seed_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "acc_alltoall") return std::make_unique<AccAlltoall>();
  if (name == "dense_node") return std::make_unique<DenseNode>();
  if (name == "kv_zipf") return std::make_unique<KvZipf>();
  if (name == "xl_tiled") return std::make_unique<XlTiled>();
  return nullptr;
}

/// Per-layer metrics of a traced pass, from the ledger's measured phase.
void ledger_metrics(const HostLedger& l, int nshards, bool casper,
                    double measured_ns, std::map<std::string, double>& m) {
  const auto& sh = l.shards();
  const auto n = static_cast<std::size_t>(nshards);
  auto sum = [&](auto f) {
    double s = 0;
    for (std::size_t i = 0; i < n; ++i) s += static_cast<double>(f(sh[i]));
    return s;
  };
  auto ns = [&](Cat c) {
    return sum([&](const HostLedger::Shard& s) { return s.ns[kMeasured][c]; });
  };
  auto calls = [&](Cat c) {
    return sum(
        [&](const HostLedger::Shard& s) { return s.calls[kMeasured][c]; });
  };
  auto resumes = [&](Cat c) {
    return sum(
        [&](const HostLedger::Shard& s) { return s.resumes[kMeasured][c]; });
  };
  double all_ns = 0, rank_resumes = 0;
  for (int c = 0; c < kCats; ++c) {
    all_ns += ns(static_cast<Cat>(c));
    rank_resumes += resumes(static_cast<Cat>(c));
  }
  const double events =
      sum([](const HostLedger::Shard& s) { return s.events[kMeasured]; });
  const double decisions = rank_resumes + events;
  m["sim.decisions"] = decisions;
  m["sim.rank_resumes"] = rank_resumes;
  m["sim.event_dispatches"] = events;
  m["sim.event_ns"] = ns(kEvent);
  m["sim.ns_per_decision"] = ratio(all_ns, decisions);
  double busy_max = 0, busy_sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double b = static_cast<double>(sh[i].cpu_end - sh[i].cpu_start);
    busy_max = std::max(busy_max, b);
    busy_sum += b;
  }
  m["sim.shard_busy_max_over_mean"] =
      ratio(busy_max, busy_sum / static_cast<double>(n));

  // The decorator wraps Casper when it is installed, Pmpi otherwise.
  // Metrics of the layer a workload does not call are left out (read 0).
  const std::string layer = casper ? "core." : "mpi.";
  m[layer + "rma_call_ns_per_op"] = ratio(ns(kRma), calls(kRma));
  m[layer + "sync_call_ns"] = ns(kSync);
  if (casper) {
    m["core.ghost_ns"] = ns(kGhost);
    m["core.ghost_share"] = ratio(ns(kGhost), all_ns);
    // Window calls happen in set-up: count every phase.
    double win_ns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const auto& phase : sh[i].ns) {
        win_ns += static_cast<double>(phase[kWin]);
      }
    }
    m["core.win_call_ns"] = win_ns;
  } else {
    m["mpi.sync_call_share"] = ratio(ns(kSync), all_ns);
    m["mpi.sync_ns_per_resume"] = ratio(ns(kSync), resumes(kSync));
    m["mpi.coll_call_ns"] = ns(kColl);
  }
  m["check.record_ns"] = ns(kCheck);
  m["kv.client_ns"] = ns(kApp);
  m["trace.ledger_coverage"] =
      ratio(all_ns, measured_ns * static_cast<double>(n));
}

void print_json(const std::map<std::string, double>& m) {
  std::printf("{");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}\n");
}

int run(const std::string& wl_name, std::uint64_t seed,
        const std::string& mode, int shards) {
  std::unique_ptr<Workload> wl = make_workload(wl_name);
  if (!wl || (mode != "plain" && mode != "traced" && mode != "counters")) {
    std::fprintf(stderr,
                 "usage: perfbench <acc_alltoall|dense_node|kv_zipf|xl_tiled>"
                 " <seed> <plain|traced|counters>\n");
    return 2;
  }
  const double hwm0 = vm_hwm_mb();
  const std::uint64_t t_begin = wall_ns();

  casper::mpi::RunConfig rc = wl->config(seed);
  if (shards > 0) rc.shards = shards;
  // Only counters are read, so a tiny per-entity trace ring keeps memory
  // flat (the default ring costs gigabytes at thousands of ranks).
  casper::obs::Recorder rec(16);
  const casper::core::Config* cc = wl->casper();
  if (mode == "counters") {
    if (cc == nullptr) {
      std::fprintf(stderr,
                   "perfbench: counters pass needs a Casper workload\n");
      return 2;
    }
    rc.recorder = &rec;
  }
  const int nranks = rc.machine.topo.nranks();

  std::unique_ptr<HostLedger> ledger;
  casper::mpi::LayerFactory factory =
      cc != nullptr ? casper::core::layer(*cc) : nullptr;
  if (mode == "traced") {
    std::vector<bool> ghost(static_cast<std::size_t>(nranks), false);
    for (int r = 0; cc != nullptr && r < nranks; ++r) {
      ghost[static_cast<std::size_t>(r)] =
          casper::core::is_ghost_rank(rc.machine.topo, *cc, r);
    }
    ledger = std::make_unique<HostLedger>(rc.shards, std::move(ghost));
    factory = [inner = factory, l = ledger.get()](casper::mpi::Runtime& rt)
        -> std::shared_ptr<casper::mpi::Layer> {
      std::shared_ptr<casper::mpi::Layer> in =
          inner ? inner(rt) : std::make_shared<casper::mpi::Pmpi>(rt);
      return std::make_shared<TracingLayer>(std::move(in), *l);
    };
  }
  wl->attach(ledger.get());

  Probe pr;
  pr.ledger = ledger.get();
  pr.sized(nranks);
  std::map<std::string, double> m;
  int nshards = 1;
  const std::uint64_t t_construct = wall_ns();
  {
    casper::mpi::Runtime rt(
        rc, [&](Env& env) { wl->main(env, pr); }, factory);
    nshards = rt.engine().shards();
    if (ledger) rt.engine().set_sched_observer(ledger.get());
    rt.run();
    if (ledger) ledger->finish();
    sim::Stats& st = rt.stats();
    for (const char* k : {"sw_ops", "hw_ops", "am_prompt", "am_busy_arrival",
                          "p2p_msgs", "atomicity_violations"}) {
      m[std::string("mpi.") + k] = static_cast<double>(st.get(k));
    }
  }
  std::uint64_t failed = wl->verify();
  for (std::uint64_t b : pr.bad_ops) failed += b;
  failed += static_cast<std::uint64_t>(m["mpi.atomicity_violations"]);
  const std::uint64_t t_end = wall_ns();

  std::uint64_t fp = 1469598103934665603ull;
  for (std::uint64_t h : pr.win_hash) fp = fnv1a(&h, sizeof h, fp);

  const double measured_ns =
      static_cast<double>(pr.t_measure_end - pr.t_setup_end);
  m["wall_s"] = static_cast<double>(t_end - t_begin) * 1e-9;
  m["setup_s"] = static_cast<double>(pr.t_setup_end - t_construct) * 1e-9;
  m["sim_ops_per_host_s"] =
      static_cast<double>(wl->ops()) / (measured_ns * 1e-9);
  m["virt_result_us"] = pr.virt_us;
  m["ops"] = static_cast<double>(wl->ops());
  m["failed"] = static_cast<double>(failed);
  // Low 52 bits: exact in a double.
  m["fingerprint"] = static_cast<double>(fp & ((1ull << 52) - 1));
  m["core.setup_rss_mb"] = pr.setup_hwm_mb - hwm0;
  wl->extra(m);
  if (ledger) ledger_metrics(*ledger, nshards, cc != nullptr, measured_ns, m);
  if (mode == "counters") {
    const auto& c = rec.metrics().counters();
    auto get = [&](const std::string& k) {
      const auto it = c.find(k);
      return it == c.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double hit = get("casper.plan_cache_hit");
    m["core.plan_cache_hit_ratio"] =
        ratio(hit, hit + get("casper.plan_cache_miss"));
    m["core.redirected_ops"] = get("casper.redirected_ops");
    double smax = 0, ssum = 0, nghost = 0;
    for (int r = 0; r < nranks; ++r) {
      if (!casper::core::is_ghost_rank(rc.machine.topo, *cc, r)) continue;
      const double s = get("ghost." + std::to_string(r) + ".service_ops");
      smax = std::max(smax, s);
      ssum += s;
      nghost += 1;
    }
    m["core.ghost_service_max_over_mean"] =
        ratio(smax, nghost > 0 ? ssum / nghost : 0);
  }
  m["peak_rss_mb"] = vm_hwm_mb();
  print_json(m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc != 4 && argc != 5) {
    std::fprintf(stderr,
                 "usage: perfbench <workload> <seed> <mode> [shards]\n");
    return 2;
  }
  return perfbench::run(argv[1], std::strtoull(argv[2], nullptr, 10), argv[3],
                        argc == 5 ? std::atoi(argv[4]) : 0);
}
