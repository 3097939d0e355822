// Runtime core: construction, progress engine, the software active-message
// path (poll / thread-agent / interrupt-agent), the lock manager with delayed
// acquisition, and atomicity-violation detection.
#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "fault/plan.hpp"
#include "mpi/check.hpp"
#include "mpi/datatype.hpp"
#include "mpi/pmpi.hpp"
#include "mpi/runtime.hpp"

namespace casper::mpi {

using sim::Time;

namespace {
/// Byte address of a window segment position.
std::byte* seg_addr(const WinImpl& win, int comm_rank, std::size_t disp_bytes) {
  return win.segs[static_cast<std::size_t>(comm_rank)].base + disp_bytes;
}

bool faultable_kind(OpKind k) {
  return k != OpKind::LockReq && k != OpKind::LockRelease;
}

/// Bytes an op puts on the wire, on the clean and the faulted transport
/// alike: a GET sends a small request and its response carries the data.
std::size_t wire_bytes(const AmOp& op) {
  return op.kind == OpKind::Get ? 16 : op.payload.size();
}
}  // namespace

/// Reliable-transport + process-fault state. Allocated only when a FaultPlan
/// is installed: an unfaulted run never touches (or pays for) any of this.
struct Runtime::FaultState {
  /// Origin-side retransmission record: the op's node is kept (payload and
  /// all) until the first ack arrives; every wire attempt sends a clone.
  struct Retrans {
    AmNode* node = nullptr;  ///< the issued op; each wire attempt clones it
    std::uint32_t attempt = 0;
  };
  std::unordered_map<std::uint64_t, Retrans> pending;

  /// Target-side dedup window: an entry exists from the moment an op is
  /// claimed for execution. Once executed, the ack payload is cached so a
  /// redelivery (late duplicate or retransmission racing the ack) re-acks
  /// idempotently WITHOUT re-executing — the redelivery of a fetch-and-op
  /// must return the original fetched value, not re-apply the op.
  struct Served {
    bool have_ack = false;
    sim::PoolBuf ack;
    int entity = 0;                 ///< entity that executed the op
    std::uint32_t ack_attempt = 0;  ///< ack-direction verdict stream cursor
  };
  std::unordered_map<std::uint64_t, Served> served;
  std::deque<std::uint64_t> served_fifo;  // bounded-window eviction order

  /// Origin-side set of completed (first-acked) opids, to ignore duplicate
  /// acks. Bounded like the dedup window.
  std::unordered_set<std::uint64_t> completed;
  std::deque<std::uint64_t> completed_fifo;

  static constexpr std::size_t kWindow = std::size_t{1} << 16;

  std::vector<char> dead;      // by world rank
  std::vector<int> successor;  // by world rank: forwarding target, -1 = none
  std::function<void(int, sim::Time)> death_handler;

  Time rto0 = 0;
  Time rto_for(std::uint32_t attempt) const {
    const std::uint32_t shift = attempt > 10 ? 10u : attempt;
    return rto0 << shift;  // exponential backoff, capped at 1024x
  }

  // Counter pointers resolved once (see HotStats): the faulted path is not
  // hot, but verdicts fire per transmission and should not pay map lookups.
  std::uint64_t* c_drops = nullptr;
  std::uint64_t* c_dups = nullptr;
  std::uint64_t* c_delays = nullptr;
  std::uint64_t* c_ack_drops = nullptr;
  std::uint64_t* c_retries = nullptr;
  std::uint64_t* c_dedup_hits = nullptr;
  std::uint64_t* c_forwards = nullptr;
  std::uint64_t* c_dead_serves = nullptr;
  std::uint64_t* c_kills = nullptr;
};

Runtime::Runtime(RunConfig cfg, std::function<void(Env&)> user_main,
                 LayerFactory layer)
    : cfg_(std::move(cfg)), user_main_(std::move(user_main)) {
  cfg_.machine.topo.validate();
  const int n = cfg_.machine.topo.nranks();
  io_.resize(static_cast<std::size_t>(n));
  dedicated_.assign(static_cast<std::size_t>(n), 0);

  std::vector<int> all(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) all[static_cast<std::size_t>(r)] = r;
  world_ = std::make_shared<CommImpl>(0, std::move(all));

  sim::Engine::Options eo;
  eo.nranks = n;
  eo.seed = cfg_.seed;
  eo.stack_bytes = cfg_.stack_bytes;
  eo.perturb_seed = cfg_.perturb_seed;
  // Sharding: partition ranks by node (never split a node across shards —
  // ghost/user traffic, shared node buffers and the per-rank io_ state then
  // stay shard-local), with conservative lookahead = the inter-node latency:
  // no cross-node event can precede it, so cross-shard posts always land at
  // or beyond the receiving shard's window end.
  const int nnodes = cfg_.machine.topo.nodes;
  const int nshards = std::clamp(cfg_.shards, 1, nnodes);
  if (nshards > 1) {
    MMPI_REQUIRE(cfg_.perturb_seed == 0,
                 "sharded runs explore one schedule; perturb_seed requires "
                 "shards == 1");
    MMPI_REQUIRE(cfg_.fault == nullptr || !cfg_.fault->active(),
                 "fault injection requires shards == 1");
    const int cpn = cfg_.machine.topo.cores_per_node;
    eo.shards = nshards;
    eo.lookahead = cfg_.machine.profile.net_latency;
    eo.shard_of = [cpn, nnodes, nshards](int r) {
      return ((r / cpn) * nshards) / nnodes;
    };
    pool_.set_thread_safe(true);
  }
  // Engine construction is cheap: rank fibers (and their stacks) are only
  // created inside run(). The rank body below therefore always sees layer_
  // assigned, even though the factory runs after this line so that it may
  // inspect the constructed engine.
  engine_ = std::make_unique<sim::Engine>(eo, [this](sim::Context& ctx) {
    Env env(*this, ctx);
    layer_->on_rank_start(env, user_main_);
  });
  // World-spanning collectives release ceil_log2(p)*barrier_stage after the
  // last arrival; shrink the lookahead so that release can never land inside
  // the releaser's own window (split/dup comms re-clamp on creation).
  if (engine_->sharded()) shard_clamp_for_members(world_->members());
  inflight_.resize(static_cast<std::size_t>(nnodes));
  opid_seq_.assign(static_cast<std::size_t>(engine_->shards()), 1);
  // A rank never changes shard, so its inbox binds its shard's arena once
  // and the per-op path does no shard lookup.
  arenas_.resize(static_cast<std::size_t>(engine_->shards()));
  for (int r = 0; r < n; ++r) {
    io_[static_cast<std::size_t>(r)].arena =
        &arenas_[static_cast<std::size_t>(engine_->shard_of_rank(r))];
  }

  // Fault state must exist before the layer factory runs: the layer's ctor
  // registers its ghost-death handler only when faults_on() is already true.
  if (cfg_.fault != nullptr && cfg_.fault->active()) {
    fs_ = std::make_unique<FaultState>();
    fs_->dead.assign(static_cast<std::size_t>(n), 0);
    fs_->successor.assign(static_cast<std::size_t>(n), -1);
    // Default retransmission timeout: several round trips of base wire +
    // handling cost, so a prompt target never triggers a spurious retry but
    // a lost message is recovered within tens of microseconds.
    fs_->rto0 = cfg_.fault->rto_base != 0
                    ? cfg_.fault->rto_base
                    : 8 * (profile().net_latency + profile().am_handling);
    fs_->c_drops = &stats().counter("fault.drops");
    fs_->c_dups = &stats().counter("fault.dups");
    fs_->c_delays = &stats().counter("fault.delays");
    fs_->c_ack_drops = &stats().counter("fault.ack_drops");
    fs_->c_retries = &stats().counter("fault.retries");
    fs_->c_dedup_hits = &stats().counter("fault.dedup_hits");
    fs_->c_forwards = &stats().counter("fault.forwards");
    fs_->c_dead_serves = &stats().counter("fault.dead_serves");
    fs_->c_kills = &stats().counter("fault.kills");
  }

  layer_ = layer ? layer(*this) : std::make_shared<Pmpi>(*this);
  MMPI_REQUIRE(layer_ != nullptr, "layer factory returned null");
  engine_->set_deadlock_dump([this] { dump_comm_state(); });

  // One HotStats per shard, each pointing into that shard's own counter
  // registry (shard_stats degrades to the global registry when unsharded, so
  // counter names and totals are unchanged; sharded registries are folded
  // into the global one after run()).
  hot_.resize(static_cast<std::size_t>(engine_->shards()));
  for (int s = 0; s < engine_->shards(); ++s) {
    sim::Stats& st = engine_->shard_stats(s);
    HotStats& h = hot_[static_cast<std::size_t>(s)];
    h.sw_ops = &st.counter("sw_ops");
    h.hw_ops = &st.counter("hw_ops");
    h.cross_numa_ops = &st.counter("cross_numa_ops");
    h.am_busy_arrival = &st.counter("am_busy_arrival");
    h.am_prompt = &st.counter("am_prompt");
    h.interrupts = &st.counter("interrupts");
  }

  if (obs::on(cfg_.recorder)) {
    for (auto* k : {&keys_.service_ops, &keys_.service_bytes, &keys_.sync})
      k->set_shards(engine_->shards());
    keys_.service_ns.set_shards(engine_->shards());
    engine_->set_sched_observer(cfg_.recorder);
    // Default track names by entity-id space; the Casper layer refines rank
    // tracks to "user N" / "ghost N" once roles are known.
    const bool agents = cfg_.progress.kind != progress::Kind::None;
    for (int e = 0; e < 3 * n; ++e) {
      if (!agents && progress::classify_entity(e, n) == progress::EntityClass::Agent)
        continue;
      cfg_.recorder->trace().set_entity_name(e, progress::entity_label(e, n));
    }
  }
}

void Runtime::dump_comm_state() const {
  for (int r = 0; r < static_cast<int>(io_.size()); ++r) {
    const auto& io = io_[static_cast<std::size_t>(r)];
    if (!io.inbox.empty() || !io.posted.empty() || !io.unexpected.empty()) {
      std::fprintf(stderr,
                   "  rank %d: inbox=%zu posted_recvs=%zu unexpected=%zu\n",
                   r, io.inbox.size(), io.posted.size(),
                   io.unexpected.size());
    }
  }
  for (const auto& wk : win_registry_) {
    auto win = wk.lock();
    if (!win) continue;
    for (int o = 0; o < win->comm()->size(); ++o) {
      const TargetEntries& entries = win->ost[static_cast<std::size_t>(o)].tgt;
      entries.each([&](const OriginTargetState& ts) {
        if (ts.outstanding != 0 || ts.has_queued() ||
            ts.lock_st == OriginTargetState::LockSt::Requested ||
            ts.release_pending) {
          std::fprintf(stderr,
                       "  win %d: origin %d -> target %d: outstanding=%d "
                       "queued=%zu lock_st=%d release_pending=%d\n",
                       win->id(), o, ts.target, ts.outstanding,
                       entries.nqueued(ts), static_cast<int>(ts.lock_st),
                       static_cast<int>(ts.release_pending));
        }
      });
    }
  }
}

// Teardown is trivial: ~Engine reclaims fiber stacks deterministically, so a
// Runtime that never ran (or whose run aborted) destructs without joining or
// waking anything.
Runtime::~Runtime() = default;

void Runtime::run() {
  if (cfg_.progress.kind == progress::Kind::Thread &&
      cfg_.progress.oversubscribed) {
    for (int r = 0; r < engine_->nranks(); ++r) {
      engine_->set_compute_scale(r, progress::kOversubScale);
    }
  }
  if (fs_) fault_setup();
  for (const RmaObserver* o : observers_) {
    MMPI_REQUIRE(!engine_->sharded() || o->concurrent_safe(),
                 "this conformance observer assumes a single-threaded "
                 "schedule; detach it or run with shards == 1");
  }
  if (obs::on(recorder())) recorder()->set_shards(engine_->shards());
  engine_->run();
  if (obs::on(recorder())) recorder()->merge_shards();
  // Snapshot buffer-pool effectiveness into the metrics block. These are
  // host-side allocator statistics, not virtual-time facts: reuse depends on
  // the interleaving of staging buffers, so "pool.*" keys are exempt from
  // the schedule-invariance contract the other counters obey.
  if (obs::on(recorder())) {
    recorder()->metrics().counter("pool.bytes_reused") = pool_.bytes_reused();
    recorder()->metrics().counter("pool.reuses") = pool_.reuses();
    if (fs_) {
      // Mirror the fault/recovery counters (accumulated in engine stats so
      // tests can read them without a recorder) into the metrics block.
      for (const char* key :
           {"fault.drops", "fault.dups", "fault.delays", "fault.ack_drops",
            "fault.retries", "fault.dedup_hits", "fault.forwards",
            "fault.dead_serves", "fault.kills", "recovery.ghost_dead",
            "recovery.rebound_targets", "recovery.rebound_ops",
            "recovery.direct_ops", "recovery.degraded"}) {
        recorder()->metrics().counter(key) = stats().counter(key);
      }
    }
  }
}

void Runtime::call_prologue(Env& env) {
  if (cfg_.progress.kind == progress::Kind::Thread) {
    env.ctx().advance(profile().thread_call_overhead);
  }
}

void Runtime::p_rank_main(Env& env,
                          const std::function<void(Env&)>& user_main) {
  user_main(env);
  p_barrier(env, world_);  // finalize handshake
}

// ------------------------------------------------------------ progress ----

void Runtime::progress_poll(Env& env) {
  auto& io = io_[static_cast<std::size_t>(env.world_rank())];
  // Served in place: the node stays put while poller_process yields, then
  // goes on with the op's ack (a lock message's back to the arena).
  while (!io.inbox.empty()) poller_process(env, io.inbox.pop_front());
}

Time Runtime::wire_latency(int a_world, int b_world,
                           std::size_t bytes) const {
  return profile().latency(topo().same_node(a_world, b_world), bytes);
}

bool Runtime::is_hw_op(const AmOp& op) const {
  // Accumulates always run in target-side software. Lock messages never get
  // here: their senders check hw_lock themselves.
  switch (op.kind) {
    case OpKind::Put:
      return profile().hw_contig_put && op.target_dt.contiguous();
    case OpKind::Get:
      return profile().hw_contig_get && op.target_dt.contiguous();
    default:
      return false;
  }
}

Time Runtime::am_cost(const AmOp& op) const {
  if (op.kind == OpKind::LockReq || op.kind == OpKind::LockRelease) {
    return profile().lock_handling;
  }
  const std::size_t moved =
      std::max(op.payload.size(),
               data_bytes(op.target_count, op.target_dt));
  return profile().handling(moved, op.cross_numa);
}

Time Runtime::agent_span(const AmOp& op) const {
  // The per-message lead occupies the serving entity: for interrupts it is
  // the handler entry/exit (the throughput limit Fig. 4(c) measures); for
  // the background thread it is the thread-safety/lock-contention cost that
  // makes thread progress expensive at scale (paper Section I, [8]).
  const Time lead = cfg_.progress.kind == progress::Kind::Interrupt
                        ? profile().interrupt_cost
                        : profile().thread_handoff;
  return lead + am_cost(op);
}

void Runtime::free_node(AmNode* n) {
  const AmOp& op = n->op;
  const int home = faultable_kind(op.kind) ? op.origin_world
                                          : op.target_world;  // lock msg
  io_[static_cast<std::size_t>(home)].arena->free(n);
}

// -------------------------------------------------------------- inject ----

void Runtime::inject_op(AmNode* n, Time t_issue) {
  AmOp& op = n->op;
  const int ow = op.origin_world;
  const int tw = op.target_world;
  ++op.acct->outstanding;
  op.opid = make_opid();
  if (op.cross_numa) ++*hot().cross_numa_ops;

  const Time t_del = t_issue + wire_latency(ow, tw, wire_bytes(op));

  if (is_hw_op(op)) {
    ++*hot().hw_ops;
    if (obs::on(recorder())) ++recorder()->metrics().counter("ops.hw_path");
    // Hardware execution: performed "by the NIC" instantly at delivery; the
    // target CPU is not involved. NIC entity ids live above agent ids.
    post_event(t_del, tw, [this, n, t_del]() {
      const AmOp& op = n->op;
      const int nic_entity = 2 * engine_->nranks() + op.target_world;
      if (obs::on(recorder())) {
        recorder()->trace().instant(nic_entity, obs::Ev::OpHwPath, t_del,
                                  op.opid,
                                  static_cast<std::uint64_t>(op.kind),
                                  op.payload.size());
      }
      am_write_phase(*n, am_read_phase(op), t_del, t_del, nic_entity);
    });
  } else {
    ++*hot().sw_ops;
    if (obs::on(recorder())) ++recorder()->metrics().counter("ops.sw_path");
    if (fs_) {
      // Faulted transport: the op is parked in a retransmission record and
      // every wire attempt (this one included) runs the verdict machinery.
      fault_send(n, t_issue);
      return;
    }
    post_event(t_del, tw, [this, n, t_del]() { deliver_am(n, t_del); });
  }
}

void Runtime::post_event(Time t, sim::EventFn cb) {
  engine_->post_event(t, std::move(cb));
}

void Runtime::post_event(Time t, int home_world, sim::EventFn cb) {
  engine_->post_event(t, home_world, std::move(cb));
}

std::uint64_t Runtime::make_opid() {
  if (!engine_->sharded()) return next_opid_++;  // golden-trace byte-identity
  const auto s = static_cast<std::size_t>(sim::Engine::current_shard());
  return (static_cast<std::uint64_t>(s + 1) << 40) | opid_seq_[s]++;
}

int Runtime::alloc_comm_id() {
  std::unique_lock<std::mutex> lk(registry_mu_, std::defer_lock);
  if (engine_->sharded()) lk.lock();
  return next_comm_id_++;
}

int Runtime::alloc_win_id() {
  std::unique_lock<std::mutex> lk(registry_mu_, std::defer_lock);
  if (engine_->sharded()) lk.lock();
  return next_win_id_++;
}

void Runtime::register_win(const Win& win) {
  std::unique_lock<std::mutex> lk(registry_mu_, std::defer_lock);
  if (engine_->sharded()) lk.lock();
  win_registry_.push_back(win);
}

// ------------------------------------------------------------- deliver ----

void Runtime::deliver_lock(const LockMsg& m, Time t_del) {
  const int tw = m.win->comm()->world_rank(m.target_comm_rank);
  AmNode* n = io_[static_cast<std::size_t>(tw)].arena->alloc();
  AmOp& op = n->op;
  op.opid = m.opid;
  op.win = m.win;
  op.acct = m.acct;
  op.origin_world = m.win->comm()->world_rank(m.origin_comm_rank);
  op.target_world = tw;
  op.origin_comm_rank = m.origin_comm_rank;
  op.target_comm_rank = m.target_comm_rank;
  op.kind = m.kind;
  op.lock_type = m.lock_type;
  deliver_am(n, t_del);
}

void Runtime::deliver_am(AmNode* n, Time t_del) {
  AmOp& op = n->op;
  if (fs_ && fs_->dead[static_cast<std::size_t>(op.target_world)]) {
    // Forward data ops to the (transitively live) successor so one live
    // entity keeps serializing RMWs on the node's memory. Ghost windows
    // expose the whole node buffer from the same base, so rewriting the
    // target rank preserves the byte addresses. Lock traffic and ops with
    // no successor are served immediately at delivery (fault_serve_dead).
    int s = fs_->successor[static_cast<std::size_t>(op.target_world)];
    while (s >= 0 && fs_->dead[static_cast<std::size_t>(s)])
      s = fs_->successor[static_cast<std::size_t>(s)];
    if (s >= 0 && faultable_kind(op.kind)) {
      ++*fs_->c_forwards;
      op.target_world = s;
      op.target_comm_rank = op.win->comm()->rank_of_world(s);
      MMPI_REQUIRE(op.target_comm_rank >= 0,
                   "fault successor not in the op's communicator");
    } else {
      fault_serve_dead(n, t_del);
      return;
    }
  }
  switch (cfg_.progress.kind) {
    case progress::Kind::None: {
      auto& io = io_[static_cast<std::size_t>(op.target_world)];
      // Arrived while the target was busy outside the MPI runtime: it will
      // be drained late and pays the in-application progress penalty.
      ++*(io.in_mpi ? hot().am_prompt : hot().am_busy_arrival);
      if (t_del == io.last_arrival) ++io.simultaneous_arrivals;
      io.last_arrival = t_del;
      io.inbox.push_back(n);
      engine_->wake(op.target_world, t_del);
      break;
    }
    case progress::Kind::Thread:
    case progress::Kind::Interrupt:
      agent_process(n, t_del);
      break;
  }
}

void Runtime::agent_process(AmNode* n, Time t_del) {
  const AmOp& op = n->op;
  auto& io = io_[static_cast<std::size_t>(op.target_world)];
  const Time span = agent_span(op);
  const Time start = std::max(t_del, io.agent_busy_until);
  io.agent_busy_until = start + span;

  if (cfg_.progress.kind == progress::Kind::Interrupt) {
    ++*hot().interrupts;
    // The interrupt handler preempts the target core: if the target is
    // computing, the handler's time is stolen from the computation.
    if (engine_->rank_computing(op.target_world)) {
      engine_->add_compute_penalty(op.target_world, span);
    }
  }

  // The events carry only the node: the service end is start + agent_span,
  // and the op does not change until it commits.
  post_event(start, [this, n, start]() {
    const Time end = start + agent_span(n->op);
    if (n->op.kind == OpKind::LockReq || n->op.kind == OpKind::LockRelease) {
      serve_lock(n, end);
      return;
    }
    // The agent serializes its operations (busy_until), so both phases run
    // at the end event and the read-modify-write is atomic; the recorded
    // [start, end) interval still exposes overlaps with *other* entities.
    post_event(end, [this, n, end]() {
      if (fs_ && !fault_should_execute(*n, end)) return;
      const int entity = engine_->nranks() + n->op.target_world;  // agent ids
      am_write_phase(*n, am_read_phase(n->op), end - agent_span(n->op), end,
                     entity);
    });
  });
}

void Runtime::serve_lock(AmNode* n, Time t) {
  const AmOp& op = n->op;
  if (op.kind == OpKind::LockReq) {
    lockmgr_request(*op.win, op.target_comm_rank, op.origin_comm_rank,
                    op.lock_type, t, op.acct);
  } else {
    lockmgr_release(*op.win, op.target_comm_rank, op.origin_comm_rank,
                    op.lock_type, t, op.acct);
  }
  free_node(n);
}

void Runtime::poller_process(Env& env, AmNode* n) {
  AmOp& op = n->op;
  // In-application progress penalty: an application process drains software
  // operations at degraded per-op efficiency, scaled by node-core contention
  // (cache pollution, progress-engine entry, unexpected-queue matching under
  // many-core pressure). Dedicated progress ranks — Casper ghosts parked
  // inside the MPI runtime — serve at the base cost. This asymmetry is the
  // paper's core premise (see net::Profile::busy_factor and DESIGN.md §5).
  const double factor = dedicated_progress(env.world_rank())
                            ? 1.0
                            : profile().busy_factor(topo().cores_per_node);
  const Time cost =
      static_cast<Time>(static_cast<double>(am_cost(op)) * factor);
  if (op.kind == OpKind::LockReq || op.kind == OpKind::LockRelease) {
    env.ctx().advance(cost);
    serve_lock(n, env.now());
    return;
  }
  // Dedup gate: a duplicate delivery (network dup, or a retransmission that
  // raced the ack) must not re-execute — especially not a read-modify-write.
  if (fs_ && !fault_should_execute(*n, env.now())) return;
  const Time t0 = env.now();
  auto staged = am_read_phase(op);
  env.ctx().advance(cost);
  if (fs_ && fs_->dead[static_cast<std::size_t>(env.world_rank())]) {
    // The serving rank was killed between the read and write phases: the
    // write never lands. Release the dedup claim so the origin's
    // retransmission re-executes the op (at the successor).
    fs_->served.erase(op.opid);
    free_node(n);
    return;
  }
  if (obs::on(recorder()) && dedicated_progress(env.world_rank())) {
    const std::size_t moved =
        std::max(op.payload.size(),
                 data_bytes(op.target_count, op.target_dt));
    obs::Recorder* rec = recorder();
    rec->trace().span(env.world_rank(), obs::Ev::GhostService, t0,
                    env.now() - t0, op.opid, moved);
    const int g = env.world_rank();
    auto key = [g](const char* what) {
      return "ghost." + std::to_string(g) + what;
    };
    ++keys_.service_ops.get(*rec, static_cast<std::size_t>(g),
                            [&] { return key(".service_ops"); });
    keys_.service_bytes.get(*rec, static_cast<std::size_t>(g),
                            [&] { return key(".service_bytes"); }) += moved;
    keys_.service_ns
        .get(*rec, 0, [] { return std::string("ghost_service_ns"); })
        .add(env.now() - t0);
  }
  am_write_phase(*n, staged, t0, env.now(), env.world_rank());
}

// ----------------------------------------------------------- execution ----

sim::PoolBuf Runtime::am_read_phase(const AmOp& op) {
  std::byte* taddr = seg_addr(*op.win, op.target_comm_rank, op.target_disp);
  const std::size_t nbytes = data_bytes(op.target_count, op.target_dt);
  const std::size_t nelems = nbytes / op.target_dt.elem_size();
  sim::PoolBuf staged(&pool_);

  switch (op.kind) {
    case OpKind::Put:
    case OpKind::Get:
      return staged;  // Put writes payload; Get reads at commit time.
    case OpKind::Acc: {
      if (op.op == AccOp::Replace || op.op == AccOp::NoOp) return staged;
      // Read-modify-write: read target at processing start, combine, commit
      // at processing end. Overlapping concurrent processing by different
      // entities loses updates — by design, to model the real hazard.
      pack_into(staged, taddr, op.target_count, op.target_dt);
      reduce_contig(staged.data(), op.payload.data(), nelems, op.target_dt.base,
                    op.op);
      // staged now holds op(target_old, origin): note reduce_contig computes
      // dst = op(dst, src) with dst = target_old, src = origin. For Sum /
      // Min / Max this matches MPI_Accumulate semantics.
      return staged;
    }
    case OpKind::GetAcc:
    case OpKind::Fao: {
      staged.resize(nbytes * 2);
      pack_into(staged, taddr, op.target_count, op.target_dt);  // trimmed...
      staged.resize(nbytes * 2);  // ...back to [old | new] width
      std::memcpy(staged.data() + nbytes, staged.data(), nbytes);
      if (op.op != AccOp::NoOp) {
        if (op.op == AccOp::Replace) {
          std::memcpy(staged.data() + nbytes, op.payload.data(), nbytes);
        } else {
          reduce_contig(staged.data() + nbytes, op.payload.data(), nelems,
                        op.target_dt.base, op.op);
        }
      }
      return staged;  // [old | new]
    }
    case OpKind::Cas: {
      const std::size_t es = op.target_dt.elem_size();
      staged.resize(es + 1);
      std::memcpy(staged.data(), taddr, es);
      const bool equal = std::memcmp(taddr, op.payload.data(), es) == 0;
      staged.data()[es] = static_cast<std::byte>(equal ? 1 : 0);
      return staged;  // [old | matched?]
    }
    case OpKind::LockReq:
    case OpKind::LockRelease:
      break;
  }
  return staged;
}

bool Runtime::write_target(const AmOp& op, const sim::PoolBuf& staged,
                           sim::PoolBuf& ack) {
  std::byte* taddr = seg_addr(*op.win, op.target_comm_rank, op.target_disp);
  switch (op.kind) {
    case OpKind::Put:
      unpack(taddr, op.target_count, op.target_dt, op.payload);
      return true;
    case OpKind::Get:
      pack_into(ack, taddr, op.target_count, op.target_dt);
      return false;
    case OpKind::Acc:
      if (op.op == AccOp::NoOp) return false;
      unpack(taddr, op.target_count, op.target_dt,
             op.op == AccOp::Replace ? op.payload : staged);
      return true;
    case OpKind::GetAcc:
    case OpKind::Fao: {
      const std::size_t half = staged.size() / 2;
      ack.assign(staged.data(), half);
      if (op.op == AccOp::NoOp) return false;
      unpack(taddr, op.target_count, op.target_dt,
             std::span<const std::byte>(staged.data() + half, half));
      return true;
    }
    case OpKind::Cas: {
      const std::size_t es = op.target_dt.elem_size();
      ack.assign(staged.data(), es);
      if (staged.data()[es] != static_cast<std::byte>(1)) return false;
      // payload = [expected | desired]
      std::memcpy(taddr, op.payload.data() + es, es);
      return true;
    }
    case OpKind::LockReq:
    case OpKind::LockRelease:
      MMPI_REQUIRE(false, "lock ops do not reach write_target");
  }
  return false;
}

void Runtime::am_write_phase(AmNode& n, const sim::PoolBuf& staged, Time t0,
                             Time t1, int entity) {
  sim::PoolBuf ack(&pool_);
  const bool is_write = write_target(n.op, staged, ack);
  finish_commit(n, std::move(ack), t0, t1, entity, is_write);
}

void Runtime::finish_commit(AmNode& n, sim::PoolBuf&& ack, Time t0, Time t1,
                            int entity, bool is_write) {
  AmOp& op = n.op;
  const auto lo = reinterpret_cast<std::uintptr_t>(
      seg_addr(*op.win, op.target_comm_rank, op.target_disp));
  record_access(topo().node_of(op.target_world), lo,
                lo + span_bytes(op.target_count, op.target_dt), t0, t1,
                entity, is_write);
  if (obs::on(recorder())) {
    recorder()->trace().instant(entity, obs::Ev::OpCommitted, t1, op.opid,
                              static_cast<std::uint64_t>(op.kind),
                              data_bytes(op.target_count, op.target_dt));
    ++recorder()->metrics().counter("ops.committed");
  }
  observe_commit(op, t1, entity);
  // Observers have seen the origin data; the payload now carries the ack.
  op.payload = std::move(ack);
  schedule_ack(n, t1);
}

void Runtime::exec_self(Env& env, const AmOp& op) {
  // Self ops execute synchronously (MPI guarantees self locks and local
  // load/store access are not delayed). Local cost only.
  env.ctx().advance(sim::ns(80) + static_cast<Time>(
                                      0.02 * static_cast<double>(
                                                 op.payload.size())));
  // Both phases at one instant, recorded as a zero-width access. Nothing is
  // outstanding for self ops, so the fetched bytes go straight to the
  // origin's result buffer instead of into an ack.
  sim::PoolBuf fetched(&pool_);
  const bool is_write = write_target(op, am_read_phase(op), fetched);
  if (op.origin_result != nullptr && !fetched.empty())
    unpack(op.origin_result, op.origin_count, op.origin_dt, fetched);
  const auto lo = reinterpret_cast<std::uintptr_t>(
      seg_addr(*op.win, op.target_comm_rank, op.target_disp));
  const Time t = env.now();
  // A self CAS is recorded as a write even when it misses.
  record_access(topo().node_of(op.target_world), lo,
                lo + span_bytes(op.target_count, op.target_dt), t, t,
                env.world_rank(), is_write || op.kind == OpKind::Cas);
  observe_commit(op, t, env.world_rank());
}

void Runtime::record_access(int node, std::uintptr_t lo, std::uintptr_t hi,
                            Time t0, Time t1, int entity, bool is_write) {
  auto& inflight = inflight_[static_cast<std::size_t>(node)];
  // Prune entries whose interval ended at or before this commit's start.
  // Commits arrive in t1 order, but t0 is NOT monotone across entities: on
  // the two-phase poller path a short op that started later can commit
  // before a long op that started earlier, so this prune may drop an entry
  // that a third entity's still-running op overlaps (DESIGN.md §9).
  std::erase_if(inflight, [t0](const InflightOp& e) { return e.t1 <= t0; });
  for (const InflightOp& e : inflight) {
    if (e.entity == entity) continue;
    if (!(e.is_write || is_write)) continue;
    // Half-open interval overlap; a zero-width (instant) access is detected
    // when it falls strictly inside another access's processing span.
    const bool time_overlap = e.t0 < t1 && t0 < e.t1;
    const bool byte_overlap = e.lo < hi && lo < e.hi;
    if (time_overlap && byte_overlap) {
      ++engine_->stats_local().counter("atomicity_violations");
    }
  }
  inflight.push_back(InflightOp{entity, lo, hi, t0, t1, is_write});
}

void Runtime::schedule_ack(AmNode& n, Time t_done) {
  const AmOp& op = n.op;
  Time t_ack = t_done + wire_latency(op.target_world, op.origin_world,
                                     op.payload.size());
  if (fs_ && faultable_kind(op.kind)) {
    // Transport-faulted op (it has a dedup entry from the execution gate):
    // cache the ack payload for idempotent re-acks, then run the
    // ack-direction verdict. A dropped ack is recovered by the origin's
    // retransmission timer: the redelivery hits the dedup cache and re-acks.
    auto it = fs_->served.find(op.opid);
    if (it != fs_->served.end()) {
      FaultState::Served& sv = it->second;
      if (!sv.have_ack) {
        sv.have_ack = true;
        sv.ack.bind(&pool_);
        sv.ack.assign(op.payload.data(), op.payload.size());
      }
      const fault::Verdict v = fault::draw(*cfg_.fault, op.opid,
                                           sv.ack_attempt++, /*is_ack=*/true);
      if (v.kind == fault::NetVerdict::Drop) {
        ++*fs_->c_ack_drops;
        if (obs::on(recorder())) {
          recorder()->trace().instant(op.target_world, obs::Ev::FaultInject,
                                    t_done, op.opid,
                                    static_cast<std::uint64_t>(v.kind), 1);
        }
        free_node(&n);
        return;
      }
      t_ack += v.extra;  // Delay; Dup of an ack is modeled as Deliver
    }
  }
  AmNode* node = &n;
  post_event(t_ack, op.origin_world,
             [this, node, t_ack]() { on_ack(node, t_ack); });
}

void Runtime::on_ack(AmNode* n, Time t_ack) {
  const AmOp& op = n->op;
  if (fs_ && !fault_complete(op.opid)) {  // duplicate ack
    free_node(n);
    return;
  }
  OriginTargetState* ots = op.acct;
  --ots->outstanding;
  MMPI_REQUIRE(ots->outstanding >= 0, "ack underflow");
  if (op.origin_result != nullptr && !op.payload.empty()) {
    unpack(op.origin_result, op.origin_count, op.origin_dt, op.payload);
  }
  if (obs::on(recorder()))
    recorder()->trace().instant(op.origin_world, obs::Ev::OpFlushed, t_ack,
                              op.opid);
  // A flushing origin resumes only for the ack that can end its flush; it
  // would otherwise poll an empty inbox and block again. Inbox deliveries,
  // grants and release acks still wake it.
  const OriginTargetState* f =
      io_[static_cast<std::size_t>(op.origin_world)].flushing;
  if (f == nullptr || (f == ots && ots->flush_done()))
    engine_->wake(op.origin_world, t_ack);
  free_node(n);
}

// ----------------------------------------------- fault injection layer ----

bool Runtime::rank_dead(int world_rank) const {
  return fs_ != nullptr && fs_->dead[static_cast<std::size_t>(world_rank)] != 0;
}

void Runtime::set_death_handler(std::function<void(int, sim::Time)> fn) {
  MMPI_REQUIRE(fs_ != nullptr, "death handler requires an active FaultPlan");
  fs_->death_handler = std::move(fn);
}

void Runtime::set_rank_successor(int world_rank, int successor) {
  MMPI_REQUIRE(fs_ != nullptr, "successor map requires an active FaultPlan");
  fs_->successor[static_cast<std::size_t>(world_rank)] = successor;
}

void Runtime::fault_setup() {
  const fault::FaultPlan& p = *cfg_.fault;
  const Time hb = std::max<Time>(p.heartbeat_period, 1);
  for (const fault::GhostKill& k : p.kills) {
    if (k.world_rank < 0 || k.world_rank >= engine_->nranks()) continue;
    post_event(k.at, [this, k]() { fault_kill_rank(k.world_rank, k.at); });
    // Detection: the failure becomes visible at the first heartbeat boundary
    // strictly after the kill instant; the layer's handler (registered via
    // set_death_handler) reroutes traffic from that point on.
    const Time t_detect = (k.at / hb + 1) * hb;
    post_event(t_detect, [this, k, t_detect]() {
      if (fs_->death_handler) fs_->death_handler(k.world_rank, t_detect);
    });
  }
}

AmNode* Runtime::fault_clone(const AmOp& op) {
  AmNode* c = io_[static_cast<std::size_t>(op.origin_world)].arena->alloc();
  static_cast<AmHeader&>(c->op) = op;
  c->op.payload.bind(&pool_);
  if (!op.payload.empty())
    c->op.payload.assign(op.payload.data(), op.payload.size());
  return c;
}

void Runtime::fault_send(AmNode* n, Time t_send) {
  const std::uint64_t opid = n->op.opid;
  FaultState::Retrans& r = fs_->pending[opid];
  r.node = n;
  r.attempt = 0;
  fault_transmit(opid, t_send);
}

void Runtime::fault_transmit(std::uint64_t opid, Time t_send) {
  auto it = fs_->pending.find(opid);
  if (it == fs_->pending.end()) return;  // acked while the timer slept
  FaultState::Retrans& r = it->second;
  const AmOp& op = r.node->op;
  // Verdicts are a pure function of (plan seed, opid, attempt, direction):
  // the opid set of a fixed program is schedule-invariant, so the fault.*
  // counters are too — see DESIGN.md §11.
  const fault::Verdict v =
      fault::draw(*cfg_.fault, opid, r.attempt, /*is_ack=*/false);
  const Time t_del =
      t_send + wire_latency(op.origin_world, op.target_world, wire_bytes(op));
  if (v.kind != fault::NetVerdict::Deliver && obs::on(recorder())) {
    recorder()->trace().instant(op.origin_world, obs::Ev::FaultInject, t_send,
                              opid, static_cast<std::uint64_t>(v.kind),
                              v.extra);
  }
  switch (v.kind) {
    case fault::NetVerdict::Drop:
      ++*fs_->c_drops;
      break;
    case fault::NetVerdict::Dup:
      ++*fs_->c_dups;
      fault_deliver_copy(op, t_del);
      fault_deliver_copy(op, t_del + v.extra);
      break;
    case fault::NetVerdict::Delay:
      ++*fs_->c_delays;
      fault_deliver_copy(op, t_del + v.extra);
      break;
    case fault::NetVerdict::Deliver:
      fault_deliver_copy(op, t_del);
      break;
  }
  // Timeout-driven retry with exponential backoff. The timer self-cancels
  // when the first ack erases the retransmission record.
  const Time t_retry = t_send + fs_->rto_for(r.attempt);
  ++r.attempt;
  post_event(t_retry, [this, opid, t_retry]() {
    auto it2 = fs_->pending.find(opid);
    if (it2 == fs_->pending.end()) return;  // acked in time
    ++*fs_->c_retries;
    if (obs::on(recorder())) {
      recorder()->trace().instant(it2->second.node->op.origin_world,
                                obs::Ev::AmRetry,
                                t_retry, opid, it2->second.attempt);
    }
    fault_transmit(opid, t_retry);
  });
}

void Runtime::fault_deliver_copy(const AmOp& op, Time t_del) {
  Time t = t_del;
  // An ingress stall holds everything arriving at the target inside the
  // stall window until the stall ends.
  for (const fault::GhostStall& s : cfg_.fault->stalls) {
    if (s.world_rank == op.target_world && t >= s.at && t < s.at + s.duration)
      t = s.at + s.duration;
  }
  AmNode* copy = fault_clone(op);
  post_event(t, [this, copy, t]() { deliver_am(copy, t); });
}

bool Runtime::fault_should_execute(AmNode& n, Time t_now) {
  AmOp& op = n.op;
  auto [it, fresh] = fs_->served.try_emplace(op.opid);
  if (fresh) {
    fs_->served_fifo.push_back(op.opid);
    if (fs_->served_fifo.size() > FaultState::kWindow) {
      fs_->served.erase(fs_->served_fifo.front());
      fs_->served_fifo.pop_front();
    }
    return true;
  }
  ++*fs_->c_dedup_hits;
  if (it->second.have_ack) {
    // Re-ack from the cached payload (the originally fetched value for RMW
    // ops) without re-executing.
    const sim::PoolBuf& ack = it->second.ack;
    op.payload.assign(ack.data(), ack.size());
    schedule_ack(n, t_now);
  } else {
    // No cached ack yet: the first execution is still in flight; its own
    // ack (or the next retransmission) completes the op.
    free_node(&n);
  }
  return false;
}

bool Runtime::fault_complete(std::uint64_t opid) {
  auto it = fs_->pending.find(opid);
  if (it != fs_->pending.end()) {
    free_node(it->second.node);  // the acking clone completes the op
    fs_->pending.erase(it);
    fs_->completed.insert(opid);
    fs_->completed_fifo.push_back(opid);
    if (fs_->completed_fifo.size() > FaultState::kWindow) {
      fs_->completed.erase(fs_->completed_fifo.front());
      fs_->completed_fifo.pop_front();
    }
    return true;
  }
  // Already completed => duplicate ack; unknown opid => an op that never
  // entered the faulted transport (hardware path), complete normally.
  return fs_->completed.count(opid) == 0;
}

void Runtime::fault_serve_dead(AmNode* n, Time t) {
  if (!faultable_kind(n->op.kind)) {
    serve_lock(n, t);
    return;
  }
  if (!fault_should_execute(*n, t)) return;
  ++*fs_->c_dead_serves;
  // In-flight one-sided data is not lost when the serving process dies: the
  // NIC/memory system completes the transfer at delivery time. Zero-width
  // commit, so it cannot interleave with a live entity's two-phase service.
  const int nic_entity = 2 * engine_->nranks() + n->op.target_world;
  am_write_phase(*n, am_read_phase(n->op), t, t, nic_entity);
}

void Runtime::fault_kill_rank(int world_rank, Time t) {
  if (fs_->dead[static_cast<std::size_t>(world_rank)] != 0) return;
  fs_->dead[static_cast<std::size_t>(world_rank)] = 1;
  ++*fs_->c_kills;
  // Death is modeled at the RMA-service level: the rank's fiber stays alive
  // for simulator control flow (command loop, barriers, finalize), but its
  // inbox is re-dispatched now and future deliveries are redirected at
  // arrival (see deliver_am).
  auto& io = io_[static_cast<std::size_t>(world_rank)];
  while (!io.inbox.empty()) deliver_am(io.inbox.pop_front(), t);
}

// -------------------------------------------------------- lock manager ----

void Runtime::send_lock_request(Env& env, WinImpl& win,
                                OriginTargetState& ots) {
  const int me = win.comm()->rank_of_world(env.world_rank());
  const int target = ots.target;
  MMPI_REQUIRE(ots.lock_st == OriginTargetState::LockSt::Intent,
               "lock request already sent or no lock intent");
  ots.lock_st = OriginTargetState::LockSt::Requested;

  const int tw = win.comm()->world_rank(target);
  const Time t_arr = env.now() + wire_latency(env.world_rank(), tw, 16);
  WinImpl* w = &win;
  const LockType type = ots.lock_type;
  OriginTargetState* acct = &ots;

  if (profile().hw_lock) {
    // NIC-level lock handling: processed at delivery with no target software.
    post_event(t_arr, tw, [this, w, target, me, type, t_arr, acct]() {
      lockmgr_request(*w, target, me, type, t_arr, acct);
    });
  } else {
    const LockMsg m{w, acct, make_opid(), me, target, OpKind::LockReq, type};
    post_event(t_arr, tw, [this, m, t_arr]() { deliver_lock(m, t_arr); });
  }
}

void Runtime::lockmgr_request(WinImpl& win, int target, int origin,
                              LockType type, Time t, OriginTargetState* ots) {
  auto& tl = win.locks[static_cast<std::size_t>(target)];
  if (tl.grantable(type, origin) && tl.pending.empty()) {
    tl.grant(type, origin);
    const int ow = win.comm()->world_rank(origin);
    const int tw = win.comm()->world_rank(target);
    const Time t_ack = t + wire_latency(tw, ow, 0);
    WinImpl* w = &win;
    post_event(t_ack, ow, [this, w, origin, ots, t_ack]() {
      on_lock_granted(*w, origin, *ots, t_ack);
    });
  } else {
    tl.pending.push_back(TargetLockState::Pending{origin, type, ots});
  }
}

void Runtime::lockmgr_release(WinImpl& win, int target, int origin,
                              LockType type, Time t,
                              OriginTargetState* notify) {
  auto& tl = win.locks[static_cast<std::size_t>(target)];
  tl.release(type, origin);

  if (notify != nullptr) {
    const int ow = win.comm()->world_rank(origin);
    const int tw = win.comm()->world_rank(target);
    const Time t_ack = t + wire_latency(tw, ow, 0);
    post_event(t_ack, ow, [this, notify, ow, t_ack]() {
      notify->release_pending = false;
      engine_->wake(ow, t_ack);
    });
  }

  // Grant pending requests in FIFO order while compatible.
  while (!tl.pending.empty() &&
         tl.grantable(tl.pending.front().type, tl.pending.front().origin)) {
    auto p = tl.pending.front();
    tl.pending.pop_front();
    tl.grant(p.type, p.origin);
    const int ow = win.comm()->world_rank(p.origin);
    const int tw = win.comm()->world_rank(target);
    const Time t_ack = t + wire_latency(tw, ow, 0);
    WinImpl* w = &win;
    post_event(t_ack, ow, [this, w, p, t_ack]() {
      on_lock_granted(*w, p.origin, *p.ots, t_ack);
    });
  }
}

void Runtime::on_lock_granted(WinImpl& win, int origin,
                              OriginTargetState& ots, Time t) {
  auto& my = win.ost[static_cast<std::size_t>(origin)];
  ots.lock_st = OriginTargetState::LockSt::Granted;
  // Inject all operations queued while the delayed lock was pending. The
  // origin CPU cost of these injections was already paid when the operations
  // were issued; here they just hit the wire in order.
  Time ti = t;
  my.tgt.drain_queued(ots, [&](AmNode* n) {
    ti += profile().op_inject;
    inject_op(n, ti);
  });
  engine_->wake(win.comm()->world_rank(origin), t);
}

void Runtime::observe_sync(WinImpl& win, int world_rank, SyncKind kind,
                           int target, sim::Time t) {
  for (RmaObserver* o : observers_) {
    o->on_sync(win, world_rank, kind, target, t);
  }
  if (obs::on(recorder())) {
    recorder()->trace().instant(world_rank, obs::Ev::EpochEnd, t,
                              static_cast<std::uint64_t>(kind),
                              static_cast<std::uint64_t>(win.id()));
    ++keys_.sync.get(*recorder(), static_cast<std::size_t>(kind), [kind] {
      return std::string("sync.") + to_string(kind);
    });
  }
}

void exec(RunConfig cfg, std::function<void(Env&)> user_main,
          LayerFactory layer) {
  Runtime rt(std::move(cfg), std::move(user_main), std::move(layer));
  rt.run();
}

}  // namespace casper::mpi
