// The minimpi runtime: an MPI-3-shaped communication library running on the
// discrete-event cluster simulator.
//
// Semantics implemented (the subset Casper's design depends on):
//  * communicators, groups, split/dup; two-sided send/recv with MPI matching;
//    synchronizing collectives with log(p) cost model;
//  * RMA windows (allocate / allocate-shared / create), all four epoch types,
//    flush/flush_all/flush_local, win_sync;
//  * put/get/accumulate/get_accumulate/fetch_and_op/compare_and_swap with
//    contiguous and strided (vector) datatypes;
//  * a target-side lock manager with *delayed lock acquisition* (requests are
//    sent at the first operation, not at MPI_Win_lock — the behaviour the
//    paper's Section III.B builds on);
//  * the software active-message path: operations that the machine profile
//    does not execute in hardware complete only when the target rank enters
//    the MPI stack — unless a progress agent (background thread, interrupt
//    handler, or a Casper ghost process) serves them;
//  * atomicity-violation detection: concurrent software read-modify-writes of
//    overlapping target bytes by different processing entities are counted
//    (the corruption mode Casper's static binding exists to prevent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "mpi/am.hpp"
#include "mpi/comm.hpp"
#include "mpi/env.hpp"
#include "mpi/layer.hpp"
#include "mpi/observe.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "mpi/win.hpp"
#include "net/topology.hpp"
#include "obs/record.hpp"
#include "progress/progress.hpp"
#include "sim/engine.hpp"
#include "sim/pool.hpp"

namespace casper::fault {
struct FaultPlan;
}

namespace casper::mpi {

/// Top-level configuration of one simulated run.
struct RunConfig {
  net::Machine machine;
  std::uint64_t seed = 12345;
  /// Baseline async-progress model applied to every rank (Casper runs use
  /// Kind::None: ghost processes make the progress instead).
  progress::Config progress;
  /// Usable stack bytes of each simulated rank's fiber (page-rounded, with a
  /// PROT_NONE guard page below — see sim::Fiber). Stacks are lazily-faulted
  /// private mappings, so large rank counts cost address space, not memory.
  std::size_t stack_bytes = 256 * 1024;
  /// Forwarded to sim::Engine::Options::perturb_seed: non-zero explores a
  /// seeded alternative (but reproducible) tie-break order for equal-time
  /// scheduling decisions. The conformance fuzzer sweeps this to enumerate
  /// interleavings of one program.
  std::uint64_t perturb_seed = 0;
  /// Attach the observability layer (virtual-time trace + metrics; see
  /// src/obs/). Null — the default — keeps every instrumentation site down
  /// to one predictable branch. The recorder must outlive the runtime.
  obs::Recorder* recorder = nullptr;
  /// Fault-injection plan (src/fault/plan.hpp). Null — the default — keeps
  /// the whole reliability machinery off: no sequence/ack/retry state, no
  /// extra events, bit-identical virtual time (the same zero-cost-when-off
  /// contract as `recorder`). The plan must outlive the runtime.
  const fault::FaultPlan* fault = nullptr;
  /// Engine shards (worker threads). 1 — the default — is the classic
  /// single-threaded engine, bit-exact with every previous release. Values
  /// > 1 partition ranks by node across shards synchronized by conservative
  /// lookahead (= the inter-node network latency, the smallest cross-node
  /// delay any event can have); clamped to the node count. Sharded runs
  /// reject perturb_seed, fault plans, and RmaObservers that are not
  /// concurrent_safe() (worker threads invoke observer callbacks in
  /// parallel; only internally synchronized observers such as the race
  /// analyzer may attach).
  int shards = 1;
};

/// Factory for the interception layer of a run (PMPI model); receives the
/// runtime so layers can pre-compute global state.
class Runtime;
using LayerFactory = std::function<std::shared_ptr<Layer>(Runtime&)>;

class Runtime {
 public:
  /// `layer` defaults to the plain Pmpi layer when null.
  Runtime(RunConfig cfg, std::function<void(Env&)> user_main,
          LayerFactory layer = nullptr);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Execute the simulation to completion.
  void run();

  sim::Engine& engine() { return *engine_; }
  const net::Profile& profile() const { return cfg_.machine.profile; }
  const net::Topology& topo() const { return cfg_.machine.topo; }
  const RunConfig& config() const { return cfg_; }
  sim::Stats& stats() { return engine_->stats(); }
  Layer& layer() { return *layer_; }
  Comm world() const { return world_; }

  /// Thread-multiple overhead charged on every MPI call when a background
  /// progress thread is configured.
  void call_prologue(Env& env);

  // ------------------------------------------------------------------------
  // PMPI entry points (the "name-shifted" internal implementations).
  // ------------------------------------------------------------------------
  void p_rank_main(Env& env, const std::function<void(Env&)>& user_main);
  Comm p_comm_split(Env& env, const Comm& comm, int color, int key);
  Comm p_comm_dup(Env& env, const Comm& comm);

  void p_send(Env& env, const void* buf, int count, Dt dt, int dest, int tag,
              const Comm& comm);
  Status p_recv(Env& env, void* buf, int count, Dt dt, int src, int tag,
                const Comm& comm);
  Request p_isend(Env& env, const void* buf, int count, Dt dt, int dest,
                  int tag, const Comm& comm);
  Request p_irecv(Env& env, void* buf, int count, Dt dt, int src, int tag,
                  const Comm& comm);
  Status p_wait(Env& env, const Request& req);
  bool p_test(Env& env, const Request& req);
  void p_waitall(Env& env, Request* reqs, int n);

  void p_barrier(Env& env, const Comm& comm);
  void p_bcast(Env& env, void* buf, int count, Dt dt, int root,
               const Comm& comm);
  void p_reduce(Env& env, const void* sendbuf, void* recvbuf, int count,
                Dt dt, AccOp op, int root, const Comm& comm);
  void p_allreduce(Env& env, const void* sendbuf, void* recvbuf, int count,
                   Dt dt, AccOp op, const Comm& comm);
  void p_allgather(Env& env, const void* sendbuf, int count, Dt dt,
                   void* recvbuf, const Comm& comm);
  void p_gather(Env& env, const void* sendbuf, int count, Dt dt,
                void* recvbuf, int root, const Comm& comm);
  void p_scatter(Env& env, const void* sendbuf, int count, Dt dt,
                 void* recvbuf, int root, const Comm& comm);
  void p_alltoall(Env& env, const void* sendbuf, int count, Dt dt,
                  void* recvbuf, const Comm& comm);

  Win p_win_allocate(Env& env, std::size_t bytes, std::size_t disp_unit,
                     const Info& info, const Comm& comm, void** base,
                     bool shared);
  Win p_win_create(Env& env, void* base, std::size_t bytes,
                   std::size_t disp_unit, const Info& info, const Comm& comm);
  void p_win_free(Env& env, Win& win);
  Segment p_shared_query(Env& env, const Win& win, int comm_rank);

  /// Unified RMA communication entry; `a.target` is a comm rank of
  /// win->comm().
  void p_rma(Env& env, const RmaArgs& a, const Win& win);

  void p_win_fence(Env& env, unsigned mode_assert, const Win& win);
  void p_win_post(Env& env, const Group& group, unsigned mode_assert,
                  const Win& win);
  void p_win_start(Env& env, const Group& group, unsigned mode_assert,
                   const Win& win);
  void p_win_complete(Env& env, const Win& win);
  void p_win_wait(Env& env, const Win& win);
  void p_win_lock(Env& env, LockType type, int target, unsigned mode_assert,
                  const Win& win);
  void p_win_unlock(Env& env, int target, const Win& win);
  void p_win_lock_all(Env& env, unsigned mode_assert, const Win& win);
  void p_win_unlock_all(Env& env, const Win& win);
  void p_win_flush(Env& env, int target, const Win& win);
  void p_win_flush_all(Env& env, const Win& win);
  void p_win_flush_local(Env& env, int target, const Win& win);
  void p_win_flush_local_all(Env& env, const Win& win);
  void p_win_sync(Env& env, const Win& win);

  // ------------------------------------------------------------------------
  // Progress service (public: tests and the Casper ghost loop use these).
  // ------------------------------------------------------------------------
  /// Process every software operation currently queued for this rank.
  void progress_poll(Env& env);
  /// Poll + block until `pred()` holds. The canonical "inside the MPI
  /// runtime" wait: incoming software operations are serviced while waiting.
  /// `pred` is called in place, never stored.
  template <typename Pred>
  void progress_wait(Env& env, Pred&& pred) {
    RankIo& io = io_[static_cast<std::size_t>(env.world_rank())];
    io.in_mpi = true;  // operations arriving now are serviced promptly
    for (;;) {
      progress_poll(env);
      if (pred()) break;
      engine_->block_self();
    }
    io.in_mpi = false;
  }

  /// Software operations waiting for this rank's progress (diagnostics).
  std::size_t pending_am_count(int world_rank) const {
    return io_[static_cast<std::size_t>(world_rank)].inbox.size();
  }
  /// Op nodes allocated across every shard's arena (tests): per shard, the
  /// peak number of ops issued from it and not yet acked, plus lock
  /// messages queued or in service there, rounded up to AmArena::kChunk.
  std::size_t am_nodes() const {
    std::size_t n = 0;
    for (const AmArena& a : arenas_) n += a.nodes();
    return n;
  }

  /// Hint from the interception layer that the NEXT RMA operation issued by
  /// `world_rank` touches memory in a different NUMA domain than its
  /// processing entity (Casper: ghost serving a remote-domain segment).
  /// Consumed by the next p_rma call from that rank.
  void set_next_op_cross_numa(int world_rank, bool cross) {
    io_[static_cast<std::size_t>(world_rank)].next_op_cross_numa = cross;
  }

  /// Mark a rank as a dedicated progress rank (a Casper ghost): it serves
  /// software operations at the base cost instead of the in-application
  /// drain cost (net::Profile::busy_factor). Called by the Casper layer.
  void set_dedicated_progress(int world_rank, bool dedicated) {
    dedicated_[static_cast<std::size_t>(world_rank)] = dedicated ? 1 : 0;
  }
  bool dedicated_progress(int world_rank) const {
    return dedicated_[static_cast<std::size_t>(world_rank)] != 0;
  }

  // ------------------------------------------------------------------------
  // Conformance observation (see mpi/observe.hpp). Observers outlive the run
  // and fan out: the shadow oracle and the race analyzer watch the same op
  // stream. Layers report user-facing sync/epoch events through observe_*.
  // ------------------------------------------------------------------------
  void add_observer(RmaObserver* obs) {
    if (obs) observers_.push_back(obs);
  }
  bool has_observers() const { return !observers_.empty(); }
  const std::vector<RmaObserver*>& observers() const { return observers_; }
  void observe_commit(const AmOp& op, sim::Time t, int entity) {
    for (RmaObserver* o : observers_) o->on_op_commit(op, t, entity);
  }
  void observe_sync(WinImpl& win, int world_rank, SyncKind kind, int target,
                    sim::Time t);
  /// Pre-redirection program-order access report (Env call surface). The
  /// issue/epoch/local hooks cost one emptiness test with no observers.
  void observe_issue(const AmOp& op, sim::Time t) {
    if (observers_.empty()) return;
    for (RmaObserver* o : observers_) o->on_op_issue(op, t);
  }
  void observe_epoch_begin(WinImpl& win, int world_rank, EpochEv kind,
                           int target, sim::Time t) {
    if (observers_.empty()) return;
    for (RmaObserver* o : observers_) {
      o->on_epoch_begin(win, world_rank, kind, target, t);
    }
  }
  void observe_local(WinImpl& win, int comm_rank, std::size_t offset,
                     std::size_t len, bool is_store, sim::Time t) {
    if (observers_.empty()) return;
    for (RmaObserver* o : observers_) {
      o->on_local_access(win, comm_rank, offset, len, is_store, t);
    }
  }
  void observe_win_register(WinImpl& win) {
    for (RmaObserver* o : observers_) o->on_win_register(win);
  }
  void observe_win_free(WinImpl& win) {
    for (RmaObserver* o : observers_) o->on_win_free(win);
  }

  /// Observability recorder from RunConfig (null when not attached). Sites
  /// must gate on obs::on(recorder()).
  obs::Recorder* recorder() const { return cfg_.recorder; }

  /// The runtime's transient-buffer pool (payloads, staging, acks). Layers
  /// bind their scratch PoolBufs here so the whole RMA path shares one
  /// recycled working set.
  sim::BytePool& buffer_pool() { return pool_; }

  // ------------------------------------------------------------------------
  // Fault injection & recovery (active only when RunConfig::fault is set).
  // ------------------------------------------------------------------------
  /// True when a FaultPlan is installed and active.
  bool faults_on() const { return fs_ != nullptr; }
  /// A killed rank: it no longer serves its inbox; deliveries addressed to
  /// it are completed at delivery time by the simulated NIC/memory system
  /// (in-flight one-sided data is not lost when the serving process dies).
  bool rank_dead(int world_rank) const;
  /// Layer hook: invoked (in event context — state mutation only, no MPI
  /// calls) when a ghost kill is *detected*, one heartbeat period after the
  /// kill instant. Receives (world_rank, detect_time).
  void set_death_handler(std::function<void(int, sim::Time)> fn);
  /// Layer hook: forwarding target for a rank that may die. AMs addressed to
  /// a dead rank are rewritten to its (transitively live) successor so one
  /// live entity keeps serializing read-modify-writes on the node's memory;
  /// -1 (the default) completes deliveries instantly at the NIC instead.
  void set_rank_successor(int world_rank, int successor);

 private:
  struct RankIo {
    RankIo() = default;
    RankIo(RankIo&&) = default;
    RankIo& operator=(RankIo&&) = default;
    RankIo(const RankIo&) = delete;  // a copy would alias inbox nodes
    RankIo& operator=(const RankIo&) = delete;

    AmQueue inbox;                 // software ops awaiting progress
    AmArena* arena = nullptr;      // this rank's shard's node arena
    std::deque<P2pMsg> unexpected; // unmatched arrived messages
    std::vector<Request> posted;   // pending receives, in post order
    sim::Time agent_busy_until = 0;  // progress-agent serialization point
    /// The entry a blocked flush_target waits on, else null. Written by the
    /// rank's fiber, read by ack events homed on the rank's shard.
    const OriginTargetState* flushing = nullptr;
    bool in_mpi = false;  // inside a progress-making MPI wait right now
    bool next_op_cross_numa = false;  // layer hint for the next RMA op
  };


  // --- collectives ---------------------------------------------------------
  /// Generic synchronizing collective: every member contributes
  /// (src, dst, a, b); the last arriver runs `finalize` (with all parts
  /// available), computes the release time from `wire_bytes`, and wakes
  /// everyone. Returns after the release time.
  void coll_run(Env& env, const Comm& comm, const void* src, void* dst,
                long long a, long long b, std::size_t wire_bytes,
                const std::function<void(CommImpl&)>& finalize);

  // --- p2p ----------------------------------------------------------------
  void deliver_p2p(int dst_world, P2pMsg&& msg, sim::Time t_del);
  static bool p2p_match(const RequestState& r, const P2pMsg& m);

  /// Schedule an engine event (thin wrapper over the engine).
  void post_event(sim::Time t, sim::EventFn cb);
  /// Schedule an engine event homed on `home_world`'s shard: the event runs
  /// on the worker thread that owns that rank, so it may touch the rank's
  /// io_/window state without locks. Equal to the plain overload when
  /// unsharded; cross-shard posts require t >= the posting shard's window
  /// end, which wire latencies guarantee (cross-shard implies cross-node,
  /// and every cross-node delay >= net_latency >= lookahead).
  void post_event(sim::Time t, int home_world, sim::EventFn cb);

  // --- shard-aware bookkeeping ---------------------------------------------
  /// Next RMA operation id. Unsharded: the classic global sequence (golden
  /// traces are byte-identical). Sharded: per-shard sequences tagged with the
  /// shard id in the high bits — unique without cross-thread coordination.
  std::uint64_t make_opid();
  /// Communicator / window id allocation and window registration, serialized
  /// under a mutex when sharded (disjoint-comm collectives can finalize
  /// concurrently). Ids never feed virtual time, so the host-order
  /// nondeterminism of concurrent allocation is observationally benign.
  int alloc_comm_id();
  int alloc_win_id();
  void register_win(const Win& win);
  /// Shrink the engine lookahead so a shard-spanning communicator's
  /// collective release (ceil_log2(p) * barrier_stage after the last
  /// arrival) can never land inside the posting shard's current window.
  void shard_clamp_for_members(const std::vector<int>& members);

  // --- RMA internals -------------------------------------------------------
  // An RMA op's AmNode is its only record from issue to ack: events carry
  // the node pointer, the target queues and serves it in place, and the ack
  // frees it on the origin's shard (see AmArena).
  sim::Time wire_latency(int a_world, int b_world, std::size_t bytes) const;
  bool is_hw_op(const AmOp& op) const;
  /// Target-side software processing cost of an op.
  sim::Time am_cost(const AmOp& op) const;
  /// Progress-agent occupancy of one op: the per-message lead plus am_cost.
  sim::Time agent_span(const AmOp& op) const;
  /// Schedule wire transfer + target-side execution of an op. The origin has
  /// already paid its injection overhead (or the op comes from the delayed
  /// lock-grant path). Increments the outstanding count of its entry.
  void inject_op(AmNode* n, sim::Time t_issue);
  /// Give a delivered lock message its inbox node and route it.
  void deliver_lock(const LockMsg& m, sim::Time t_del);
  /// Route a delivered software op by the target's progress model.
  void deliver_am(AmNode* n, sim::Time t_del);
  /// Agent-driven (thread / interrupt) processing of one op.
  void agent_process(AmNode* n, sim::Time t_del);
  /// Rank-driven (poll) processing of one op; runs on the target's thread.
  void poller_process(Env& env, AmNode* n);
  /// Serve a lock message at time t and free its node.
  void serve_lock(AmNode* n, sim::Time t);
  /// Return a node to the arena it came from: the origin's for RMA ops,
  /// the target's for lock messages.
  void free_node(AmNode* n);
  /// Target-memory read phase at processing start; returns data the write
  /// phase commits at processing end (the read-at-start / write-at-end model
  /// that exposes lost updates under concurrent unsynchronized processing).
  /// Every path runs both phases; only the poller yields between them, the
  /// NIC, agents, dead-target serves and self ops run them at one instant.
  sim::PoolBuf am_read_phase(const AmOp& op);
  /// Write phase: applies the op to target memory from the origin payload
  /// and `staged` (am_read_phase's result) and packs any fetched bytes into
  /// `ack`. Returns whether target memory was written.
  bool write_target(const AmOp& op, const sim::PoolBuf& staged,
                    sim::PoolBuf& ack);
  /// write_target, then finish_commit.
  void am_write_phase(AmNode& n, const sim::PoolBuf& staged, sim::Time t0,
                      sim::Time t1, int entity);
  /// Execute a self-targeted op synchronously (loads/stores, not delayed):
  /// both phases, a zero-width access record and the commit observers, with
  /// fetched bytes unpacked straight into the origin's result buffer.
  void exec_self(Env& env, const AmOp& op);
  /// Atomicity-violation check for one committed access to `node`'s memory.
  void record_access(int node, std::uintptr_t lo, std::uintptr_t hi,
                     sim::Time t0, sim::Time t1, int entity, bool is_write);
  /// Tail of every acked commit: the access record, the commit trace and
  /// observers, then the ack, which carries `ack` in the op's payload and
  /// takes the node.
  void finish_commit(AmNode& n, sim::PoolBuf&& ack, sim::Time t0,
                     sim::Time t1, int entity, bool is_write);
  /// Send the ack for a committed op back to its origin; the ack event takes
  /// the node and frees it once the origin has consumed the payload.
  void schedule_ack(AmNode& n, sim::Time t_done);
  /// Origin-side ack arrival: complete the op and free its node.
  void on_ack(AmNode* n, sim::Time t_ack);

  // --- fault machinery (runtime_core.cpp; all paths require fs_) -----------
  /// Reliable-transport state; allocated in the constructor iff a FaultPlan
  /// is installed. Defined in runtime_core.cpp.
  struct FaultState;
  /// Post kill / stall / heartbeat-detection events (called before run()).
  void fault_setup();
  /// First transmission of a faultable data op: records the retransmission
  /// entry (which keeps the node until the first ack) and runs the
  /// verdict-driven wire step.
  void fault_send(AmNode* n, sim::Time t_send);
  /// One wire attempt (initial or retransmission) of a pending op.
  void fault_transmit(std::uint64_t opid, sim::Time t_send);
  /// Schedule delivery of one (cloned) copy at t_del, honoring stalls and
  /// dead targets.
  void fault_deliver_copy(const AmOp& op, sim::Time t_del);
  /// Target-side dedup: true = first execution, proceed; false = the op
  /// already executed, so skip it: the node goes with a re-sent cached ack,
  /// or back to its arena.
  bool fault_should_execute(AmNode& n, sim::Time t_now);
  /// Origin-side completion gate: true = first ack for this op, complete it;
  /// false = duplicate ack, ignore.
  bool fault_complete(std::uint64_t opid);
  /// Serve an AM addressed to a dead rank at delivery time (event context):
  /// lock traffic goes straight to the lock manager, data ops commit via the
  /// NIC/memory path.
  void fault_serve_dead(AmNode* n, sim::Time t);
  /// Mark a rank dead and drain its queued inbox through fault_serve_dead.
  void fault_kill_rank(int world_rank, sim::Time t);
  /// Wire copy of an op for one delivery: a node from the origin's arena
  /// with the payload cloned from the pool.
  AmNode* fault_clone(const AmOp& op);

  // --- lock protocol -------------------------------------------------------
  /// Send the delayed lock request for `ots` (in state Intent).
  void send_lock_request(Env& env, WinImpl& win, OriginTargetState& ots);
  /// Target-side lock-manager request processing (grant or queue) at time t.
  /// `ots` is the requesting origin's entry, where the grant lands.
  void lockmgr_request(WinImpl& win, int target, int origin, LockType type,
                       sim::Time t, OriginTargetState* ots);
  /// Target-side release processing; grants pending compatible requests and
  /// acknowledges the releaser at its entry `notify` (null: a self lock,
  /// released synchronously with no acknowledgment).
  void lockmgr_release(WinImpl& win, int target, int origin, LockType type,
                       sim::Time t, OriginTargetState* notify);
  /// Origin-side grant arrival: mark granted, inject queued ops, wake origin.
  void on_lock_granted(WinImpl& win, int origin, OriginTargetState& ots,
                       sim::Time t);
  /// Complete the caller's ops to `target`; `ots` is its entry, or null for
  /// an untouched target.
  void flush_target(Env& env, WinImpl& win, int target,
                    OriginTargetState* ots);
  /// Release the caller's lock on `target` and end it: p_win_unlock's body.
  /// `ots` is null for an untouched target: a lock run member, or any
  /// target inside lock_all.
  void unlock_target(Env& env, WinImpl& win, int target,
                     OriginTargetState* ots);

  /// Pointers into per-shard stats for per-op counters, resolved once at
  /// construction: the hot path must not pay a map lookup per operation.
  /// One instance per shard (index 0 when unsharded) so increments from
  /// different worker threads never share a cache line or race.
  struct HotStats {
    std::uint64_t* sw_ops = nullptr;
    std::uint64_t* hw_ops = nullptr;
    std::uint64_t* cross_numa_ops = nullptr;
    std::uint64_t* am_busy_arrival = nullptr;
    std::uint64_t* am_prompt = nullptr;
    std::uint64_t* interrupts = nullptr;
  };
  HotStats& hot() {
    return hot_[static_cast<std::size_t>(sim::Engine::current_shard())];
  }

  /// Recorder handles for the keys built per op or per sync (ghost.<g>.*,
  /// sync.<kind>); see obs::Interned. Sized per shard at construction.
  struct ObsKeys {
    obs::Interned<std::uint64_t> service_ops;    ///< by ghost world rank
    obs::Interned<std::uint64_t> service_bytes;  ///< by ghost world rank
    obs::Interned<obs::Histogram> service_ns;    ///< one key
    obs::Interned<std::uint64_t> sync;           ///< by SyncKind
  };

  RunConfig cfg_;
  std::function<void(Env&)> user_main_;
  /// Transient-buffer pool. Declared before engine_ and io_ so it outlives
  /// both: layers' scratch buffers and the op nodes own PoolBufs that
  /// release into this pool on destruction.
  sim::BytePool pool_;
  /// Op node arenas, one per engine shard (RankIo::arena points into this;
  /// sized once). Declared after pool_: nodes own PoolBufs.
  std::vector<AmArena> arenas_;
  std::vector<HotStats> hot_;
  /// One byte per rank, not std::vector<bool>: ghosts on different shards
  /// set their flags concurrently, and packed bits would share a word.
  std::vector<std::uint8_t> dedicated_;
  std::unique_ptr<sim::Engine> engine_;
  std::shared_ptr<Layer> layer_;
  Comm world_;
  std::vector<RankIo> io_;
  /// In-flight RMA accesses (absolute byte ranges): overlapping windows
  /// alias memory, so violation detection must work on addresses, not window
  /// coordinates. One list per node, keyed by the node owning the target
  /// memory: only accesses to the same node's memory can overlap, so a
  /// commit scans just its own node's entries. A node never spans shards,
  /// so each list is touched by one worker thread only.
  std::vector<std::vector<InflightOp>> inflight_;
  /// All windows ever created (weak): used for deadlock diagnostics.
  std::vector<std::weak_ptr<WinImpl>> win_registry_;
  void dump_comm_state() const;
  int next_comm_id_ = 1;
  int next_win_id_ = 1;
  std::uint64_t next_opid_ = 1;
  /// Per-shard opid sequences (sharded runs only; see make_opid).
  std::vector<std::uint64_t> opid_seq_;
  /// Guards comm/win id allocation + win_registry_ when sharded.
  std::mutex registry_mu_;
  std::vector<RmaObserver*> observers_;
  /// Null unless RunConfig::fault is installed (the zero-cost-off gate).
  std::unique_ptr<FaultState> fs_;
  ObsKeys keys_;
};

/// Convenience: build a runtime and run `user_main` on every rank.
void exec(RunConfig cfg, std::function<void(Env&)> user_main,
          LayerFactory layer = nullptr);

}  // namespace casper::mpi
