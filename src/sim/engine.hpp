// Deterministic discrete-event engine with cooperatively scheduled ranks.
//
// Each simulated MPI rank is a user-level stackful fiber (sim::Fiber — a
// coroutine with its own stack). Ranks are partitioned into scheduler shards
// (Options::shards, DESIGN.md §12); each shard owns a ready heap, an event
// calendar, slot pools, a fiber stack pool and a stats block,
// and every fiber of a shard is multiplexed on the one OS thread driving
// that shard: exactly one party (a rank fiber or the shard's scheduler) runs
// on it at any moment. A rank switch is a ~100 ns userspace register swap,
// not the mutex/condvar OS-thread handoff (two kernel context switches plus
// lock traffic) earlier versions paid per scheduling decision.
//
// One scheduler loop serves every shard count: shard_main alternates a
// window barrier with execute_window, which runs every local item below the
// window's end in (t, events-before-ranks, key) order. With one shard
// (the default) it runs on the thread that calls run(), without worker
// threads, as a single window to kNever. Its keys are a global post counter
// (plus the perturbation salt), so the order is posting order and every
// simulated result is bit-reproducible: no OS scheduler choice, lock
// handoff or memory-model subtlety can perturb it, and Options::stack_bytes
// changes where stacks live, never what order code runs in.
//
// Several shards each run on their own host worker thread and advance in
// conservative lookahead windows (Lubachevsky bounded-lag): the barrier
// computes the global minimum next-item time T and every shard then
// executes only items with t < T + lookahead. Cross-shard effects are staged
// in per-destination outboxes and merged at the next barrier. Events the
// runtime posts across shards carry at least the minimum network latency,
// so with lookahead <= that latency no merged event can land inside an
// already-executed region. Same-timestamp ties are broken by a canonical
// causal key (send virtual time, sender rank, per-sender posting sequence)
// assigned at post time — a pure function of the simulation, independent of
// which host thread staged the event — so virtual-time results, window
// bytes, and metrics are SHARD-COUNT INVARIANT, not merely run-to-run
// stable (tests/test_sharded_runtime.cpp sweeps shards over {1,2,4,8}).
//
// Stack sizing: Options::stack_bytes sizes each rank fiber's stack (rounded
// up to whole pages, minimum Fiber::kMinStackBytes). Each shard carves its
// ranks' stacks from one MAP_NORESERVE slab, so a run maps O(shards) stack
// regions however many ranks it has. A rank that switches away with its
// stack pointer in the red zone, or leaves the canary at its stack's low
// end overwritten, aborts naming the rank (sim::Fiber's stack contract).
//
// Rank code interacts with the engine through `Context`:
//   ctx.compute(us(100));   // model computation (extendable by stolen cycles)
//   ctx.advance(ns(500));   // model fixed software overhead
//   ctx.charge(ns(40));     // rank-local CPU time, paid at the next sync
//   engine.block_self();    // wait until another party calls wake()
//
// Event callbacks posted with post_event() run on the shard's scheduler
// fiber at their timestamp, strictly interleaved with rank execution in time
// order. They must not block; they typically deliver messages and wake
// ranks. In sharded mode an event must run on the shard owning the rank
// whose state it mutates — post it with the homed overload
// post_event(t, home_rank, cb).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/eventfn.hpp"
#include "sim/fiber.hpp"
#include "sim/heap.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace casper::sim {

class Engine;

/// Callback interface for observing scheduling decisions as they happen
/// (the observability layer's Recorder implements it). Unlike
/// set_schedule_trace this does not accumulate storage in the engine, so it
/// suits long runs where only a bounded window of history is wanted.
/// Sharded runs invoke it concurrently from every shard thread; an
/// implementation must route through per-shard storage (Recorder does, via
/// Engine::current_shard()).
class SchedObserver {
 public:
  virtual ~SchedObserver() = default;
  /// At virtual time `t` the engine resumed `rank` (-1: event callback).
  virtual void on_schedule(Time t, int rank) = 0;
};

/// Per-rank handle passed to user rank code; all simulation interaction for a
/// rank goes through its Context (valid only on that rank's fiber).
class Context {
 public:
  int rank() const { return rank_; }
  int size() const;
  Time now() const;
  Engine& engine() const { return *engine_; }
  Rng& rng() const;

  /// Model computation of duration `d`. While "computing", interrupt-style
  /// progress agents may steal cycles (add_compute_penalty), extending the
  /// completion time. A compute-rate factor (see set_compute_scale) models
  /// core oversubscription.
  void compute(Time d);

  /// Advance this rank's clock by `d` without the compute-penalty semantics
  /// (models fixed software overheads inside the runtime).
  void advance(Time d);

  /// Yield to let any same-time events run, without advancing the clock.
  void yield();

  /// Charge `d` of rank-local CPU time: now() includes it at once, and the
  /// rank pays it at its next synchronization point — advance, compute,
  /// yield, settle, block_self, any post_event from the rank, or its exit —
  /// which yields at most once for the whole sum. Only for code that reads
  /// and writes nothing another rank or an event can touch until then.
  void charge(Time d) { charged_ += d; }

  /// Pay any pending charge now (no-op, and no scheduling record, without
  /// one).
  void settle() {
    if (charged_ != 0) pay_charge();
  }

 private:
  friend class Engine;
  Context(Engine* e, int r) : engine_(e), rank_(r) {}
  void pay_charge();
  Engine* engine_;
  int rank_;
  Time charged_ = 0;  // charge() time not yet paid
};

/// The discrete-event engine. Construct, then run() to execute all ranks'
/// main functions to completion in virtual time.
class Engine {
 public:
  struct Options {
    int nranks = 1;
    std::uint64_t seed = 12345;
    /// Usable stack bytes per rank fiber (page-rounded; stacks sit one page
    /// more than this apart in their shard's slab).
    std::size_t stack_bytes = 256 * 1024;
    /// Non-zero: perturb scheduling tie-breaks. Parties scheduled for the
    /// SAME virtual time are ordered by a seeded pseudo-random salt, drawn
    /// once per event post and once per rank entering the ready queue: it
    /// orders events within a calendar bucket (ahead of the post key) and
    /// ranks ahead of their rank id, so each perturb_seed explores a
    /// different — but still bit-reproducible — legal interleaving. Events
    /// still run before ranks at equal timestamps (deliveries stay visible
    /// to a rank resuming at that instant), and virtual-time ordering is
    /// never violated, so every perturbed schedule is one the unperturbed
    /// rules could legally emit under different message timings. 0 =
    /// classic deterministic order.
    /// One shard only (the sharded scheduler's canonical keys are its own,
    /// already-explored source of legal tie permutations).
    std::uint64_t perturb_seed = 0;
    /// Number of scheduler shards. 1 (the default) runs the one shard on
    /// the thread calling run(), bit-exact with previous releases; more
    /// shards run on that thread plus shards - 1 worker threads.
    int shards = 1;
    /// Conservative synchronization window for shards > 1: no cross-shard
    /// effect may be scheduled less than `lookahead` after the time of the
    /// party posting it (the runtime sets this to the minimum cross-node
    /// network latency and clamps it further when small cross-shard
    /// communicators exist; see clamp_lookahead()).
    Time lookahead = us(1);
    /// Rank -> shard id map; must be stable and in [0, shards). Defaults to
    /// contiguous equal blocks. The MPI runtime passes a node-aligned map so
    /// cross-shard always implies cross-node (inter-node latency floor).
    std::function<int(int)> shard_of;
  };
  using RankMain = std::function<void(Context&)>;

  Engine(Options opts, RankMain main);

  /// Destruction reclaims all fiber stacks deterministically — including
  /// when run() was never called or ranks never finished; nothing can hang.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Run the simulation to completion. Aborts with a diagnostic if the
  /// simulation deadlocks (ranks blocked with no pending events).
  void run();

  int nranks() const { return static_cast<int>(ranks_.size()); }

  /// Virtual clock of a rank, pending charge included.
  Time rank_now(int rank) const;

  /// Largest virtual time reached by any rank or event (the "makespan");
  /// folded from the shards at the end of run().
  Time horizon() const { return horizon_; }

  // --- services for the runtime layers (call only while holding the token,
  //     i.e. from rank code or from an event callback) ---

  /// Schedule `cb` to run on the scheduler fiber at virtual time `t` (>= the
  /// current global time). EventFn is move-only, so closures may own pooled
  /// buffers; posting allocates nothing once the slot pool is warm. In
  /// sharded mode the event runs on the calling shard — use the homed
  /// overload whenever the callback touches another rank's state.
  void post_event(Time t, EventFn cb);

  /// Schedule `cb` to run at `t` on the shard owning `home_rank` (the rank
  /// whose state the callback mutates). Identical to the unhomed overload
  /// when shards == 1. Cross-shard posts must satisfy the lookahead
  /// contract: t >= (posting shard's window end); violations abort.
  void post_event(Time t, int home_rank, EventFn cb);

  /// Move the calling rank's clock to `t` (at least its charged now()) and
  /// yield until then; pays any pending charge.
  void advance_self_to(Time t);

  /// Block the calling rank until some party calls wake() on it, after
  /// paying any pending charge. The caller must re-check its predicate on
  /// return (wakeups can be "spurious" when several conditions share a
  /// waiter).
  void block_self();

  /// Make `rank` runnable no earlier than time `t` (no-op unless blocked).
  /// Sharded mode: `rank` must live on the calling shard (see wake_at).
  void wake(int rank, Time t);

  /// Cross-shard-safe wake: direct when `rank` is shard-local (or shards ==
  /// 1, where it is byte-identical to wake()), otherwise staged as a homed
  /// event at `t`. Use from runtime code that may wake a remote rank.
  void wake_at(int rank, Time t);

  /// Add stolen compute time to `rank` (interrupt progress model). Only has
  /// an effect while the rank is inside Context::compute(). Shard-local.
  void add_compute_penalty(int rank, Time t);

  /// True while `rank` is inside Context::compute().
  bool rank_computing(int rank) const;

  /// Scale factor applied to all subsequent compute() durations of `rank`;
  /// models core oversubscription (e.g. 2.0 when a progress thread shares
  /// the core).
  void set_compute_scale(int rank, double scale);

  /// Simulation-wide counters. Single-shard: the live registry. Sharded:
  /// the post-run merge of every shard's registry (valid after run()).
  Stats& stats() { return stats_; }

  /// The registry hot paths must increment: the calling shard's own block
  /// (no synchronization). With one shard that block is stats().
  Stats& stats_local();

  /// A specific shard's registry (stable from construction), for resolving
  /// per-shard hot-counter pointers before run().
  Stats& shard_stats(int shard);

  Rng& rank_rng(int rank) { return ranks_[rank]->rng; }

  // --- sharding introspection ---

  bool sharded() const { return shards_.size() > 1; }
  int shards() const { return static_cast<int>(shards_.size()); }
  int shard_of_rank(int rank) const {
    return shard_of_rank_[static_cast<std::size_t>(rank)];
  }
  /// Shard id of the calling thread (0 when single-sharded or off-engine).
  static int current_shard();

  /// Shrink the conservative lookahead (no-op if `la` is not smaller). The
  /// runtime calls this when a communicator whose collective-release floor
  /// is below the current lookahead comes into existence; takes effect at
  /// the next window barrier.
  void clamp_lookahead(Time la);
  Time lookahead() const { return lookahead_.load(std::memory_order_relaxed); }

  /// Extra diagnostics printed when the simulation deadlocks (set by the
  /// runtime layer to dump communication state).
  void set_deadlock_dump(std::function<void()> dump) {
    deadlock_dump_ = std::move(dump);
  }

  /// Context of the calling fiber; aborts if called off a rank fiber.
  static Context& current();

  /// One scheduling decision: at virtual time `t` the engine handed the
  /// token to `rank` (or ran an event callback, rank == -1).
  struct SchedRecord {
    Time t;
    int rank;  // -1 for event callbacks
  };

  /// Capture every scheduling decision into `sink` (null disables capture).
  /// The recorded sequence identifies a schedule exactly: together with
  /// (seed, perturb_seed) it makes interleaving bugs replayable and lets a
  /// repro file show *where* two schedules diverged. One shard only: run()
  /// aborts when a sharded engine has a sink set.
  void set_schedule_trace(std::vector<SchedRecord>* sink) {
    sched_trace_ = sink;
  }

  /// Notify `obs` of every scheduling decision (null disables). Independent
  /// of set_schedule_trace; both may be active at once.
  void set_sched_observer(SchedObserver* obs) { sched_obs_ = obs; }

 private:
  friend class Context;

  enum class St : std::uint8_t { NotStarted, Ready, Running, Blocked, Done };

  struct RankState {
    explicit RankState(Engine* e, int r) : ctx(e, r), rng() {}
    Context ctx;
    Rng rng;
    St st = St::NotStarted;
    Time now = 0;
    Time penalty = 0;         // stolen compute time not yet consumed
    /// Canonical per-sender post counter (sharded runs); lives here, next
    /// to `now`, so the post hot path touches one rank cache line. Only the
    /// shard owning this rank ever increments it.
    std::uint64_t post_seq = 0;
    bool computing = false;   // inside Context::compute()
    double compute_scale = 1.0;
    std::unique_ptr<Fiber> fiber;  // created on first schedule, freed Done
  };

  /// Ready-heap entry. Tie-break at equal time: salt (perturbed runs),
  /// then lower rank first; seq only orders one rank's own entries.
  struct HeapItem {
    Time t;
    std::uint64_t seq;
    std::uint32_t salt;  // 0 unless schedule perturbation is on
    std::int32_t rank;
    bool operator>(const HeapItem& o) const {
      if (t != o.t) return t > o.t;
      if (salt != o.salt) return salt > o.salt;
      if (rank != o.rank) return rank > o.rank;
      return seq > o.seq;
    }
  };

  /// Tie-break key of a posted event, assigned at post time: events at
  /// equal delivery time run in ascending key order. The salt (perturbed
  /// runs, else 0) comes first, then the canonical causal key (send_t,
  /// sender, seq). One-shard posts pin send_t = 0 and sender = -1 and count
  /// seq in one global post counter, so their order is posting order —
  /// bit-exact with previous releases. Sharded posts carry the posting
  /// context's virtual time, its home rank, and a per-sender sequence
  /// number; all three are functions of the simulation itself, never of the
  /// shard layout, which is what makes same-timestamp execution order — and
  /// therefore every virtual-time result — shard-count-invariant.
  struct PostKey {
    Time send_t;
    std::uint64_t seq;
    std::uint32_t salt;
    std::int32_t sender;
    bool operator<(const PostKey& o) const {
      if (salt != o.salt) return salt < o.salt;
      if (send_t != o.send_t) return send_t < o.send_t;
      if (sender != o.sender) return sender < o.sender;
      return seq < o.seq;
    }
  };

  /// Spill-heap entry for a pending event; the callback lives in a pooled
  /// slot (SlotPool) so heap sifts move plain bytes, never a closure.
  struct EventKey {
    Time t;
    PostKey key;
    std::uint32_t slot;
    std::int32_t home;  // rank whose shard executes the event
    bool operator>(const EventKey& o) const {
      if (t != o.t) return t > o.t;
      return o.key < key;
    }
  };

  /// What pop_event hands back: the callback's slot plus the home rank the
  /// executor attributes nested posts to.
  struct PoppedEvent {
    std::uint32_t slot;
    std::int32_t home;
  };

  /// Two-tier pooled event-callback slots, one pool per shard. Most
  /// closures are a couple of scalars and live in compact SmallEventFn
  /// slots (every per-op RMA event carries just an op node pointer and a
  /// time); only closures larger than SmallEventFn::kInline (p2p sends, lock
  /// messages) use the full-width tier. Splitting tiers keeps the live-slot
  /// array inside the cache at high event counts — the difference between
  /// 10M and 14M dispatches/sec at 16 ranks, and more at 1024. Slot ids
  /// carry the tier in the top bit; freed slots recycle LIFO, so a warm run
  /// allocates nothing.
  struct SlotPool {
    static constexpr std::uint32_t kBigBit = 0x80000000u;
    std::vector<SmallEventFn> small;
    std::vector<std::uint32_t> small_free;
    std::vector<EventFn> big;
    std::vector<std::uint32_t> big_free;

    std::uint32_t put(EventFn&& cb) {
      // Heap-held payloads are a pointer steal — the small tier fits them.
      if (cb.on_heap() || cb.payload_size() <= SmallEventFn::kInline) {
        if (small_free.empty()) {
          const auto s = static_cast<std::uint32_t>(small.size());
          small.push_back(std::move(cb));
          return s;
        }
        const std::uint32_t s = small_free.back();
        small_free.pop_back();
        small[s] = std::move(cb);
        return s;
      }
      if (big_free.empty()) {
        const auto s = static_cast<std::uint32_t>(big.size());
        big.push_back(std::move(cb));
        return s | kBigBit;
      }
      const std::uint32_t s = big_free.back();
      big_free.pop_back();
      big[s] = std::move(cb);
      return s | kBigBit;
    }

    /// Move the callback out and recycle the slot. Must happen *before* the
    /// callback runs: it may post events and grow the slot vectors.
    EventFn take(std::uint32_t slot) {
      if ((slot & kBigBit) != 0) {
        const std::uint32_t s = slot & ~kBigBit;
        EventFn cb = std::move(big[s]);
        big_free.push_back(s);
        return cb;
      }
      EventFn cb(std::move(small[slot]));
      small_free.push_back(slot);
      return cb;
    }
  };

  /// Bounded-horizon bucket calendar (each shard's event queue). Covers
  /// [base, base + kBuckets) nanoseconds with one bucket per nanosecond,
  /// indexed by absolute time so rebasing moves no data. A bucket holds one
  /// timestamp, kept sorted by PostKey: one-shard keys grow in posting
  /// order and sharded keys are mostly monotone, so inserts take the O(1)
  /// append fast path in the common case; only salted (perturbed) keys
  /// insert mid-bucket. Pops are O(1) — the binary heap's O(log n) sift and
  /// its cache misses are what cap single-threaded event throughput. Events
  /// beyond the span spill to a keyed heap and refill when the base
  /// advances.
  struct Calendar {
    static constexpr std::size_t kBuckets = 4096;  // power of two, ns each
    static constexpr std::uint32_t kNil = 0xffffffffu;
    /// Buckets are intrusive lists over one shared node arena: the arena
    /// grows geometrically and nodes recycle through a free list, so the
    /// steady state allocates nothing no matter which of the 4096 buckets
    /// the workload rotates through (per-bucket vectors would pay one
    /// warm-up allocation per bucket, which the zero-allocation hot path
    /// guard rightly counts).
    struct Node {
      PostKey key;
      std::uint32_t slot;
      std::uint32_t next;
      std::int32_t home;
    };
    std::array<std::uint32_t, kBuckets> head;
    std::array<std::uint32_t, kBuckets> tail;
    std::vector<Node> nodes;
    std::uint32_t free_head = kNil;
    std::uint64_t occ[kBuckets / 64] = {};
    Time base = 0;
    std::size_t pending = 0;

    Calendar() {
      head.fill(kNil);
      tail.fill(kNil);
    }

    bool in_span(Time t) const { return t - base < kBuckets; }
    void add(Time t, std::uint32_t slot, std::int32_t home,
             const PostKey& key) {
      std::uint32_t n;
      if (free_head != kNil) {
        n = free_head;
        free_head = nodes[n].next;
        nodes[n] = Node{key, slot, kNil, home};
      } else {
        n = static_cast<std::uint32_t>(nodes.size());
        nodes.push_back(Node{key, slot, kNil, home});
      }
      const std::size_t i = static_cast<std::size_t>(t) & (kBuckets - 1);
      ++pending;
      if (head[i] == kNil) {
        head[i] = tail[i] = n;
        occ[i >> 6] |= 1ull << (i & 63);
        return;
      }
      if (!(key < nodes[tail[i]].key)) {
        nodes[tail[i]].next = n;  // append: monotone keys, the common case
        tail[i] = n;
        return;
      }
      if (key < nodes[head[i]].key) {
        nodes[n].next = head[i];
        head[i] = n;
        return;
      }
      std::uint32_t p = head[i];
      while (nodes[p].next != kNil && !(key < nodes[nodes[p].next].key)) {
        p = nodes[p].next;
      }
      nodes[n].next = nodes[p].next;
      nodes[p].next = n;
      if (nodes[n].next == kNil) tail[i] = n;
    }
    Node pop_at(Time t) {
      const std::size_t i = static_cast<std::size_t>(t) & (kBuckets - 1);
      const std::uint32_t n = head[i];
      const Node out = nodes[n];
      head[i] = nodes[n].next;
      if (head[i] == kNil) occ[i >> 6] &= ~(1ull << (i & 63));
      nodes[n].next = free_head;
      free_head = n;
      --pending;
      return out;
    }
    /// Smallest occupied time >= from (caller guarantees from >= base and
    /// pending > 0 implies an entry in [base, base + kBuckets)).
    Time next_from(Time from) const;
  };

  /// Everything one scheduler shard owns. Worker threads touch only their
  /// own shard between barriers; outboxes are written by the owner and
  /// drained inside the barrier's serial section while all shards are
  /// quiescent.
  struct ShardState {
    explicit ShardState(std::size_t stack_bytes) : stacks(stack_bytes) {}
    int id = 0;
    std::vector<int> ranks;  // global rank ids owned by this shard
    MinHeap<HeapItem> ready;
    Calendar cal;
    MinHeap<EventKey> far;  // events beyond the calendar span, or overdue
    SlotPool slots;
    std::uint64_t seq = 0;
    Time next_ev = kNever;  // lower bound of the calendar's minimum time
    Time window_end = 0;    // exclusive execution horizon of this window
    Time exec_now = 0;      // largest time this shard has executed to
    /// Home rank of the event callback currently executing (-1 outside
    /// one); nested posts from a callback attribute to this rank so their
    /// canonical keys are functions of the simulation, not the shard map.
    std::int32_t exec_home = -1;
    Time next_time = kNever;  // min next item time, read at the barrier
    Time horizon = 0;
    int done = 0;
    StackPool stacks;  // every rank fiber's stack, from one slab
    Stats own_stats;
    /// The registry stats_local() hands out: own_stats when sharded (merged
    /// into the engine's after run()), the engine's live registry itself
    /// when this is the only shard.
    Stats* stats = &own_stats;
    Fiber* sched_fiber = nullptr;  // set by shard_main: its adopted thread
    /// Cross-shard staging: one vector per destination shard. Entries carry
    /// their canonical causal key, assigned at post time on the source
    /// shard, so the merge order is irrelevant to the destination's
    /// intra-bucket sort.
    struct Staged {
      Time t;
      PostKey key;
      std::int32_t home;
      EventFn cb;
    };
    std::vector<std::vector<Staged>> outbox;
  };

  /// Tie-break salt for the next post or ready-queue push (0 when
  /// perturbation is off).
  std::uint32_t next_salt() {
    return opts_.perturb_seed == 0
               ? 0
               : static_cast<std::uint32_t>(perturb_rng_.next_u64() >> 32);
  }

  static void fiber_trampoline(void* arg);
  void rank_fiber_body(int rank);
  void hand_token_to(int rank);
  void yield_to_scheduler(int rank, bool exiting = false);
  void make_ready(int rank, Time t);
  /// Pay the calling rank's pending charge, if any (see Context::charge).
  void settle_current();
  [[noreturn]] void die_deadlocked();

  // --- scheduler core (engine.cpp) ---
  void shard_main(ShardState& sh);
  void execute_window(ShardState& sh);
  /// Barrier + serial section; returns true when the run is complete.
  bool window_barrier(ShardState& sh);
  void serial_merge_and_plan();
  void shard_insert_local(ShardState& sh, Time t, std::int32_t home,
                          const PostKey& key, EventFn&& cb);
  /// Earliest ready-rank time, dropping stale heap entries on the way.
  Time next_rank_time(ShardState& sh);
  Time shard_next_time(ShardState& sh);
  /// The calling thread's shard (shard 0 outside run()).
  ShardState& cur_shard();
  /// The key of a new post: for sharded runs the posting context (the rank
  /// fiber holding the token, else the executing event's home, else -1 for
  /// pre-run setup) with its virtual time and next sequence number — the
  /// canonical causal key shared by every shard layout; for one shard
  /// sender -1 and the global post counter. Draws the post's salt.
  PostKey post_key();

  /// Pull every spilled event now inside the calendar span (entries below
  /// `base` — "overdue" posts from lagging-clock ranks — stay in `far` and
  /// pop from there).
  static void refill(ShardState& sh);
  /// Earliest pending event time across calendar + spill heap, advancing
  /// the calendar base as far as `bound` allows. Returns kNever when empty.
  static Time next_event(ShardState& sh, Time bound);
  /// Pop the event `next_event` just reported at `te`.
  static PoppedEvent pop_event(ShardState& sh, Time te);

  /// Report one scheduling decision to the trace sink and the observer.
  void note_schedule(Time t, int rank) {
    if (sched_trace_ != nullptr || sched_obs_ != nullptr) [[unlikely]] {
      report_schedule(t, rank);
    }
  }
  void report_schedule(Time t, int rank);

  Options opts_;
  RankMain main_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  Time horizon_ = 0;
  bool running_ = false;

  std::vector<std::unique_ptr<ShardState>> shards_;  // at least one
  std::vector<int> shard_of_rank_;
  /// Post counter for sender -1: every post of a one-shard run, and the
  /// pre-run setup posts (single-threaded) of a sharded one. Rank senders
  /// count in RankState::post_seq, touched only by the shard owning the
  /// rank — every execution context lives on its home's shard — so no
  /// synchronization, and the values are identical for every shard count.
  std::uint64_t setup_post_seq_ = 0;
  std::atomic<Time> lookahead_{0};
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_gen_ = 0;
  bool stop_flag_ = false;

  Rng perturb_rng_;  // tie-break salt stream (seeded by Options::perturb_seed)
  std::vector<SchedRecord>* sched_trace_ = nullptr;
  SchedObserver* sched_obs_ = nullptr;

  std::function<void()> deadlock_dump_;
  Stats stats_;
};

}  // namespace casper::sim
