#include "sim/engine.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>

namespace casper::sim {

namespace {
// Context of the rank fiber currently holding the token on this thread;
// null while a scheduler fiber (or no engine) runs. All fibers of a shard
// share the one OS thread driving that shard, so a plain thread_local is
// both correct and nesting-safe (saved/restored around each handoff).
thread_local Context* g_current_ctx = nullptr;
// Shard id of the scheduler running on this thread: 0 outside run();
// shard_main() sets it while this thread drives a shard.
thread_local int g_shard_id = 0;
}  // namespace

// ---------------------------------------------------------------- Context --

int Context::size() const { return engine_->nranks(); }
Time Context::now() const { return engine_->rank_now(rank_); }
Rng& Context::rng() const { return engine_->rank_rng(rank_); }

void Context::advance(Time d) { engine_->advance_self_to(now() + d); }

void Context::yield() { engine_->advance_self_to(now()); }

void Context::pay_charge() { engine_->advance_self_to(now()); }

// ----------------------------------------------------------------- Engine --

Engine::Engine(Options opts, RankMain main)
    : opts_(opts), main_(std::move(main)) {
  if (opts_.nranks <= 0) {
    std::fprintf(stderr, "sim::Engine: nranks must be positive\n");
    std::abort();
  }
  ranks_.reserve(static_cast<std::size_t>(opts_.nranks));
  for (int r = 0; r < opts_.nranks; ++r) {
    ranks_.push_back(std::make_unique<RankState>(this, r));
    ranks_.back()->rng = Rng(opts_.seed, static_cast<std::uint64_t>(r));
  }
  // Stream id well clear of the rank id space so perturbation salts never
  // correlate with any rank's own random stream.
  perturb_rng_ = Rng(opts_.perturb_seed, 0xfeedfacecafeULL);

  if (opts_.shards > opts_.nranks) opts_.shards = opts_.nranks;
  if (opts_.shards < 1) opts_.shards = 1;
  lookahead_.store(opts_.lookahead < 1 ? Time{1} : opts_.lookahead,
                   std::memory_order_relaxed);
  if (opts_.shards > 1 && opts_.perturb_seed != 0) {
    std::fprintf(stderr,
                 "sim::Engine: perturb_seed is single-shard only (the "
                 "sharded merge order explores its own tie permutations)\n");
    std::abort();
  }
  const int S = opts_.shards;
  shard_of_rank_.resize(static_cast<std::size_t>(opts_.nranks));
  const int block = (opts_.nranks + S - 1) / S;
  for (int s = 0; s < S; ++s) {
    shards_.push_back(std::make_unique<ShardState>(opts_.stack_bytes));
    shards_.back()->id = s;
    shards_.back()->outbox.resize(static_cast<std::size_t>(S));
  }
  if (S == 1) shards_[0]->stats = &stats_;  // the live registry
  for (int r = 0; r < opts_.nranks; ++r) {
    const int s = opts_.shard_of ? opts_.shard_of(r) : r / block;
    if (s < 0 || s >= S) {
      std::fprintf(stderr, "sim::Engine: shard_of(%d) = %d out of [0, %d)\n",
                   r, s, S);
      std::abort();
    }
    shard_of_rank_[static_cast<std::size_t>(r)] = s;
    shards_[static_cast<std::size_t>(s)]->ranks.push_back(r);
  }
  // One slab per shard holds every rank's stack; it is mapped on the first
  // fiber the shard creates.
  for (auto& sh : shards_) sh->stacks.reserve(sh->ranks.size());
}

// Ranks first: a rank's fiber returns its stack to its shard's pool.
Engine::~Engine() { ranks_.clear(); }

Time Engine::rank_now(int rank) const {
  const RankState& rs = *ranks_[rank];
  return rs.now + rs.ctx.charged_;
}

int Engine::current_shard() { return g_shard_id; }

Engine::ShardState& Engine::cur_shard() {
  return *shards_[static_cast<std::size_t>(g_shard_id)];
}

Context& Engine::current() {
  if (g_current_ctx == nullptr) {
    std::fprintf(stderr, "sim::Engine::current() called off a rank fiber\n");
    std::abort();
  }
  return *g_current_ctx;
}

Stats& Engine::stats_local() { return *cur_shard().stats; }

Stats& Engine::shard_stats(int shard) {
  return *shards_[static_cast<std::size_t>(shard)]->stats;
}

void Engine::clamp_lookahead(Time la) {
  if (la < 1) la = 1;
  Time cur = lookahead_.load(std::memory_order_relaxed);
  while (la < cur && !lookahead_.compare_exchange_weak(
                         cur, la, std::memory_order_relaxed)) {
  }
}

void Engine::fiber_trampoline(void* arg) {
  auto* rs = static_cast<RankState*>(arg);
  rs->ctx.engine().rank_fiber_body(rs->ctx.rank());
}

void Engine::rank_fiber_body(int rank) {
  RankState& rs = *ranks_[rank];
  rs.st = St::Running;
  main_(rs.ctx);
  rs.ctx.settle();
  rs.st = St::Done;
  ++cur_shard().done;
  yield_to_scheduler(rank, /*exiting=*/true);
  // Unreachable: a Done fiber is never resumed (Fiber aborts if it is).
}

void Engine::hand_token_to(int rank) {
  RankState& rs = *ranks_[rank];
  ShardState& sh = cur_shard();
  if (!rs.fiber) {
    rs.fiber = std::make_unique<Fiber>(&Engine::fiber_trampoline, &rs,
                                       sh.stacks, rank);
  }
  Context* prev = g_current_ctx;
  g_current_ctx = &rs.ctx;
  Fiber::switch_to(*sh.sched_fiber, *rs.fiber);
  g_current_ctx = prev;
  if (rs.st == St::Done) rs.fiber.reset();  // reclaim the stack eagerly
}

void Engine::yield_to_scheduler(int rank, bool exiting) {
  RankState& rs = *ranks_[rank];
  Fiber::switch_to(*rs.fiber, *cur_shard().sched_fiber, exiting);
  // Execution resumes here when the scheduler hands the token back.
}

void Engine::make_ready(int rank, Time t) {
  RankState& rs = *ranks_[rank];
  rs.st = St::Ready;
  // Only legal shard-locally (or pre-run / in the barrier's serial section,
  // while every shard is quiescent).
  ShardState& sh = *shards_[static_cast<std::size_t>(shard_of_rank_[rank])];
  sh.ready.push(HeapItem{t, sh.seq++, next_salt(), rank});
}

Engine::PostKey Engine::post_key() {
  if (sharded()) {
    if (g_current_ctx != nullptr) {
      const int r = g_current_ctx->rank();
      RankState& rs = *ranks_[static_cast<std::size_t>(r)];
      return PostKey{rs.now, rs.post_seq++, next_salt(), r};
    }
    if (running_) {
      ShardState& sh = cur_shard();
      if (sh.exec_home >= 0) {
        RankState& rs = *ranks_[static_cast<std::size_t>(sh.exec_home)];
        return PostKey{sh.exec_now, rs.post_seq++, next_salt(), sh.exec_home};
      }
    }
  }
  return PostKey{0, setup_post_seq_++, next_salt(), -1};
}

void Engine::report_schedule(Time t, int rank) {
  if (sched_trace_) sched_trace_->push_back(SchedRecord{t, rank});
  if (sched_obs_) sched_obs_->on_schedule(t, rank);
}

void Engine::settle_current() {
  if (g_current_ctx != nullptr) g_current_ctx->settle();
}

void Engine::post_event(Time t, EventFn cb) {
  settle_current();
  // A non-homed post runs on the posting shard, i.e. effectively homed to
  // the posting context's own rank — record that home so nested posts from
  // its callback inherit a shard-layout-independent attribution.
  const PostKey key = post_key();
  shard_insert_local(cur_shard(), t, key.sender, key, std::move(cb));
}

void Engine::post_event(Time t, int home_rank, EventFn cb) {
  settle_current();  // the key below reads the poster's clock
  const PostKey key = post_key();
  const int dst = shard_of_rank_[static_cast<std::size_t>(home_rank)];
  ShardState& sh = cur_shard();
  if (dst == sh.id) {
    shard_insert_local(sh, t, home_rank, key, std::move(cb));
    return;
  }
  // Conservative-lookahead contract: a cross-shard effect may not land
  // inside the current window (the destination may already have executed
  // past it). The runtime guarantees cross-shard edges carry at least the
  // minimum network latency >= lookahead, so this only fires on a homing
  // bug.
  if (t < sh.window_end) {
    std::fprintf(stderr,
                 "sim::Engine: cross-shard event at t=%.3f us violates the "
                 "lookahead window (end %.3f us, shard %d -> %d)\n",
                 to_us(t), to_us(sh.window_end), sh.id, dst);
    std::abort();
  }
  sh.outbox[static_cast<std::size_t>(dst)].push_back(
      ShardState::Staged{t, key, home_rank, std::move(cb)});
}

void Engine::shard_insert_local(ShardState& sh, Time t, std::int32_t home,
                                const PostKey& key, EventFn&& cb) {
  const std::uint32_t slot = sh.slots.put(std::move(cb));
  if (sh.cal.in_span(t)) {
    sh.cal.add(t, slot, home, key);
    if (t < sh.next_ev) sh.next_ev = t;
  } else {
    sh.far.push(EventKey{t, key, slot, home});
  }
}

void Engine::refill(ShardState& sh) {
  // Pull every spilled event now inside the calendar span. The unsigned
  // comparison deliberately excludes overdue entries (t < base): they can
  // never be bucketed again and pop from the spill heap instead.
  while (!sh.far.empty() && sh.far.top().t - sh.cal.base < Calendar::kBuckets) {
    const EventKey k = sh.far.pop();
    sh.cal.add(k.t, k.slot, k.home, k.key);
    if (k.t < sh.next_ev) sh.next_ev = k.t;
  }
}

Time Engine::Calendar::next_from(Time from) const {
  std::size_t i = static_cast<std::size_t>(from) & (kBuckets - 1);
  std::size_t left = kBuckets - static_cast<std::size_t>(from - base);
  for (;;) {
    const std::uint64_t w = occ[i >> 6] & (~std::uint64_t{0} << (i & 63));
    if (w != 0) {
      const auto tz = static_cast<std::size_t>(std::countr_zero(w));
      return from + (tz - (i & 63));
    }
    const std::size_t step = 64 - (i & 63);
    if (step >= left) return kNever;
    from += step;
    left -= step;
    i = (i + step) & (kBuckets - 1);
  }
}

Time Engine::next_event(ShardState& sh, Time bound) {
  Calendar& cal = sh.cal;
  Time ftop = sh.far.empty() ? kNever : sh.far.top().t;
  if (cal.pending == 0 && ftop == kNever) return kNever;
  // Slide the span forward as far as safety allows: never past a pending
  // event (the calendar lower bound or the spill minimum) and never past
  // `bound` — the earliest point still-to-run work could post from, so
  // nothing lands below `base` in the common case. Absolute bucket indexing
  // means moving `base` relocates no data. An overdue spill entry (t <
  // base, from a lagging-clock rank) wraps both min-comparisons to "huge",
  // which is exactly right: it must not drag `base` backwards, and it wins
  // the final min below.
  Time nb = cal.pending == 0 ? ftop : (sh.next_ev < ftop ? sh.next_ev : ftop);
  if (nb > bound) nb = bound;
  if (nb > cal.base) {
    cal.base = nb;
    refill(sh);
    ftop = sh.far.empty() ? kNever : sh.far.top().t;
  }
  if (cal.pending == 0) return ftop;  // beyond the span, or overdue
  const Time from = sh.next_ev > cal.base ? sh.next_ev : cal.base;
  const Time t = cal.next_from(from);
  sh.next_ev = t;
  return ftop < t ? ftop : t;  // ftop < t only when overdue
}

Engine::PoppedEvent Engine::pop_event(ShardState& sh, Time te) {
  // Spill-sourced iff the calendar has nothing in span or the spill top is
  // overdue (strictly below the freshly scanned calendar minimum next_ev);
  // equal times are impossible across the two structures.
  if (sh.cal.pending == 0 || (!sh.far.empty() && sh.far.top().t < sh.next_ev)) {
    const EventKey k = sh.far.pop();
    return PoppedEvent{k.slot, k.home};
  }
  const Calendar::Node n = sh.cal.pop_at(te);
  return PoppedEvent{n.slot, n.home};
}

Time Engine::next_rank_time(ShardState& sh) {
  while (!sh.ready.empty() &&
         ranks_[sh.ready.top().rank]->st != St::Ready) {
    sh.ready.pop();  // stale entry (rank was re-queued)
  }
  return sh.ready.empty() ? kNever : sh.ready.top().t;
}

Time Engine::shard_next_time(ShardState& sh) {
  const Time tr = next_rank_time(sh);
  const Time te = next_event(sh, tr < sh.window_end ? tr : sh.window_end);
  return te < tr ? te : tr;
}

void Engine::advance_self_to(Time t) {
  Context& ctx = current();
  RankState& rs = *ranks_[ctx.rank()];
  // The pending charge is paid here, in the same step as `t`.
  const Time floor = rs.now + ctx.charged_;
  ctx.charged_ = 0;
  if (t < floor) t = floor;
  // Fast path: if nothing else (event or rank) is due at or before t, and t
  // is inside the current window (time beyond it needs the barrier to
  // certify no cross-shard event lands first), the scheduler would hand the
  // token straight back to this rank — skip the two fiber switches. Strict
  // comparisons keep the execution order identical to the slow path. The
  // calendar check must be *exact* for the same reason (a spurious slow
  // path would emit an extra scheduling record): when the lower bound
  // next_ev can't decide, scan — the result is the true calendar minimum
  // and is cached.
  ShardState& sh = cur_shard();
  bool event_earlier = !sh.far.empty() && sh.far.top().t <= t;
  if (!event_earlier && sh.cal.pending != 0 && sh.next_ev <= t) {
    const Time from = sh.next_ev > sh.cal.base ? sh.next_ev : sh.cal.base;
    sh.next_ev = sh.cal.next_from(from);
    event_earlier = sh.next_ev <= t;
  }
  const bool rank_earlier = !sh.ready.empty() && sh.ready.top().t <= t;
  if (t < sh.window_end && !event_earlier && !rank_earlier) {
    rs.now = t;
    if (t > sh.horizon) sh.horizon = t;
    return;
  }
  make_ready(ctx.rank(), t);
  yield_to_scheduler(ctx.rank());
}

void Engine::block_self() {
  Context& ctx = current();
  ctx.settle();
  RankState& rs = *ranks_[ctx.rank()];
  rs.st = St::Blocked;
  yield_to_scheduler(ctx.rank());
}

void Engine::wake(int rank, Time t) {
  const int home = shard_of_rank_[static_cast<std::size_t>(rank)];
  if (home != cur_shard().id) {
    std::fprintf(stderr,
                 "sim::Engine: wake(%d) crossed shards (%d -> %d); use "
                 "wake_at()\n",
                 rank, cur_shard().id, home);
    std::abort();
  }
  RankState& rs = *ranks_[rank];
  if (rs.st != St::Blocked) return;
  make_ready(rank, t > rs.now ? t : rs.now);
}

void Engine::wake_at(int rank, Time t) {
  if (shard_of_rank_[static_cast<std::size_t>(rank)] == cur_shard().id) {
    wake(rank, t);
    return;
  }
  post_event(t, rank, [this, rank, t] { wake(rank, t); });
}

void Engine::add_compute_penalty(int rank, Time t) {
  ranks_[rank]->penalty += t;
}

bool Engine::rank_computing(int rank) const {
  return ranks_[rank]->computing;
}

void Engine::set_compute_scale(int rank, double scale) {
  ranks_[rank]->compute_scale = scale;
}

void Context::compute(Time d) {
  Engine& e = *engine_;
  settle();  // a charge is CPU time outside the computation
  auto& rs = *e.ranks_[rank_];
  rs.computing = true;
  rs.penalty = 0;
  const auto scaled =
      static_cast<Time>(static_cast<double>(d) * rs.compute_scale);
  Time end = rs.now + scaled;
  for (;;) {
    e.advance_self_to(end);
    if (rs.penalty > 0) {
      end = rs.now + rs.penalty;
      rs.penalty = 0;
      continue;
    }
    break;
  }
  rs.computing = false;
}

void Engine::die_deadlocked() {
  std::fprintf(stderr,
               "sim::Engine: DEADLOCK at t=%.3f us — no runnable ranks and no "
               "pending events. Blocked ranks:",
               to_us(horizon_));
  for (int r = 0; r < nranks(); ++r) {
    if (ranks_[r]->st == St::Blocked) {
      std::fprintf(stderr, " %d(t=%.3fus)", r, to_us(ranks_[r]->now));
    }
  }
  std::fprintf(stderr, "\n");
  if (deadlock_dump_) deadlock_dump_();
  std::abort();
}

// --------------------------------------------------------------- scheduler --

// Shard 0 runs on the calling thread, every further shard on a worker. With
// one shard there are no workers and the loop below is the whole scheduler.
void Engine::run() {
  if (sharded() && sched_trace_ != nullptr) {
    std::fprintf(stderr,
                 "sim::Engine: set_schedule_trace is single-shard only\n");
    std::abort();
  }
  running_ = true;
  stop_flag_ = false;
  // Quiescent setup on the caller's thread: every shard's initial ready set.
  for (int r = 0; r < nranks(); ++r) make_ready(r, 0);

  std::vector<std::thread> workers;
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    workers.emplace_back([this, s] { shard_main(*shards_[s]); });
  }
  shard_main(*shards_[0]);
  for (auto& w : workers) w.join();

  // Fold per-shard results into the engine-wide views (one shard already
  // counts into stats_).
  for (auto& sh : shards_) {
    if (sh->horizon > horizon_) horizon_ = sh->horizon;
    if (sh->stats == &stats_) continue;
    for (const auto& [name, v] : sh->stats->all()) stats_.counter(name) += v;
    sh->stats->clear();
  }
  running_ = false;
}

void Engine::shard_main(ShardState& sh) {
  g_shard_id = sh.id;
  Fiber adopted;  // this thread's scheduler fiber
  sh.sched_fiber = &adopted;
  while (!window_barrier(sh)) execute_window(sh);
  sh.sched_fiber = nullptr;
  g_shard_id = 0;
}

bool Engine::window_barrier(ShardState& sh) {
  std::unique_lock<std::mutex> lk(barrier_mu_);
  if (++barrier_count_ == static_cast<int>(shards_.size())) {
    barrier_count_ = 0;
    serial_merge_and_plan();
    ++barrier_gen_;
    barrier_cv_.notify_all();
  } else {
    const std::uint64_t gen = barrier_gen_;
    barrier_cv_.wait(lk, [&] { return barrier_gen_ != gen; });
  }
  (void)sh;
  return stop_flag_;
}

// Runs with every shard parked at the barrier (the barrier mutex orders all
// shard-private state both ways), so it may touch any shard without atomics.
void Engine::serial_merge_and_plan() {
  // Merge staged cross-shard events. Every entry carries its canonical
  // (send_t, sender, seq) key from post time and the destination buckets
  // sort by that key, so the insert order here is immaterial: the resulting
  // schedule is a pure function of the simulation, invariant to both host
  // thread timing and the shard count itself.
  for (auto& src : shards_) {
    for (std::size_t d = 0; d < shards_.size(); ++d) {
      auto& box = src->outbox[d];
      if (box.empty()) continue;
      ShardState& dst = *shards_[d];
      for (auto& st : box) {
        shard_insert_local(dst, st.t, st.home, st.key, std::move(st.cb));
      }
      box.clear();
    }
  }

  int done = 0;
  for (auto& sh : shards_) done += sh->done;
  if (done == nranks()) {
    stop_flag_ = true;
    return;
  }

  Time tmin = kNever;
  for (auto& sh : shards_) {
    sh->next_time = shard_next_time(*sh);
    if (sh->next_time < tmin) tmin = sh->next_time;
  }
  if (tmin == kNever) {
    for (auto& sh : shards_) {
      if (sh->horizon > horizon_) horizon_ = sh->horizon;
    }
    die_deadlocked();
  }

  // One shard has no cross-shard effect to wait for: one window to kNever.
  const Time wend =
      sharded() ? tmin + lookahead_.load(std::memory_order_relaxed) : kNever;
  for (auto& sh : shards_) sh->window_end = wend;
}

// Execute every local item with t < window_end, in (t, events-before-ranks,
// key) order, until the window closes or every rank has finished. The key —
// salt, then the posting context's virtual time, home rank and per-sender
// sequence — is assigned at post time from simulation state alone, so the
// schedule each rank observes is identical for every shard count:
// virtual-time results are shard-count-invariant.
void Engine::execute_window(ShardState& sh) {
  const Time wend = sh.window_end;
  for (;;) {
    const Time tr = next_rank_time(sh);
    const Time te = next_event(sh, tr < wend ? tr : wend);
    if (te >= wend && tr >= wend) return;

    // Events run before ranks at the same timestamp so that deliveries are
    // visible to a rank resuming at that instant.
    if (te <= tr) {
      const PoppedEvent pe = pop_event(sh, te);
      // Move the callback out and recycle its slot *before* invoking: the
      // callback may post events (growing the pool) or run nested engines.
      EventFn cb = sh.slots.take(pe.slot);
      if (te > sh.horizon) sh.horizon = te;
      sh.exec_now = te;
      sh.exec_home = pe.home;  // nested posts attribute to this rank
      note_schedule(te, -1);
      cb();
      // Batch-drain the rest of this nanosecond: after one event the next
      // item is usually another event in the same bucket, so skip the full
      // bound/base/bitmap rescan while it provably stays the minimum —
      // bucket still occupied at te with no lower post (next_ev == te), no
      // overdue spill, and no rank due before te (equal-time events run
      // before ranks anyway; a stale ready entry below te just falls back
      // to the slow path, which skips it). Pop order within the bucket is
      // unchanged, so the schedule is identical.
      const std::size_t bi =
          static_cast<std::size_t>(te) & (Calendar::kBuckets - 1);
      while (sh.cal.head[bi] != Calendar::kNil && sh.next_ev == te &&
             (sh.far.empty() || sh.far.top().t > te) &&
             (sh.ready.empty() || sh.ready.top().t >= te)) {
        const Calendar::Node n = sh.cal.pop_at(te);
        // The successor's callback slot is the next iteration's likely
        // cache miss; n.next still names it (pop_at copied before relink).
        if (n.next != Calendar::kNil) {
          const Calendar::Node& nx = sh.cal.nodes[n.next];
          if ((nx.slot & SlotPool::kBigBit) == 0) {
            __builtin_prefetch(sh.slots.small.data() + nx.slot);
          }
        }
        EventFn cb2 = sh.slots.take(n.slot);
        sh.exec_home = n.home;
        note_schedule(te, -1);
        cb2();
      }
      sh.exec_home = -1;
      continue;
    }

    const HeapItem item = sh.ready.pop();
    RankState& rs = *ranks_[item.rank];
    if (item.t > rs.now) rs.now = item.t;
    if (rs.now > sh.horizon) sh.horizon = rs.now;
    rs.st = St::Running;
    sh.exec_now = item.t;
    note_schedule(item.t, item.rank);
    hand_token_to(item.rank);
    // The run ends when the last rank does: events still pending then
    // never run.
    if (sh.done == nranks()) return;
  }
}

}  // namespace casper::sim
