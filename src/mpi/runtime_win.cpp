// Runtime: window management, RMA communication issue path, and the four
// MPI-3 synchronization epoch families.
#include <algorithm>
#include <cstring>
#include <map>

#include "mpi/check.hpp"
#include "mpi/datatype.hpp"
#include "mpi/runtime.hpp"

namespace casper::mpi {

using sim::Time;
using LockSt = OriginTargetState::LockSt;

namespace {

/// Round a size up to cache-line alignment so every segment in a shared node
/// buffer starts at least 16-byte aligned (basic-datatype atomicity unit).
std::size_t align_up(std::size_t v) { return (v + 63) & ~std::size_t{63}; }

/// An op's byte displacement is 32-bit (AmHeader::target_disp).
void require_segment_size(std::size_t bytes) {
  MMPI_REQUIRE(bytes < kMaxSegmentBytes,
               "window segment of %zu bytes: segments must be under 4 GiB",
               bytes);
}

bool group_contains(const std::vector<int>& g, int r) {
  return std::find(g.begin(), g.end(), r) != g.end();
}

}  // namespace

// ---------------------------------------------------- window management --

Win Runtime::p_win_allocate(Env& env, std::size_t bytes,
                            std::size_t disp_unit, const Info& info,
                            const Comm& comm, void** base, bool shared) {
  MMPI_REQUIRE(disp_unit > 0, "disp_unit must be positive");
  require_segment_size(bytes);
  // Window creation cost scales with the number of members (connection and
  // registration setup) — the quantity Fig. 3(a) measures.
  env.ctx().advance(profile().win_create_base +
                    static_cast<Time>(comm->size()) *
                        profile().win_create_per_rank);

  Win result;
  const net::Topology& t = topo();
  coll_run(
      env, comm, nullptr, &result, static_cast<long long>(bytes),
      static_cast<long long>(disp_unit), 16,
      [this, &t, shared, &info, &comm](CommImpl& cm) {
        auto win = std::make_shared<WinImpl>(alloc_win_id(), comm);
        win->info = info;
        win->is_shared = shared;
        const int n = cm.size();
        std::vector<std::size_t> sizes(static_cast<std::size_t>(n));
        std::vector<std::size_t> dus(static_cast<std::size_t>(n));
        for (const auto& p : cm.coll.parts) {
          const int cr = cm.rank_of_world(p.world);
          sizes[static_cast<std::size_t>(cr)] = static_cast<std::size_t>(p.a);
          dus[static_cast<std::size_t>(cr)] = static_cast<std::size_t>(p.b);
        }
        if (!shared) {
          win->owned.resize(static_cast<std::size_t>(n));
          for (int cr = 0; cr < n; ++cr) {
            auto& mem = win->owned[static_cast<std::size_t>(cr)];
            mem.assign(sizes[static_cast<std::size_t>(cr)], std::byte{0});
            win->segs[static_cast<std::size_t>(cr)] =
                Segment{mem.data(), mem.size(),
                        dus[static_cast<std::size_t>(cr)]};
          }
        } else {
          // One contiguous buffer per node, segments laid out in comm-rank
          // order and cache-line aligned (so the 16-byte basic-datatype
          // alignment Casper's segment binding needs always holds).
          win->shm_offset.assign(static_cast<std::size_t>(n), 0);
          std::map<int, std::size_t> node_total;
          std::vector<int> node_of_cr(static_cast<std::size_t>(n));
          for (int cr = 0; cr < n; ++cr) {
            const int node = t.node_of(cm.world_rank(cr));
            node_of_cr[static_cast<std::size_t>(cr)] = node;
            win->shm_offset[static_cast<std::size_t>(cr)] = node_total[node];
            node_total[node] +=
                align_up(sizes[static_cast<std::size_t>(cr)]);
          }
          std::map<int, std::shared_ptr<std::vector<std::byte>>> bufs;
          for (const auto& [node, total] : node_total) {
            bufs[node] = std::make_shared<std::vector<std::byte>>(
                total, std::byte{0});
          }
          for (int cr = 0; cr < n; ++cr) {
            auto& buf = bufs[node_of_cr[static_cast<std::size_t>(cr)]];
            win->segs[static_cast<std::size_t>(cr)] = Segment{
                buf->data() + win->shm_offset[static_cast<std::size_t>(cr)],
                sizes[static_cast<std::size_t>(cr)],
                dus[static_cast<std::size_t>(cr)]};
          }
          for (const auto& [node, buf] : bufs) {
            (void)node;
            win->node_buffers.push_back(buf);
          }
        }
        register_win(win);
        observe_win_register(*win);
        for (const auto& p : cm.coll.parts) {
          *static_cast<Win*>(p.dst) = win;
        }
      });
  *base = result->segs[static_cast<std::size_t>(
                           comm->rank_of_world(env.world_rank()))]
              .base;
  return result;
}

Win Runtime::p_win_create(Env& env, void* base, std::size_t bytes,
                          std::size_t disp_unit, const Info& info,
                          const Comm& comm) {
  MMPI_REQUIRE(disp_unit > 0, "disp_unit must be positive");
  require_segment_size(bytes);
  env.ctx().advance(profile().win_create_base +
                    static_cast<Time>(comm->size()) *
                        profile().win_create_per_rank);
  Win result;
  coll_run(env, comm, base, &result, static_cast<long long>(bytes),
           static_cast<long long>(disp_unit), 16, [this, &comm, &info](
                                                      CommImpl& cm) {
    auto win = std::make_shared<WinImpl>(alloc_win_id(), comm);
    win->info = info;
    auto parts = cm.coll.parts;
    for (const auto& p : parts) {
      const int cr = cm.rank_of_world(p.world);
      auto& seg = win->segs[static_cast<std::size_t>(cr)];
      seg.base = static_cast<std::byte*>(const_cast<void*>(p.src));
      seg.size = static_cast<std::size_t>(p.a);
      seg.disp_unit = static_cast<std::size_t>(p.b);
    }
    register_win(win);
    observe_win_register(*win);
    for (const auto& p : parts) {
      *static_cast<Win*>(p.dst) = win;
    }
  });
  return result;
}

void Runtime::p_win_free(Env& env, Win& win) {
  env.ctx().settle();
  MMPI_REQUIRE(win != nullptr, "win_free on null window");
  const int me = win->comm()->rank_of_world(env.world_rank());
  const auto& my = win->ost[static_cast<std::size_t>(me)];
  // Targets are checked in ascending order. A target with no entry reads
  // as locked inside lock_all or as a lock run member, so a locked gap
  // below an entry fails first.
  int next = 0;  // lowest target not checked yet
  const auto gap_locked = [&my, &next](int below) {
    return my.lock_all ? next != below : my.runs.lowest() < below;
  };
  my.tgt.each([&](const OriginTargetState& ts) {
    MMPI_REQUIRE(ts.lock_st == LockSt::None && !gap_locked(ts.target),
                 "win_free with an open passive epoch");
    MMPI_REQUIRE(ts.outstanding == 0 && !ts.has_queued(),
                 "win_free with incomplete operations");
    next = ts.target + 1;
  });
  MMPI_REQUIRE(!gap_locked(win->comm()->size()),
               "win_free with an open passive epoch");
  p_barrier(env, win->comm());
  // Report once (from the lowest-ranked member) so observers drop their
  // reference copies exactly when the collective free completes.
  if (me == 0) observe_win_free(*win);
  win.reset();
}

Segment Runtime::p_shared_query(Env& env, const Win& win, int comm_rank) {
  (void)env;
  MMPI_REQUIRE(win->is_shared, "shared_query on a non-shared window");
  MMPI_REQUIRE(comm_rank >= 0 && comm_rank < win->comm()->size(),
               "shared_query: bad rank %d", comm_rank);
  return win->segs[static_cast<std::size_t>(comm_rank)];
}

// ------------------------------------------------------------ RMA issue --

void Runtime::p_rma(Env& env, const RmaArgs& a, const Win& win) {
  MMPI_REQUIRE(win != nullptr, "RMA on null window");
  const int me = win->comm()->rank_of_world(env.world_rank());
  MMPI_REQUIRE(me >= 0, "RMA from non-member rank %d", env.world_rank());
  MMPI_REQUIRE(a.target >= 0 && a.target < win->comm()->size(),
               "RMA: bad target %d", a.target);
  auto& my = win->ost[static_cast<std::size_t>(me)];
  auto& ots = my.touch(a.target);

  const bool in_epoch = my.fence_open || ots.lock_st != LockSt::None ||
                        group_contains(my.access_group, a.target);
  MMPI_REQUIRE(in_epoch, "RMA op issued outside any epoch (win %d, %d->%d)",
               win->id(), me, a.target);

  const Segment& seg = win->segs[static_cast<std::size_t>(a.target)];
  const std::size_t disp_bytes = a.tdisp * seg.disp_unit;
  MMPI_REQUIRE(disp_bytes + span_bytes(a.tcount, a.tdt) <= seg.size,
               "RMA out of bounds: disp %zu + span %zu > size %zu",
               disp_bytes, span_bytes(a.tcount, a.tdt), seg.size);
  MMPI_REQUIRE(a.sizes_match(), "RMA origin/target data size mismatch");

  if (obs::on(recorder())) {
    recorder()->trace().instant(env.world_rank(), obs::Ev::OpIssued, env.now(),
                              static_cast<std::uint64_t>(a.kind),
                              static_cast<std::uint64_t>(
                                  win->comm()->world_rank(a.target)),
                              data_bytes(a.tcount, a.tdt));
    ++recorder()->metrics().counter("ops.issued");
  }

  // The op's arena node is its only record until the ack frees it.
  auto& rio = io_[static_cast<std::size_t>(env.world_rank())];
  AmNode* n = rio.arena->alloc();
  AmOp& op = n->op;
  op.win = win.get();
  op.acct = &ots;
  op.target_disp = static_cast<std::uint32_t>(disp_bytes);
  op.origin_result = a.result_addr;
  op.origin_world = env.world_rank();
  op.target_world = win->comm()->world_rank(a.target);
  op.origin_comm_rank = me;
  op.target_comm_rank = a.target;
  op.target_count = a.tcount;
  op.origin_count = a.rcount;
  op.target_dt = a.tdt;
  op.origin_dt = a.rdt;
  op.kind = a.kind;
  op.op = a.op;
  op.cross_numa = rio.next_op_cross_numa;
  rio.next_op_cross_numa = false;
  op.payload.bind(&pool_);
  switch (a.kind) {
    case OpKind::Put:
    case OpKind::Acc:
    case OpKind::GetAcc:
    case OpKind::Fao:
      pack_into(op.payload, a.origin_addr, a.ocount, a.odt);
      break;
    case OpKind::Cas: {
      const std::size_t es = a.tdt.elem_size();
      op.payload.resize(2 * es);
      std::memcpy(op.payload.data(), a.origin_addr, es);
      std::memcpy(op.payload.data() + es, a.origin_addr2, es);
      break;
    }
    case OpKind::Get:
    case OpKind::LockReq:
    case OpKind::LockRelease:
      break;
  }

  // Self ops: direct load/store access, never delayed (MPI guarantee; the
  // paper relies on this for its self-lock handling). Exception: when a
  // progress agent (thread/interrupt) processes incoming operations
  // concurrently with this rank, accumulate-class self ops must go through
  // the same agent to preserve MPI's accumulate atomicity.
  const bool self_acc_needs_agent =
      cfg_.progress.kind != progress::Kind::None && accumulate_class(a.kind);
  if (op.target_world == env.world_rank() && !self_acc_needs_agent) {
    exec_self(env, op);
    rio.arena->free(n);
    return;
  }

  // Pay the injection overhead BEFORE examining the delayed-lock state:
  // advancing the clock yields to the scheduler, and the lock grant event
  // may fire during the yield (draining the queue); the branch below must
  // see the post-yield state or a queued op would be stranded forever.
  env.ctx().advance(profile().op_inject);

  // Delayed lock acquisition: under a passive epoch, operations issued
  // before the grant are queued; the request itself is triggered by the
  // first operation (not by MPI_Win_lock) — matching MPICH-family behaviour.
  if (ots.lock_st == LockSt::Intent) {
    send_lock_request(env, *win, ots);
    my.tgt.enqueue(ots, n);
    return;
  }
  if (ots.lock_st == LockSt::Requested) {
    my.tgt.enqueue(ots, n);
    return;
  }

  inject_op(n, env.now());
}

// ------------------------------------------------------- fence epochs ----

void Runtime::trace_epoch_begin(Env& env, const WinImpl& win,
                                EpochKind epoch) {
  if (obs::on(recorder())) {
    recorder()->trace().instant(env.world_rank(), obs::Ev::EpochBegin,
                              env.now(), static_cast<std::uint64_t>(epoch),
                              static_cast<std::uint64_t>(win.id()));
  }
}

void Runtime::p_win_fence(Env& env, unsigned mode_assert, const Win& win) {
  env.ctx().settle();
  const int me = win->comm()->rank_of_world(env.world_rank());
  auto& my = win->ost[static_cast<std::size_t>(me)];
  if (my.fence_open && !(mode_assert & kModeNoPrecede)) {
    // Complete my outstanding ops; incoming ops complete because every rank
    // polls while it waits inside the following barrier.
    for (int t = 0; t < win->comm()->size(); ++t) {
      flush_target(env, *win, t, my.tgt.find(t));
    }
  }
  p_barrier(env, win->comm());
  my.fence_open = !(mode_assert & kModeNoSucceed);
  my.epoch = my.fence_open ? EpochKind::Fence : EpochKind::None;
  if (my.fence_open) trace_epoch_begin(env, *win, my.epoch);
  observe_sync(*win, env.world_rank(), SyncKind::Fence, -1, env.now());
  if (my.fence_open) {
    observe_epoch_begin(*win, env.world_rank(), EpochEv::Fence, -1, env.now());
  }
}

// -------------------------------------------------------- PSCW epochs ----

void Runtime::p_win_post(Env& env, const Group& group, unsigned mode_assert,
                         const Win& win) {
  env.ctx().settle();
  const int me = win->comm()->rank_of_world(env.world_rank());
  auto& my = win->ost[static_cast<std::size_t>(me)];
  MMPI_REQUIRE(my.exposure_group.empty(), "nested win_post");
  my.pscw_assert = mode_assert;
  for (int cr : group.ranks()) {  // group ranks are comm ranks of the window
    MMPI_REQUIRE(cr >= 0 && cr < win->comm()->size(),
                 "win_post: rank %d not in window", cr);
    my.exposure_group.push_back(cr);
  }
  env.ctx().advance(profile().op_inject *
                    static_cast<Time>(group.size() ? group.size() : 1));
  // Notify each origin that my exposure epoch is open.
  WinImpl* w = win.get();
  for (int cr : my.exposure_group) {
    const int ow = win->comm()->world_rank(cr);
    const Time t_arr = env.now() + wire_latency(env.world_rank(), ow, 8);
    post_event(t_arr, ow, [this, w, cr, t_arr]() {
      ++w->ost[static_cast<std::size_t>(cr)].posts_seen;
      engine_->wake(w->comm()->world_rank(cr), t_arr);
    });
  }
}

void Runtime::p_win_start(Env& env, const Group& group, unsigned mode_assert,
                          const Win& win) {
  env.ctx().settle();
  const int me = win->comm()->rank_of_world(env.world_rank());
  auto& my = win->ost[static_cast<std::size_t>(me)];
  MMPI_REQUIRE(my.access_group.empty(), "nested win_start");
  for (int cr : group.ranks()) {  // group ranks are comm ranks of the window
    MMPI_REQUIRE(cr >= 0 && cr < win->comm()->size(),
                 "win_start: rank %d not in window", cr);
    my.access_group.push_back(cr);
  }
  my.epoch = EpochKind::Pscw;
  trace_epoch_begin(env, *win, my.epoch);
  if (!(mode_assert & kModeNoCheck)) {
    const int need = static_cast<int>(my.access_group.size());
    progress_wait(env, [&my, need]() { return my.posts_seen >= need; });
    my.posts_seen -= need;
  }
  observe_epoch_begin(*win, env.world_rank(), EpochEv::Start, -1, env.now());
}

void Runtime::p_win_complete(Env& env, const Win& win) {
  env.ctx().settle();
  const int me = win->comm()->rank_of_world(env.world_rank());
  auto& my = win->ost[static_cast<std::size_t>(me)];
  MMPI_REQUIRE(!my.access_group.empty(), "win_complete without win_start");
  for (int t : my.access_group) {
    flush_target(env, *win, t, my.tgt.find(t));
  }
  WinImpl* w = win.get();
  for (int t : my.access_group) {
    const int tw = win->comm()->world_rank(t);
    const Time t_arr = env.now() + wire_latency(env.world_rank(), tw, 8);
    post_event(t_arr, tw, [this, w, t, t_arr]() {
      ++w->ost[static_cast<std::size_t>(t)].completes_seen;
      engine_->wake(w->comm()->world_rank(t), t_arr);
    });
  }
  my.access_group.clear();
  if (my.epoch == EpochKind::Pscw) my.epoch = EpochKind::None;
  observe_sync(*win, env.world_rank(), SyncKind::Complete, -1, env.now());
}

void Runtime::p_win_wait(Env& env, const Win& win) {
  env.ctx().settle();
  const int me = win->comm()->rank_of_world(env.world_rank());
  auto& my = win->ost[static_cast<std::size_t>(me)];
  MMPI_REQUIRE(!my.exposure_group.empty(), "win_wait without win_post");
  const int need = static_cast<int>(my.exposure_group.size());
  progress_wait(env, [&my, need]() { return my.completes_seen >= need; });
  my.completes_seen -= need;
  my.exposure_group.clear();
  observe_sync(*win, env.world_rank(), SyncKind::Wait, -1, env.now());
}

// ----------------------------------------------------- passive epochs ----

void Runtime::p_win_lock(Env& env, LockType type, int target,
                         unsigned /*mode_assert*/, const Win& win) {
  const int me = win->comm()->rank_of_world(env.world_rank());
  MMPI_REQUIRE(target >= 0 && target < win->comm()->size(),
               "win_lock: bad target %d", target);
  auto& my = win->ost[static_cast<std::size_t>(me)];
  const bool self = win->comm()->world_rank(target) == env.world_rank();
  // A delayed lock on a target with no entry joins the origin's lock runs;
  // the entry waits for the first op.
  OriginTargetState* ots = my.tgt.find(target);
  if (ots == nullptr && self) ots = &my.touch(target);
  MMPI_REQUIRE((ots != nullptr ? ots->lock_st : my.untouched_lock(target)) ==
                   LockSt::None,
               "nested lock to target %d", target);
  MMPI_REQUIRE(my.epoch == EpochKind::None || my.epoch == EpochKind::Lock,
               "win_lock while a different epoch type is active");
  // A delayed lock only records intent in this origin's own state, so its
  // cost is charged; a self lock reads the target's lock manager below.
  if (self) {
    env.ctx().advance(profile().op_inject);
  } else {
    charge(env, profile().op_inject);
  }
  my.epoch = EpochKind::Lock;
  trace_epoch_begin(env, *win, my.epoch);
  observe_epoch_begin(
      *win, env.world_rank(),
      type == LockType::Exclusive ? EpochEv::LockExcl : EpochEv::Lock, target,
      env.now());
  ++my.nlocked;
  if (ots == nullptr) {
    my.runs.add(target, type);
    return;
  }
  ots->lock_type = type;

  if (self) {
    // Self locks are granted synchronously (never delayed): required so the
    // application can use load/store on its own window memory.
    auto& tl = win->locks[static_cast<std::size_t>(target)];
    if (tl.grantable(type, me) && tl.pending.empty()) {
      tl.grant(type, me);
      ots->lock_st = LockSt::Granted;
    } else {
      tl.pending.push_back(TargetLockState::Pending{me, type, ots});
      progress_wait(env,
                    [ots]() { return ots->lock_st == LockSt::Granted; });
    }
    return;
  }
  ots->lock_st = LockSt::Intent;
}

void Runtime::p_win_unlock(Env& env, int target, const Win& win) {
  env.ctx().settle();
  const int me = win->comm()->rank_of_world(env.world_rank());
  auto& my = win->ost[static_cast<std::size_t>(me)];
  OriginTargetState* ots = my.tgt.find(target);
  if (ots == nullptr && my.runs.take(target)) {
    unlock_target(env, *win, target, nullptr);  // an unused delayed lock
    return;
  }
  // Inside lock_all this records the unlock of a target never touched.
  if (ots == nullptr) ots = &my.touch(target);
  MMPI_REQUIRE(ots->lock_st != LockSt::None, "unlock without lock");
  unlock_target(env, *win, target, ots);
}

void Runtime::unlock_target(Env& env, WinImpl& win, int target,
                            OriginTargetState* ots) {
  const int me = win.comm()->rank_of_world(env.world_rank());
  auto& my = win.ost[static_cast<std::size_t>(me)];
  if (win.comm()->world_rank(target) == env.world_rank()) {
    // Untouched, the self target reads as granted by lock_all.
    MMPI_REQUIRE(ots == nullptr || ots->lock_st == LockSt::Granted,
                 "self lock state corrupt");
    lockmgr_release(win, target, me,
                    ots != nullptr ? ots->lock_type : LockType::Shared,
                    env.now(), /*notify=*/nullptr);
    if (ots != nullptr) ots->lock_st = LockSt::None;
  } else if (ots != nullptr) {
    flush_target(env, win, target, ots);
    if (ots->lock_st == LockSt::Granted) {
      // Send the release and wait for its remote completion.
      ots->release_pending = true;
      const int tw = win.comm()->world_rank(target);
      const Time t_arr = env.now() + wire_latency(env.world_rank(), tw, 8);
      WinImpl* w = &win;
      const LockType type = ots->lock_type;
      if (profile().hw_lock) {
        post_event(t_arr, tw, [this, w, target, me, type, t_arr, ots]() {
          lockmgr_release(*w, target, me, type, t_arr, ots);
        });
      } else {
        const LockMsg m{w, ots, make_opid(), me, target, OpKind::LockRelease,
                        type};
        post_event(t_arr, tw, [this, m, t_arr]() { deliver_lock(m, t_arr); });
      }
      progress_wait(env, [ots]() { return !ots->release_pending; });
      ots->lock_st = LockSt::None;
    } else {
      // The lock was never actually requested (no operations issued): the
      // epoch completes with no remote interaction, as real MPI
      // implementations optimize this case.
      ots->lock_st = LockSt::None;
    }
  }
  // An untouched non-self target (a lock run member, or any target inside
  // lock_all) is such a never-requested lock with nothing to flush; it has
  // no entry to clear.

  if (--my.nlocked == 0 && my.epoch == EpochKind::Lock) {
    my.epoch = EpochKind::None;
  }
  observe_sync(win, env.world_rank(), SyncKind::Unlock, target, env.now());
}

void Runtime::p_win_lock_all(Env& env, unsigned /*mode_assert*/,
                             const Win& win) {
  env.ctx().settle();
  const int me = win->comm()->rank_of_world(env.world_rank());
  const int n = win->comm()->size();
  auto& my = win->ost[static_cast<std::size_t>(me)];
  MMPI_REQUIRE(my.epoch == EpochKind::None,
               "win_lock_all while another epoch is active");
  env.ctx().advance(profile().op_inject);
  my.epoch = EpochKind::LockAll;
  trace_epoch_begin(env, *win, my.epoch);
  observe_epoch_begin(*win, env.world_rank(), EpochEv::LockAll, -1,
                      env.now());
  // Only touched targets hold state to reset; every other target reads as
  // lock_all leaves it once the flag is set. An open lock run, or a flag
  // still set from an earlier lock_all (its epoch overwritten by a fence),
  // means untouched targets are still locked.
  MMPI_REQUIRE(my.runs.empty() &&
                   !(my.lock_all && my.tgt.size() < static_cast<std::size_t>(n)),
               "lock_all over existing lock");
  my.tgt.each([me](OriginTargetState& ts) {
    MMPI_REQUIRE(ts.lock_st == LockSt::None, "lock_all over existing lock");
    ts.lock_type = LockType::Shared;
    if (ts.target != me) ts.lock_st = LockSt::Intent;
  });
  my.lock_all = true;
  my.nlocked += n;
  // The self target is granted synchronously, as p_win_lock does.
  auto& tl = win->locks[static_cast<std::size_t>(me)];
  OriginTargetState* self = my.tgt.find(me);
  if (tl.grantable(LockType::Shared, me) && tl.pending.empty()) {
    tl.grant(LockType::Shared, me);
    if (self != nullptr) self->lock_st = LockSt::Granted;
  } else {
    // Contended: the grant must land in an entry.
    if (self == nullptr) self = &my.tgt.add(me);
    tl.pending.push_back(TargetLockState::Pending{me, LockType::Shared, self});
    progress_wait(env, [self]() { return self->lock_st == LockSt::Granted; });
  }
}

void Runtime::p_win_unlock_all(Env& env, const Win& win) {
  env.ctx().settle();
  const int me = win->comm()->rank_of_world(env.world_rank());
  auto& my = win->ost[static_cast<std::size_t>(me)];
  MMPI_REQUIRE(my.epoch == EpochKind::LockAll,
               "win_unlock_all without win_lock_all");
  my.epoch = EpochKind::Lock;  // let unlock_target's bookkeeping run
  // Every target in order, entry or not: each locked one is one Unlock sync.
  for (int t = 0; t < win->comm()->size(); ++t) {
    OriginTargetState* ots = my.tgt.find(t);
    if (ots == nullptr || ots->lock_st != LockSt::None) {
      unlock_target(env, *win, t, ots);
    }
  }
  my.lock_all = false;
  my.epoch = EpochKind::None;
  observe_sync(*win, env.world_rank(), SyncKind::UnlockAll, -1, env.now());
}

// ------------------------------------------------------------- flushes ----

void Runtime::flush_target(Env& env, WinImpl& win, int target,
                           OriginTargetState* ots) {
  if (ots == nullptr) {
    // Nothing was ever issued to an untouched target. Its delayed lock (a
    // lock run member, or inside lock_all) needs no acquisition; any other
    // state completes at once, after the one progress poll the wait below
    // would make.
    const int me = win.comm()->rank_of_world(env.world_rank());
    if (win.ost[static_cast<std::size_t>(me)].untouched_lock(target) !=
        LockSt::Intent) {
      progress_wait(env, []() { return true; });
    }
    return;
  }
  if (ots->lock_st == LockSt::Intent) {
    if (!ots->has_queued() && ots->outstanding == 0) {
      return;  // nothing to complete, no acquisition needed
    }
    send_lock_request(env, win, *ots);
  }
  // Acks to this rank wake it only when they can end this wait (on_ack).
  RankIo& io = io_[static_cast<std::size_t>(env.world_rank())];
  io.flushing = ots;
  progress_wait(env, [ots]() { return ots->flush_done(); });
  io.flushing = nullptr;
}

void Runtime::p_win_flush(Env& env, int target, const Win& win) {
  env.ctx().settle();
  const int me = win->comm()->rank_of_world(env.world_rank());
  auto& my = win->ost[static_cast<std::size_t>(me)];
  OriginTargetState* ots = my.tgt.find(target);
  MMPI_REQUIRE((ots != nullptr ? ots->lock_st : my.untouched_lock(target)) !=
                   LockSt::None,
               "win_flush outside a passive epoch");
  // A flush with no outstanding operations is a no-op (a delayed lock that
  // was never used stays unacquired, as in MPICH); when operations were
  // issued, the acquisition was already triggered by them.
  flush_target(env, *win, target, ots);
  observe_sync(*win, env.world_rank(), SyncKind::Flush, target, env.now());
}

void Runtime::p_win_flush_all(Env& env, const Win& win) {
  env.ctx().settle();
  const int me = win->comm()->rank_of_world(env.world_rank());
  auto& my = win->ost[static_cast<std::size_t>(me)];
  MMPI_REQUIRE(my.epoch == EpochKind::Lock || my.epoch == EpochKind::LockAll,
               "win_flush_all outside a passive epoch");
  // Locked targets in ascending order. Untouched ones (lock run members, or
  // any inside lock_all) are unused delayed locks that flush_target skips,
  // except the self target inside lock_all: it reads as granted, so it is
  // flushed in its place too.
  bool self_due = my.lock_all && my.tgt.find(me) == nullptr;
  my.tgt.each([&](OriginTargetState& ts) {
    if (self_due && ts.target > me) {
      self_due = false;
      flush_target(env, *win, me, nullptr);
    }
    if (ts.lock_st != LockSt::None) flush_target(env, *win, ts.target, &ts);
  });
  if (self_due) flush_target(env, *win, me, nullptr);
  observe_sync(*win, env.world_rank(), SyncKind::FlushAll, -1, env.now());
}

void Runtime::p_win_flush_local(Env& env, int target, const Win& win) {
  // Origin buffers are copied at issue time (buffered injection), so local
  // completion is immediate; only a small bookkeeping cost applies.
  (void)target;
  (void)win;
  env.ctx().advance(sim::ns(50));
}

void Runtime::p_win_flush_local_all(Env& env, const Win& win) {
  (void)win;
  env.ctx().advance(sim::ns(50));
}

void Runtime::p_win_sync(Env& env, const Win& win) {
  (void)win;
  env.ctx().advance(profile().win_sync_cost);
}

}  // namespace casper::mpi
