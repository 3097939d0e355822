#include "mpi/env.hpp"

#include <cstring>

#include "mpi/check.hpp"
#include "mpi/runtime.hpp"

namespace casper::mpi {

Layer& Env::layer() { return rt_->layer(); }

void Env::prologue() {
  ctx_->settle();
  rt_->call_prologue(*this);
}

AmOp observed_op(const RmaArgs& a, int origin_world, WinImpl& win) {
  AmOp op;
  op.kind = a.kind;
  op.op = a.op;
  op.origin_world = origin_world;
  op.target_world = win.comm()->world_rank(a.target);
  op.win = &win;
  op.origin_comm_rank = win.comm()->rank_of_world(origin_world);
  op.target_comm_rank = a.target;
  op.target_disp = static_cast<std::uint32_t>(
      a.tdisp * win.segs[static_cast<std::size_t>(a.target)].disp_unit);
  op.target_count = a.tcount;
  op.target_dt = a.tdt;
  return op;
}

void Env::observe_rma_issue(const RmaArgs& a, const Win& win) {
  rt_->observe_issue(observed_op(a, world_rank(), *win), now());
}

void Env::local_store(const void* src, std::size_t offset, std::size_t len,
                      const Win& win) {
  ctx_->settle();  // the segment is shared with RMA and observers
  const int me = win->comm()->rank_of_world(world_rank());
  auto& seg = win->segs[static_cast<std::size_t>(me)];
  MMPI_REQUIRE(offset + len <= seg.size,
               "local_store outside own segment (off=%zu len=%zu size=%zu)",
               offset, len, seg.size);
  std::memcpy(seg.base + offset, src, len);
  rt_->observe_local(*win, me, offset, len, /*is_store=*/true, now());
}

void Env::local_load(void* dst, std::size_t offset, std::size_t len,
                     const Win& win) {
  ctx_->settle();  // the segment is shared with RMA and observers
  const int me = win->comm()->rank_of_world(world_rank());
  auto& seg = win->segs[static_cast<std::size_t>(me)];
  MMPI_REQUIRE(offset + len <= seg.size,
               "local_load outside own segment (off=%zu len=%zu size=%zu)",
               offset, len, seg.size);
  std::memcpy(dst, seg.base + offset, len);
  rt_->observe_local(*win, me, offset, len, /*is_store=*/false, now());
}

void Env::compute(sim::Time d) {
  const sim::Time t0 = ctx_->now();
  ctx_->compute(d);
  if (obs::on(rt_->recorder())) {
    rt_->recorder()->trace().span(world_rank(), obs::Ev::Compute, t0,
                                ctx_->now() - t0);
  }
}

Comm Env::world() { return layer().comm_world(*this); }

Comm Env::comm_split(const Comm& c, int color, int key) {
  prologue();
  return layer().comm_split(*this, c, color, key);
}

Comm Env::comm_split_shared(const Comm& c) {
  prologue();
  const int node = rt_->topo().node_of(world_rank());
  return layer().comm_split(*this, c, node, world_rank());
}

Comm Env::comm_dup(const Comm& c) {
  prologue();
  return layer().comm_dup(*this, c);
}

void Env::send(const void* buf, int count, Dt dt, int dest, int tag,
               const Comm& c) {
  prologue();
  layer().send(*this, buf, count, dt, dest, tag, c);
}

Status Env::recv(void* buf, int count, Dt dt, int src, int tag,
                 const Comm& c) {
  prologue();
  return layer().recv(*this, buf, count, dt, src, tag, c);
}

Request Env::isend(const void* buf, int count, Dt dt, int dest, int tag,
                   const Comm& c) {
  prologue();
  return layer().isend(*this, buf, count, dt, dest, tag, c);
}

Request Env::irecv(void* buf, int count, Dt dt, int src, int tag,
                   const Comm& c) {
  prologue();
  return layer().irecv(*this, buf, count, dt, src, tag, c);
}

Status Env::wait(const Request& req) {
  prologue();
  return layer().wait(*this, req);
}

bool Env::test(const Request& req) {
  prologue();
  return layer().test(*this, req);
}

void Env::waitall(Request* reqs, int n) {
  prologue();
  layer().waitall(*this, reqs, n);
}

void Env::barrier(const Comm& c) {
  prologue();
  layer().barrier(*this, c);
}

void Env::bcast(void* buf, int count, Dt dt, int root, const Comm& c) {
  prologue();
  layer().bcast(*this, buf, count, dt, root, c);
}

void Env::reduce(const void* sendbuf, void* recvbuf, int count, Dt dt,
                 AccOp op, int root, const Comm& c) {
  prologue();
  layer().reduce(*this, sendbuf, recvbuf, count, dt, op, root, c);
}

void Env::allreduce(const void* sendbuf, void* recvbuf, int count, Dt dt,
                    AccOp op, const Comm& c) {
  prologue();
  layer().allreduce(*this, sendbuf, recvbuf, count, dt, op, c);
}

void Env::allgather(const void* sendbuf, int count, Dt dt, void* recvbuf,
                    const Comm& c) {
  prologue();
  layer().allgather(*this, sendbuf, count, dt, recvbuf, c);
}

void Env::alltoall(const void* sendbuf, int count, Dt dt, void* recvbuf,
                   const Comm& c) {
  prologue();
  layer().alltoall(*this, sendbuf, count, dt, recvbuf, c);
}

void Env::gather(const void* sendbuf, int count, Dt dt, void* recvbuf,
                 int root, const Comm& c) {
  prologue();
  layer().gather(*this, sendbuf, count, dt, recvbuf, root, c);
}

void Env::scatter(const void* sendbuf, int count, Dt dt, void* recvbuf,
                  int root, const Comm& c) {
  prologue();
  layer().scatter(*this, sendbuf, count, dt, recvbuf, root, c);
}

Win Env::win_allocate(std::size_t bytes, std::size_t disp_unit,
                      const Info& info, const Comm& c, void** base) {
  prologue();
  return layer().win_allocate(*this, bytes, disp_unit, info, c, base);
}

Win Env::win_allocate_shared(std::size_t bytes, std::size_t disp_unit,
                             const Info& info, const Comm& c, void** base) {
  prologue();
  return layer().win_allocate_shared(*this, bytes, disp_unit, info, c, base);
}

Win Env::win_create(void* base, std::size_t bytes, std::size_t disp_unit,
                    const Info& info, const Comm& c) {
  prologue();
  return layer().win_create(*this, base, bytes, disp_unit, info, c);
}

void Env::win_free(Win& win) {
  prologue();
  layer().win_free(*this, win);
}

Segment Env::win_shared_query(const Win& win, int comm_rank) {
  return rt_->p_shared_query(*this, win, comm_rank);
}

void Env::put(const void* origin, int ocount, Datatype odt, int target,
              std::size_t tdisp, int tcount, Datatype tdt, const Win& win) {
  prologue();
  if (rt_->has_observers()) {
    observe_rma_issue(
        RmaArgs::put(origin, ocount, odt, target, tdisp, tcount, tdt), win);
  }
  layer().put(*this, origin, ocount, odt, target, tdisp, tcount, tdt, win);
}

void Env::get(void* origin, int ocount, Datatype odt, int target,
              std::size_t tdisp, int tcount, Datatype tdt, const Win& win) {
  prologue();
  if (rt_->has_observers()) {
    observe_rma_issue(
        RmaArgs::get(origin, ocount, odt, target, tdisp, tcount, tdt), win);
  }
  layer().get(*this, origin, ocount, odt, target, tdisp, tcount, tdt, win);
}

void Env::accumulate(const void* origin, int ocount, Datatype odt, int target,
                     std::size_t tdisp, int tcount, Datatype tdt, AccOp op,
                     const Win& win) {
  prologue();
  if (rt_->has_observers()) {
    observe_rma_issue(RmaArgs::accumulate(origin, ocount, odt, target, tdisp,
                                          tcount, tdt, op),
                      win);
  }
  layer().accumulate(*this, origin, ocount, odt, target, tdisp, tcount, tdt,
                     op, win);
}

void Env::get_accumulate(const void* origin, int ocount, Datatype odt,
                         void* result, int rcount, Datatype rdt, int target,
                         std::size_t tdisp, int tcount, Datatype tdt,
                         AccOp op, const Win& win) {
  prologue();
  if (rt_->has_observers()) {
    observe_rma_issue(
        RmaArgs::get_accumulate(origin, ocount, odt, result, rcount, rdt,
                                target, tdisp, tcount, tdt, op),
        win);
  }
  layer().get_accumulate(*this, origin, ocount, odt, result, rcount, rdt,
                         target, tdisp, tcount, tdt, op, win);
}

void Env::fetch_and_op(const void* value, void* result, Dt dt, int target,
                       std::size_t tdisp, AccOp op, const Win& win) {
  prologue();
  if (rt_->has_observers()) {
    observe_rma_issue(
        RmaArgs::fetch_and_op(value, result, dt, target, tdisp, op), win);
  }
  layer().fetch_and_op(*this, value, result, dt, target, tdisp, op, win);
}

void Env::compare_and_swap(const void* expected, const void* desired,
                           void* result, Dt dt, int target, std::size_t tdisp,
                           const Win& win) {
  prologue();
  if (rt_->has_observers()) {
    observe_rma_issue(RmaArgs::compare_and_swap(expected, desired, result, dt,
                                                target, tdisp),
                      win);
  }
  layer().compare_and_swap(*this, expected, desired, result, dt, target,
                           tdisp, win);
}

void Env::win_fence(unsigned mode_assert, const Win& win) {
  prologue();
  layer().win_fence(*this, mode_assert, win);
}

void Env::win_post(const Group& group, unsigned mode_assert, const Win& win) {
  prologue();
  layer().win_post(*this, group, mode_assert, win);
}

void Env::win_start(const Group& group, unsigned mode_assert,
                    const Win& win) {
  prologue();
  layer().win_start(*this, group, mode_assert, win);
}

void Env::win_complete(const Win& win) {
  prologue();
  layer().win_complete(*this, win);
}

void Env::win_wait(const Win& win) {
  prologue();
  layer().win_wait(*this, win);
}

void Env::win_lock(LockType type, int target, unsigned mode_assert,
                   const Win& win) {
  prologue();
  layer().win_lock(*this, type, target, mode_assert, win);
}

void Env::win_unlock(int target, const Win& win) {
  prologue();
  layer().win_unlock(*this, target, win);
}

void Env::win_lock_all(unsigned mode_assert, const Win& win) {
  prologue();
  layer().win_lock_all(*this, mode_assert, win);
}

void Env::win_unlock_all(const Win& win) {
  prologue();
  layer().win_unlock_all(*this, win);
}

void Env::win_flush(int target, const Win& win) {
  prologue();
  layer().win_flush(*this, target, win);
}

void Env::win_flush_all(const Win& win) {
  prologue();
  layer().win_flush_all(*this, win);
}

void Env::win_flush_local(int target, const Win& win) {
  prologue();
  layer().win_flush_local(*this, target, win);
}

void Env::win_flush_local_all(const Win& win) {
  prologue();
  layer().win_flush_local_all(*this, win);
}

void Env::win_sync(const Win& win) {
  prologue();
  layer().win_sync(*this, win);
}

}  // namespace casper::mpi
