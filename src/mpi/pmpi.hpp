// The bottom interception layer: every call goes straight into the minimpi
// runtime, like the PMPI_* name-shifted entry points of an MPI library.
//
// An interception layer derives from Pmpi and overrides only the calls it
// intercepts; everything else resolves to these entries, as unwrapped MPI_*
// symbols resolve to the library under a real PMPI tool. Inside an override,
// a qualified `Pmpi::x(...)` call is the PMPI_x underneath. The six RMA calls
// are final: each builds its RmaArgs descriptor and hands it to rma(), the
// one entry a subclass overrides to intercept RMA.
#pragma once

#include "mpi/layer.hpp"
#include "mpi/runtime.hpp"

namespace casper::mpi {

class Pmpi : public Layer {
 public:
  explicit Pmpi(Runtime& rt) : rt_(&rt) {}

  void on_rank_start(Env& env,
                     const std::function<void(Env&)>& user_main) override {
    rt_->p_rank_main(env, user_main);
  }
  Comm comm_world(Env&) override { return rt_->world(); }

  Comm comm_split(Env& env, const Comm& c, int color, int key) override {
    return rt_->p_comm_split(env, c, color, key);
  }
  Comm comm_dup(Env& env, const Comm& c) override {
    return rt_->p_comm_dup(env, c);
  }

  void send(Env& env, const void* buf, int count, Dt dt, int dest, int tag,
            const Comm& c) override {
    rt_->p_send(env, buf, count, dt, dest, tag, c);
  }
  Status recv(Env& env, void* buf, int count, Dt dt, int src, int tag,
              const Comm& c) override {
    return rt_->p_recv(env, buf, count, dt, src, tag, c);
  }
  Request isend(Env& env, const void* buf, int count, Dt dt, int dest,
                int tag, const Comm& c) override {
    return rt_->p_isend(env, buf, count, dt, dest, tag, c);
  }
  Request irecv(Env& env, void* buf, int count, Dt dt, int src, int tag,
                const Comm& c) override {
    return rt_->p_irecv(env, buf, count, dt, src, tag, c);
  }
  Status wait(Env& env, const Request& req) override {
    return rt_->p_wait(env, req);
  }
  bool test(Env& env, const Request& req) override {
    return rt_->p_test(env, req);
  }
  void waitall(Env& env, Request* reqs, int n) override {
    rt_->p_waitall(env, reqs, n);
  }

  void barrier(Env& env, const Comm& c) override { rt_->p_barrier(env, c); }
  void bcast(Env& env, void* buf, int count, Dt dt, int root,
             const Comm& c) override {
    rt_->p_bcast(env, buf, count, dt, root, c);
  }
  void reduce(Env& env, const void* s, void* r, int count, Dt dt, AccOp op,
              int root, const Comm& c) override {
    rt_->p_reduce(env, s, r, count, dt, op, root, c);
  }
  void allreduce(Env& env, const void* s, void* r, int count, Dt dt, AccOp op,
                 const Comm& c) override {
    rt_->p_allreduce(env, s, r, count, dt, op, c);
  }
  void allgather(Env& env, const void* s, int count, Dt dt, void* r,
                 const Comm& c) override {
    rt_->p_allgather(env, s, count, dt, r, c);
  }
  void alltoall(Env& env, const void* s, int count, Dt dt, void* r,
                const Comm& c) override {
    rt_->p_alltoall(env, s, count, dt, r, c);
  }
  void gather(Env& env, const void* s, int count, Dt dt, void* r, int root,
              const Comm& c) override {
    rt_->p_gather(env, s, count, dt, r, root, c);
  }
  void scatter(Env& env, const void* s, int count, Dt dt, void* r, int root,
               const Comm& c) override {
    rt_->p_scatter(env, s, count, dt, r, root, c);
  }

  Win win_allocate(Env& env, std::size_t bytes, std::size_t du,
                   const Info& info, const Comm& c, void** base) override {
    return rt_->p_win_allocate(env, bytes, du, info, c, base, false);
  }
  Win win_allocate_shared(Env& env, std::size_t bytes, std::size_t du,
                          const Info& info, const Comm& c,
                          void** base) override {
    return rt_->p_win_allocate(env, bytes, du, info, c, base, true);
  }
  Win win_create(Env& env, void* base, std::size_t bytes, std::size_t du,
                 const Info& info, const Comm& c) override {
    return rt_->p_win_create(env, base, bytes, du, info, c);
  }
  void win_free(Env& env, Win& w) override { rt_->p_win_free(env, w); }

  /// Where the six RMA calls below land, as one descriptor.
  virtual void rma(Env& env, const RmaArgs& a, const Win& w) {
    rt_->p_rma(env, a, w);
  }
  void put(Env& env, const void* o, int oc, Datatype odt, int target,
           std::size_t tdisp, int tc, Datatype tdt, const Win& w) final {
    rma(env, RmaArgs::put(o, oc, odt, target, tdisp, tc, tdt), w);
  }
  void get(Env& env, void* o, int oc, Datatype odt, int target,
           std::size_t tdisp, int tc, Datatype tdt, const Win& w) final {
    rma(env, RmaArgs::get(o, oc, odt, target, tdisp, tc, tdt), w);
  }
  void accumulate(Env& env, const void* o, int oc, Datatype odt, int target,
                  std::size_t tdisp, int tc, Datatype tdt, AccOp op,
                  const Win& w) final {
    rma(env, RmaArgs::accumulate(o, oc, odt, target, tdisp, tc, tdt, op), w);
  }
  void get_accumulate(Env& env, const void* o, int oc, Datatype odt,
                      void* res, int rc, Datatype rdt, int target,
                      std::size_t tdisp, int tc, Datatype tdt, AccOp op,
                      const Win& w) final {
    rma(env,
        RmaArgs::get_accumulate(o, oc, odt, res, rc, rdt, target, tdisp, tc,
                                tdt, op),
        w);
  }
  void fetch_and_op(Env& env, const void* value, void* result, Dt dt,
                    int target, std::size_t tdisp, AccOp op,
                    const Win& w) final {
    rma(env, RmaArgs::fetch_and_op(value, result, dt, target, tdisp, op), w);
  }
  void compare_and_swap(Env& env, const void* expected, const void* desired,
                        void* result, Dt dt, int target, std::size_t tdisp,
                        const Win& w) final {
    rma(env,
        RmaArgs::compare_and_swap(expected, desired, result, dt, target,
                                  tdisp),
        w);
  }

  void win_fence(Env& env, unsigned as, const Win& w) override {
    rt_->p_win_fence(env, as, w);
  }
  void win_post(Env& env, const Group& g, unsigned as, const Win& w) override {
    rt_->p_win_post(env, g, as, w);
  }
  void win_start(Env& env, const Group& g, unsigned as,
                 const Win& w) override {
    rt_->p_win_start(env, g, as, w);
  }
  void win_complete(Env& env, const Win& w) override {
    rt_->p_win_complete(env, w);
  }
  void win_wait(Env& env, const Win& w) override { rt_->p_win_wait(env, w); }
  void win_lock(Env& env, LockType t, int target, unsigned as,
                const Win& w) override {
    rt_->p_win_lock(env, t, target, as, w);
  }
  void win_unlock(Env& env, int target, const Win& w) override {
    rt_->p_win_unlock(env, target, w);
  }
  void win_lock_all(Env& env, unsigned as, const Win& w) override {
    rt_->p_win_lock_all(env, as, w);
  }
  void win_unlock_all(Env& env, const Win& w) override {
    rt_->p_win_unlock_all(env, w);
  }
  void win_flush(Env& env, int target, const Win& w) override {
    rt_->p_win_flush(env, target, w);
  }
  void win_flush_all(Env& env, const Win& w) override {
    rt_->p_win_flush_all(env, w);
  }
  void win_flush_local(Env& env, int target, const Win& w) override {
    rt_->p_win_flush_local(env, target, w);
  }
  void win_flush_local_all(Env& env, const Win& w) override {
    rt_->p_win_flush_local_all(env, w);
  }
  void win_sync(Env& env, const Win& w) override { rt_->p_win_sync(env, w); }

 protected:
  Runtime* rt_;
};

}  // namespace casper::mpi
