// Per-rank MPI environment: the API application code programs against.
//
// Every method forwards through the installed interception Layer (PMPI
// model), after a call prologue that charges thread-multiple overhead when a
// background progress thread is configured (as real multithreaded MPI does).
#pragma once

#include <cstddef>
#include <functional>

#include "mpi/am.hpp"
#include "mpi/comm.hpp"
#include "mpi/layer.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "mpi/win.hpp"
#include "sim/engine.hpp"

namespace casper::mpi {

class Runtime;

/// Handle to the MPI world from one rank's perspective; created by the
/// runtime on the rank's thread and passed to the user main function.
class Env {
 public:
  Env(Runtime& rt, sim::Context& ctx) : rt_(&rt), ctx_(&ctx) {}

  Runtime& runtime() const { return *rt_; }
  sim::Context& ctx() const { return *ctx_; }

  /// World rank / size of the *underlying* simulation (Casper's ghost ranks
  /// included). Application code normally uses comm-relative ranks.
  int world_rank() const { return ctx_->rank(); }
  int world_size() const { return ctx_->size(); }

  sim::Time now() const { return ctx_->now(); }
  /// Model application computation (busy CPU) for `d` virtual time. The
  /// actually-elapsed span can exceed `d` when an interrupt-progress handler
  /// steals cycles; the traced Compute span covers the elapsed interval.
  void compute(sim::Time d);

  /// The world communicator as seen by the application (Casper substitutes
  /// COMM_USER_WORLD here).
  Comm world();

  int rank(const Comm& c) const { return c->rank_of_world(world_rank()); }
  int size(const Comm& c) const { return c->size(); }

  // --- communicator management --------------------------------------------
  Comm comm_split(const Comm& c, int color, int key);
  /// MPI_Comm_split_type(MPI_COMM_TYPE_SHARED): one communicator per node.
  Comm comm_split_shared(const Comm& c);
  Comm comm_dup(const Comm& c);

  // --- point-to-point ------------------------------------------------------
  void send(const void* buf, int count, Dt dt, int dest, int tag,
            const Comm& c);
  Status recv(void* buf, int count, Dt dt, int src, int tag, const Comm& c);
  Request isend(const void* buf, int count, Dt dt, int dest, int tag,
                const Comm& c);
  Request irecv(void* buf, int count, Dt dt, int src, int tag, const Comm& c);
  Status wait(const Request& req);
  bool test(const Request& req);
  void waitall(Request* reqs, int n);

  // --- collectives ---------------------------------------------------------
  void barrier(const Comm& c);
  void bcast(void* buf, int count, Dt dt, int root, const Comm& c);
  void reduce(const void* sendbuf, void* recvbuf, int count, Dt dt, AccOp op,
              int root, const Comm& c);
  void allreduce(const void* sendbuf, void* recvbuf, int count, Dt dt,
                 AccOp op, const Comm& c);
  void allgather(const void* sendbuf, int count, Dt dt, void* recvbuf,
                 const Comm& c);
  void alltoall(const void* sendbuf, int count, Dt dt, void* recvbuf,
                const Comm& c);
  void gather(const void* sendbuf, int count, Dt dt, void* recvbuf, int root,
              const Comm& c);
  void scatter(const void* sendbuf, int count, Dt dt, void* recvbuf,
               int root, const Comm& c);

  // --- window management ---------------------------------------------------
  Win win_allocate(std::size_t bytes, std::size_t disp_unit, const Info& info,
                   const Comm& c, void** base);
  Win win_allocate_shared(std::size_t bytes, std::size_t disp_unit,
                          const Info& info, const Comm& c, void** base);
  Win win_create(void* base, std::size_t bytes, std::size_t disp_unit,
                 const Info& info, const Comm& c);
  void win_free(Win& win);
  /// Query another node-local rank's segment in an allocate-shared window.
  Segment win_shared_query(const Win& win, int comm_rank);

  // --- RMA communication ----------------------------------------------------
  void put(const void* origin, int ocount, Datatype odt, int target,
           std::size_t tdisp, int tcount, Datatype tdt, const Win& win);
  void get(void* origin, int ocount, Datatype odt, int target,
           std::size_t tdisp, int tcount, Datatype tdt, const Win& win);
  void accumulate(const void* origin, int ocount, Datatype odt, int target,
                  std::size_t tdisp, int tcount, Datatype tdt, AccOp op,
                  const Win& win);
  void get_accumulate(const void* origin, int ocount, Datatype odt,
                      void* result, int rcount, Datatype rdt, int target,
                      std::size_t tdisp, int tcount, Datatype tdt, AccOp op,
                      const Win& win);
  void fetch_and_op(const void* value, void* result, Dt dt, int target,
                    std::size_t tdisp, AccOp op, const Win& win);
  void compare_and_swap(const void* expected, const void* desired,
                        void* result, Dt dt, int target, std::size_t tdisp,
                        const Win& win);

  // --- local window access ---------------------------------------------------
  // Direct load/store on THIS rank's own segment of `win` (byte offsets, not
  // disp units). Models the program-order non-RMA accesses MPI lets an
  // application make to its exposed memory; zero virtual-time cost. Reported
  // to conformance observers so the race analyzer can check them against
  // concurrent RMA (the load/store-vs-RMA conflict class).
  void local_store(const void* src, std::size_t offset, std::size_t len,
                   const Win& win);
  void local_load(void* dst, std::size_t offset, std::size_t len,
                  const Win& win);

  // Contiguous-double conveniences (the common case in the paper's benches).
  // `tdisp` is in units of the target's disp_unit, as in the general forms.
  void put(const double* origin, int n, int target, std::size_t tdisp,
           const Win& win) {
    put(origin, n, contig(Dt::Double), target, tdisp, n, contig(Dt::Double),
        win);
  }
  void get(double* origin, int n, int target, std::size_t tdisp,
           const Win& win) {
    get(origin, n, contig(Dt::Double), target, tdisp, n, contig(Dt::Double),
        win);
  }
  void accumulate(const double* origin, int n, int target, std::size_t tdisp,
                  AccOp op, const Win& win) {
    accumulate(origin, n, contig(Dt::Double), target, tdisp, n,
               contig(Dt::Double), op, win);
  }

  // --- RMA synchronization ---------------------------------------------------
  void win_fence(unsigned mode_assert, const Win& win);
  void win_post(const Group& group, unsigned mode_assert, const Win& win);
  void win_start(const Group& group, unsigned mode_assert, const Win& win);
  void win_complete(const Win& win);
  void win_wait(const Win& win);
  void win_lock(LockType type, int target, unsigned mode_assert,
                const Win& win);
  void win_unlock(int target, const Win& win);
  void win_lock_all(unsigned mode_assert, const Win& win);
  void win_unlock_all(const Win& win);
  void win_flush(int target, const Win& win);
  void win_flush_all(const Win& win);
  void win_flush_local(int target, const Win& win);
  void win_flush_local_all(const Win& win);
  void win_sync(const Win& win);

 private:
  Layer& layer();
  void prologue();
  /// Report a program-order RMA issue to conformance observers BEFORE the
  /// interception layer sees (and possibly redirects) it. Defined out of line
  /// so env.hpp needs no Runtime definition; callers gate on
  /// Runtime::has_observers().
  void observe_rma_issue(const RmaArgs& a, const Win& win);

  Runtime* rt_;
  sim::Context* ctx_;
};

}  // namespace casper::mpi
