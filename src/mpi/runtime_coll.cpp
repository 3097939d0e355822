// Runtime: point-to-point messaging, synchronizing collectives, and
// communicator management.
//
// Collectives use a rendezvous model: every member contributes its buffers;
// the last arriver (the "releaser") performs the data movement while all
// other members are still blocked inside the call (so their buffers are
// valid), computes a release time with a log2(p) cost model, and wakes
// everyone at that time. Members service incoming software RMA operations
// while they wait — which is exactly how blocked MPI calls provide progress
// in real implementations (and what the paper's fence-based benchmarks rely
// on).
#include <algorithm>
#include <cstring>

#include "mpi/check.hpp"
#include "mpi/datatype.hpp"
#include "mpi/runtime.hpp"

namespace casper::mpi {

using sim::Time;

namespace {

int ceil_log2(int n) {
  int stages = 0;
  int v = 1;
  while (v < n) {
    v *= 2;
    ++stages;
  }
  return stages;
}

/// Parts sorted by comm rank (arrival order is nondeterministic in time but
/// data placement must follow comm ranks).
std::vector<const CommImpl::CollState::Part*> sorted_parts(
    const CommImpl& comm) {
  std::vector<const CommImpl::CollState::Part*> out;
  out.reserve(comm.coll.parts.size());
  for (const auto& p : comm.coll.parts) out.push_back(&p);
  std::sort(out.begin(), out.end(),
            [&comm](const auto* a, const auto* b) {
              return comm.rank_of_world(a->world) <
                     comm.rank_of_world(b->world);
            });
  return out;
}

}  // namespace

// ------------------------------------------------------------ rendezvous --

void Runtime::coll_run(Env& env, const Comm& comm, const void* src, void* dst,
                       long long a, long long b, std::size_t wire_bytes,
                       const std::function<void(CommImpl&)>& finalize) {
  MMPI_REQUIRE(comm != nullptr, "null communicator");
  MMPI_REQUIRE(comm->rank_of_world(env.world_rank()) >= 0,
               "rank %d is not a member of comm %d", env.world_rank(),
               comm->id());
  auto& c = comm->coll;
  env.ctx().advance(profile().op_inject);

  // Sharded runs lock the rendezvous: members of one communicator can arrive
  // on different worker threads. The release time is a pure function of the
  // members' arrival times (max + log2(p) stages), not of host arrival
  // order, so virtual-time results stay shard-count-invariant; only the
  // identity of the releaser (who runs finalize) is host-dependent, and
  // finalize runs while every other member is still blocked in the call.
  std::unique_lock<std::mutex> lk(c.mu, std::defer_lock);
  if (engine_->sharded()) lk.lock();
  const std::uint64_t mygen = c.generation;
  c.parts.push_back(
      CommImpl::CollState::Part{env.world_rank(), src, dst, a, b});
  c.max_arrival = std::max(c.max_arrival, env.now());

  if (static_cast<int>(c.parts.size()) == comm->size()) {
    const int stages = ceil_log2(comm->size());
    const Time per_stage =
        profile().barrier_stage +
        static_cast<Time>(profile().net_ns_per_byte *
                          static_cast<double>(wire_bytes));
    const Time rel = c.max_arrival +
                     static_cast<Time>(stages) * per_stage;
    finalize(*comm);
    c.parts.clear();
    c.max_arrival = 0;
    c.release_time = rel;
    ++c.generation;
    if (lk.owns_lock()) lk.unlock();
    // wake_at: cross-shard-safe (identical to wake when unsharded). Valid
    // because rel >= now + stages*barrier_stage and the lookahead is clamped
    // to at most that for every shard-spanning communicator.
    for (int w : comm->members()) {
      if (w != env.world_rank()) engine_->wake_at(w, rel);
    }
    const int me = env.world_rank();
    post_event(rel, [this, me, rel]() { engine_->wake(me, rel); });
    progress_wait(env, [&env, rel]() { return env.now() >= rel; });
  } else {
    if (lk.owns_lock()) lk.unlock();
    progress_wait(env, [&c, mygen]() { return c.generation != mygen; });
    const Time rel = c.release_time;
    const int me = env.world_rank();
    post_event(rel, [this, me, rel]() { engine_->wake(me, rel); });
    progress_wait(env, [&env, rel]() { return env.now() >= rel; });
  }
}

// ----------------------------------------------------------- collectives --

void Runtime::p_barrier(Env& env, const Comm& comm) {
  coll_run(env, comm, nullptr, nullptr, 0, 0, 0, [](CommImpl&) {});
}

void Runtime::p_bcast(Env& env, void* buf, int count, Dt dt, int root,
                      const Comm& comm) {
  const std::size_t bytes = static_cast<std::size_t>(count) * dt_size(dt);
  const int me = comm->rank_of_world(env.world_rank());
  coll_run(env, comm, buf, buf, me == root ? 1 : 0, 0, bytes,
           [bytes](CommImpl& cm) {
             const void* src = nullptr;
             for (const auto& p : cm.coll.parts) {
               if (p.a == 1) src = p.src;
             }
             MMPI_REQUIRE(src != nullptr, "bcast: no root contribution");
             for (const auto& p : cm.coll.parts) {
               if (p.dst != src) std::memcpy(p.dst, src, bytes);
             }
           });
}

void Runtime::p_reduce(Env& env, const void* sendbuf, void* recvbuf,
                       int count, Dt dt, AccOp op, int root,
                       const Comm& comm) {
  const std::size_t bytes = static_cast<std::size_t>(count) * dt_size(dt);
  const int me = comm->rank_of_world(env.world_rank());
  coll_run(env, comm, sendbuf, me == root ? recvbuf : nullptr, 0, 0, bytes,
           [bytes, count, dt, op](CommImpl& cm) {
             auto parts = sorted_parts(cm);
             std::vector<std::byte> acc(bytes);
             std::memcpy(acc.data(), parts[0]->src, bytes);
             for (std::size_t i = 1; i < parts.size(); ++i) {
               reduce_contig(acc.data(), parts[i]->src,
                             static_cast<std::size_t>(count), dt, op);
             }
             for (const auto* p : parts) {
               if (p->dst != nullptr) std::memcpy(p->dst, acc.data(), bytes);
             }
           });
}

void Runtime::p_allreduce(Env& env, const void* sendbuf, void* recvbuf,
                          int count, Dt dt, AccOp op, const Comm& comm) {
  const std::size_t bytes = static_cast<std::size_t>(count) * dt_size(dt);
  coll_run(env, comm, sendbuf, recvbuf, 0, 0, bytes,
           [bytes, count, dt, op](CommImpl& cm) {
             auto parts = sorted_parts(cm);
             std::vector<std::byte> acc(bytes);
             std::memcpy(acc.data(), parts[0]->src, bytes);
             for (std::size_t i = 1; i < parts.size(); ++i) {
               reduce_contig(acc.data(), parts[i]->src,
                             static_cast<std::size_t>(count), dt, op);
             }
             for (const auto* p : parts) {
               std::memcpy(p->dst, acc.data(), bytes);
             }
           });
}

void Runtime::p_allgather(Env& env, const void* sendbuf, int count, Dt dt,
                          void* recvbuf, const Comm& comm) {
  const std::size_t bytes = static_cast<std::size_t>(count) * dt_size(dt);
  coll_run(env, comm, sendbuf, recvbuf, 0, 0, bytes, [bytes](CommImpl& cm) {
    auto parts = sorted_parts(cm);
    for (const auto* dstp : parts) {
      auto* out = static_cast<std::byte*>(dstp->dst);
      for (std::size_t j = 0; j < parts.size(); ++j) {
        std::memcpy(out + j * bytes, parts[j]->src, bytes);
      }
    }
  });
}

void Runtime::p_gather(Env& env, const void* sendbuf, int count, Dt dt,
                       void* recvbuf, int root, const Comm& comm) {
  const std::size_t bytes = static_cast<std::size_t>(count) * dt_size(dt);
  const int me = comm->rank_of_world(env.world_rank());
  coll_run(env, comm, sendbuf, me == root ? recvbuf : nullptr, 0, 0, bytes,
           [bytes](CommImpl& cm) {
             auto parts = sorted_parts(cm);
             void* dst = nullptr;
             for (const auto* p : parts) {
               if (p->dst != nullptr) dst = p->dst;
             }
             MMPI_REQUIRE(dst != nullptr, "gather: no root contribution");
             auto* out = static_cast<std::byte*>(dst);
             for (std::size_t j = 0; j < parts.size(); ++j) {
               std::memcpy(out + j * bytes, parts[j]->src, bytes);
             }
           });
}

void Runtime::p_scatter(Env& env, const void* sendbuf, int count, Dt dt,
                        void* recvbuf, int root, const Comm& comm) {
  const std::size_t bytes = static_cast<std::size_t>(count) * dt_size(dt);
  const int me = comm->rank_of_world(env.world_rank());
  coll_run(env, comm, me == root ? sendbuf : nullptr, recvbuf, 0, 0, bytes,
           [bytes](CommImpl& cm) {
             auto parts = sorted_parts(cm);
             const void* src = nullptr;
             for (const auto* p : parts) {
               if (p->src != nullptr) src = p->src;
             }
             MMPI_REQUIRE(src != nullptr, "scatter: no root contribution");
             const auto* in = static_cast<const std::byte*>(src);
             for (std::size_t j = 0; j < parts.size(); ++j) {
               std::memcpy(parts[j]->dst, in + j * bytes, bytes);
             }
           });
}

void Runtime::p_alltoall(Env& env, const void* sendbuf, int count, Dt dt,
                         void* recvbuf, const Comm& comm) {
  const std::size_t bytes = static_cast<std::size_t>(count) * dt_size(dt);
  const std::size_t total = bytes * static_cast<std::size_t>(comm->size());
  coll_run(env, comm, sendbuf, recvbuf, 0, 0, total, [bytes](CommImpl& cm) {
    auto parts = sorted_parts(cm);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      auto* out = static_cast<std::byte*>(parts[i]->dst);
      for (std::size_t j = 0; j < parts.size(); ++j) {
        std::memcpy(out + j * bytes,
                    static_cast<const std::byte*>(parts[j]->src) + i * bytes,
                    bytes);
      }
    }
  });
}

// ---------------------------------------------------- communicator mgmt --

Comm Runtime::p_comm_split(Env& env, const Comm& comm, int color, int key) {
  Comm result;
  coll_run(
      env, comm, nullptr, &result, color, key, 8, [this](CommImpl& cm) {
        // Collect distinct colors in sorted order for deterministic ids.
        auto parts = sorted_parts(cm);
        std::vector<long long> colors;
        for (const auto* p : parts) {
          if (p->a >= 0 &&
              std::find(colors.begin(), colors.end(), p->a) == colors.end()) {
            colors.push_back(p->a);
          }
        }
        std::sort(colors.begin(), colors.end());
        for (long long color_v : colors) {
          std::vector<const CommImpl::CollState::Part*> group;
          for (const auto* p : parts) {
            if (p->a == color_v) group.push_back(p);
          }
          std::stable_sort(group.begin(), group.end(),
                           [](const auto* x, const auto* y) {
                             return x->b < y->b;
                           });
          std::vector<int> members;
          members.reserve(group.size());
          for (const auto* p : group) members.push_back(p->world);
          auto nc = std::make_shared<CommImpl>(alloc_comm_id(), members);
          shard_clamp_for_members(members);
          for (const auto* p : group) {
            *static_cast<Comm*>(p->dst) = nc;
          }
        }
      });
  return result;  // null for color < 0 (MPI_UNDEFINED)
}

Comm Runtime::p_comm_dup(Env& env, const Comm& comm) {
  Comm result;
  coll_run(env, comm, nullptr, &result, 0, 0, 8, [this](CommImpl& cm) {
    auto nc = std::make_shared<CommImpl>(alloc_comm_id(), cm.members());
    shard_clamp_for_members(cm.members());
    for (const auto& p : cm.coll.parts) {
      *static_cast<Comm*>(p.dst) = nc;
    }
  });
  return result;
}

void Runtime::shard_clamp_for_members(const std::vector<int>& members) {
  if (!engine_->sharded() || members.empty()) return;
  const int s0 = engine_->shard_of_rank(members.front());
  bool spans = false;
  for (int w : members) {
    if (engine_->shard_of_rank(w) != s0) {
      spans = true;
      break;
    }
  }
  if (!spans) return;  // intra-shard comms never wake across shards
  // A collective on this communicator releases ceil_log2(p)*barrier_stage
  // after its last arrival at the earliest (per_stage >= barrier_stage), so
  // a lookahead at or below that keeps every cross-shard wake_at beyond the
  // posting shard's window end. Clamps take effect at the next window
  // barrier, and the communicator is unusable until its (collective)
  // creation releases — which is itself beyond the current window — so no
  // collective on it can run against the unclamped window.
  const Time floor =
      static_cast<Time>(ceil_log2(static_cast<int>(members.size()))) *
      profile().barrier_stage;
  engine_->clamp_lookahead(floor);
}

// -------------------------------------------------------- point-to-point --

bool Runtime::p2p_match(const RequestState& r, const P2pMsg& m) {
  if (r.comm_id != m.comm_id) return false;
  if (r.tag != kAnyTag && r.tag != m.tag) return false;
  if (r.src_world != kAnySource && r.src_world != m.src_world) return false;
  return true;
}

void Runtime::deliver_p2p(int dst_world, P2pMsg&& msg, Time t_del) {
  auto& io = io_[static_cast<std::size_t>(dst_world)];
  for (auto it = io.posted.begin(); it != io.posted.end(); ++it) {
    RequestState& r = **it;
    if (!p2p_match(r, msg)) continue;
    const std::size_t n = std::min(r.max_bytes, msg.data.size());
    MMPI_REQUIRE(msg.data.size() <= r.max_bytes,
                 "message truncation: recv buffer %zu < message %zu",
                 r.max_bytes, msg.data.size());
    if (n > 0) std::memcpy(r.buf, msg.data.data(), n);
    r.status.source = static_cast<const CommImpl*>(r.comm)->rank_of_world(
        msg.src_world);
    r.status.tag = msg.tag;
    r.status.bytes = n;
    r.done = true;
    io.posted.erase(it);
    engine_->wake(dst_world, t_del);
    return;
  }
  io.unexpected.push_back(std::move(msg));
  engine_->wake(dst_world, t_del);
}

void Runtime::p_send(Env& env, const void* buf, int count, Dt dt, int dest,
                     int tag, const Comm& comm) {
  MMPI_REQUIRE(dest >= 0 && dest < comm->size(), "send: bad dest %d", dest);
  const std::size_t bytes = static_cast<std::size_t>(count) * dt_size(dt);
  env.ctx().advance(profile().op_inject);

  P2pMsg m;
  m.src_world = env.world_rank();
  m.tag = tag;
  m.comm_id = comm->id();
  m.data.resize(bytes);
  if (bytes > 0) std::memcpy(m.data.data(), buf, bytes);

  const int dst_world = comm->world_rank(dest);
  const Time t_del =
      env.now() + wire_latency(env.world_rank(), dst_world, bytes);
  post_event(t_del, dst_world,
             [this, dst_world, t_del, m = std::move(m)]() mutable {
    deliver_p2p(dst_world, std::move(m), t_del);
  });
  ++engine_->stats_local().counter("p2p_msgs");
}

Request Runtime::p_irecv(Env& env, void* buf, int count, Dt dt, int src,
                         int tag, const Comm& comm) {
  env.ctx().settle();
  auto& io = io_[static_cast<std::size_t>(env.world_rank())];
  const std::size_t max_bytes = static_cast<std::size_t>(count) * dt_size(dt);

  auto req = std::make_shared<RequestState>();
  req->buf = buf;
  req->max_bytes = max_bytes;
  req->src_world = (src == kAnySource) ? kAnySource : comm->world_rank(src);
  req->tag = tag;
  req->comm_id = comm->id();
  req->comm = comm.get();

  // Check the unexpected queue first (MPI matching order).
  for (auto it = io.unexpected.begin(); it != io.unexpected.end(); ++it) {
    if (!p2p_match(*req, *it)) continue;
    MMPI_REQUIRE(it->data.size() <= max_bytes,
                 "message truncation: recv buffer %zu < message %zu",
                 max_bytes, it->data.size());
    if (!it->data.empty()) std::memcpy(buf, it->data.data(), it->data.size());
    req->status.source = comm->rank_of_world(it->src_world);
    req->status.tag = it->tag;
    req->status.bytes = it->data.size();
    req->done = true;
    io.unexpected.erase(it);
    return req;
  }

  io.posted.push_back(req);
  return req;
}

Request Runtime::p_isend(Env& env, const void* buf, int count, Dt dt,
                         int dest, int tag, const Comm& comm) {
  // Eager buffered send: the payload is copied at injection, so the send
  // completes locally immediately.
  p_send(env, buf, count, dt, dest, tag, comm);
  auto req = std::make_shared<RequestState>();
  req->done = true;
  return req;
}

Status Runtime::p_wait(Env& env, const Request& req) {
  MMPI_REQUIRE(req != nullptr, "wait on null request");
  progress_wait(env, [&req]() { return req->done; });
  return req->status;
}

bool Runtime::p_test(Env& env, const Request& req) {
  env.ctx().settle();
  MMPI_REQUIRE(req != nullptr, "test on null request");
  progress_poll(env);
  env.ctx().yield();  // allow same-time deliveries to land
  progress_poll(env);
  return req->done;
}

void Runtime::p_waitall(Env& env, Request* reqs, int n) {
  progress_wait(env, [reqs, n]() {
    for (int i = 0; i < n; ++i) {
      if (reqs[i] != nullptr && !reqs[i]->done) return false;
    }
    return true;
  });
}

Status Runtime::p_recv(Env& env, void* buf, int count, Dt dt, int src,
                       int tag, const Comm& comm) {
  Request req = p_irecv(env, buf, count, dt, src, tag, comm);
  return p_wait(env, req);
}

}  // namespace casper::mpi
