// Hot-path allocation guard.
//
// The zero-allocation claim of the RMA fast path is enforced here, not just
// benchmarked: global operator new/delete are replaced with counting
// wrappers, a passive-target PUT/ACC loop is warmed until every pool
// (payload blocks, inbox node arena, event slots, per-origin route vector,
// event calendar) has reached steady state, and then a 1k-op measured
// window must perform ZERO heap allocations end to end — origin issue,
// ghost-side processing, and completion acks included. The same loop under
// original MPI with thread and interrupt progress covers the agent path, and
// the Casper loop again with a recorder attached covers every
// instrumentation site on the path: metric keys built per op
// (ghost.<g>.ops, sync.<kind>, ...) are interned handles.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/casper.hpp"
#include "mpi/runtime.hpp"
#include "net/profile.hpp"
#include "obs/record.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};

std::uint64_t alloc_count() {
  return g_allocs.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n != 0 ? n : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

using namespace casper;

namespace {

// `nodes` x (1 user + 1 ghost), all-software Cray profile: every op takes
// the full redirect -> ghost AM -> commit -> ack path.
mpi::RunConfig casper_config(obs::Recorder* rec = nullptr, int nodes = 2) {
  mpi::RunConfig rc;
  rc.machine.profile = net::cray_xc30_regular();
  rc.machine.topo.nodes = nodes;
  rc.machine.topo.cores_per_node = 2;
  rc.seed = 12345;
  rc.recorder = rec;
  return rc;
}

core::Config one_ghost() {
  core::Config cc;
  cc.ghosts_per_node = 1;
  return cc;
}

/// Heap allocations in a measured 1k-op window of rank 0's warm PUT/ACC
/// loop over ranks 1..size-1 (under Casper, every target node's ghost
/// commits, so every per-node runtime structure on the path is exercised).
std::uint64_t steady_state_allocs(const mpi::RunConfig& rc,
                                  const mpi::LayerFactory& layer) {
  std::uint64_t measured = ~std::uint64_t{0};
  auto workload = [&measured](mpi::Env& env) {
    mpi::Comm w = env.world();
    const int me = env.rank(w);
    const int peers = env.size(w) - 1;
    void* base = nullptr;
    mpi::Win win = env.win_allocate(64 * sizeof(double), sizeof(double),
                                    mpi::Info{}, w, &base);
    env.win_lock_all(0, win);
    env.barrier(w);
    double v = 1.0;
    // Alternating contiguous PUT/ACC to the peers in turn, flushed every 16
    // ops so queue depths in the measured window repeat the warm-up's
    // exactly.
    auto batch = [&](int ops) {
      for (int i = 0; i < ops; ++i) {
        const auto slot = static_cast<std::size_t>(i % 16);
        const int target = 1 + (i / 2) % peers;
        if ((i & 1) == 0) {
          env.put(&v, 1, target, slot, win);
        } else {
          env.accumulate(&v, 1, target, 32 + slot, mpi::AccOp::Sum, win);
        }
        if ((i & 15) == 15) env.win_flush_all(win);
      }
      env.win_flush_all(win);
    };
    if (me == 0) {
      batch(256);  // warm every pool and cache on the path
      const std::uint64_t before = alloc_count();
      batch(1000);  // steady state: must not touch the heap at all
      measured = alloc_count() - before;
    }
    env.barrier(w);
    env.win_unlock_all(win);
    env.win_free(win);
  };
  mpi::exec(rc, workload, layer);
  return measured;
}

TEST(HotPathAlloc, ZeroSteadyStateAllocationsInPutAccLoop) {
  // 5 nodes = 4 target nodes: each has its own in-flight atomicity list,
  // and once warm none of them may grow or reallocate.
  for (const int nodes : {2, 5}) {
    EXPECT_EQ(steady_state_allocs(casper_config(nullptr, nodes),
                                  core::layer(one_ghost())),
              0u)
        << "steady-state PUT/ACC fast path performed heap allocations ("
        << nodes << " nodes)";
  }
}

TEST(HotPathAlloc, ZeroSteadyStateAllocationsOnAgentPath) {
  // Original MPI, 3 nodes x 1 core: ranks 1 and 2's progress agents serve
  // every op in event closures.
  for (const auto kind :
       {progress::Kind::Thread, progress::Kind::Interrupt}) {
    mpi::RunConfig rc = casper_config(nullptr, 3);
    rc.machine.topo.cores_per_node = 1;
    rc.progress.kind = kind;
    EXPECT_EQ(steady_state_allocs(rc, nullptr), 0u)
        << "agent-path PUT/ACC loop performed heap allocations (progress "
        << (kind == progress::Kind::Thread ? "thread" : "interrupt") << ")";
  }
}

TEST(HotPathAlloc, ZeroSteadyStateAllocationsWithRecorder) {
  for (const int nodes : {2, 5}) {
    obs::Recorder rec;
    EXPECT_EQ(steady_state_allocs(casper_config(&rec, nodes),
                                  core::layer(one_ghost())),
              0u)
        << "recorder-attached PUT/ACC loop performed heap allocations ("
        << nodes << " nodes)";
    EXPECT_GT(rec.metrics().counter_value("ops.committed"), 0u);
  }
}

}  // namespace
