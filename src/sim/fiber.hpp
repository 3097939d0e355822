// User-level stackful coroutines ("fibers") for the deterministic scheduler.
//
// A Fiber is a suspended computation with its own call stack. Switching
// between two fibers is a userspace register swap, roughly two orders of
// magnitude cheaper than the mutex/condvar token handoff between OS threads
// it replaces: no futex, no kernel scheduler, no cacheline ping-pong between
// cores. All fibers of a scheduler shard run on the one OS thread that
// drives that shard (the thread that called Engine::run(), or a shard
// worker), so `thread_local` state is shared within a shard and no
// synchronization is ever needed for a switch. A fiber never migrates
// between threads during its lifetime.
//
// Switch mechanism:
//   - On x86-64 SysV targets the switch is a hand-rolled assembly routine
//     that saves the six callee-saved GPRs plus the stack pointer and resumes
//     the destination fiber with a plain `ret` — no syscall. This matters:
//     glibc's swapcontext() calls sigprocmask() on every switch to save the
//     signal mask, and at ~2 switches per simulated event that one syscall
//     dominated the whole simulator (observed at ~67% of host CPU). Fibers
//     never touch the signal mask or the FP control/MXCSR words, so neither
//     needs saving.
//   - Everywhere else the portable ucontext path is used unchanged.
//
// Stack contract:
//   - Every owning fiber takes its stack from a StackPool. A pool carves
//     stacks of one size out of anonymous MAP_NORESERVE slab mappings, so
//     the kernel mappings a run needs grow with shards (the engine keeps one
//     pool per shard and sizes its first slab for the shard's ranks), not
//     with ranks: set-up pays no mmap/mprotect per rank and teardown one
//     munmap per slab. A 102,400-rank shard is ~26 GB of address space and
//     only the pages a stack touches become resident.
//   - Stacks sit `stack_bytes + 4096` apart: each slot is one untouched page
//     below the usable stack, the same stride a per-stack guard page gave.
//     A power-of-two stride would put every stack top in the same cache
//     sets. Only the lowest slot's page is a PROT_NONE guard, so a runaway
//     recursion ends in a fault at the bottom of the slab instead of in
//     whatever mapping lies below it.
//   - Overflow detection costs no page and touches no new memory. Every
//     switch compares the stack pointer it saves with the departing fiber's
//     low end plus kRedZoneBytes (the word after sp_, on the line the save
//     writes) and, if it is below, aborts on the destination's stack. The
//     lowest cache line of each stack is a canary that must read as zero:
//     fresh anonymous memory already does, so it needs no write and adds no
//     resident page. The pool verifies it when a fiber returns its stack and
//     again when the stack is reused, never per switch. Either check aborts
//     naming the fiber's id (the engine passes the rank). An excursion below
//     the stack between two switches may still scribble on the slot below
//     before the canary check catches it.
//   - Finished fibers return their stacks to the pool (LIFO, so the next
//     fiber reuses a warm stack); the pool unmaps its slabs when destroyed
//     and must outlive every fiber it served.
//   - The adopting constructor (`Fiber()`) wraps the calling thread's native
//     stack; it owns no memory and is only a switch target/source.
//
// AddressSanitizer: ASan tracks one shadow "fake stack" per call stack, so
// every switch must be announced via __sanitizer_start_switch_fiber /
// __sanitizer_finish_switch_fiber or ASan reports false stack-use-after-
// return errors and misattributes frames. switch_to() does this when built
// with -fsanitize=address (clang `__has_feature` or gcc
// `__SANITIZE_ADDRESS__`), and is zero-cost otherwise. The assembly switch
// is ASan-compatible: the hooks bracket it exactly as they did swapcontext.
//
// ThreadSanitizer: TSan likewise tracks a shadow state per call stack;
// without annotations every fiber switch looks like wild cross-stack access
// and the sharded engine's TSan stage would drown in false positives. Each
// owning fiber registers itself via __tsan_create_fiber, switches announce
// through __tsan_switch_to_fiber, and destruction calls
// __tsan_destroy_fiber. Compiled in only under -fsanitize=thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) && defined(__linux__)
#define CASPER_FIBER_ASM 1
#else
#define CASPER_FIBER_ASM 0
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define CASPER_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CASPER_ASAN_FIBERS 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define CASPER_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CASPER_TSAN_FIBERS 1
#endif
#endif

#if CASPER_FIBER_ASM
// Targets of the assembly in fiber.cpp: a new fiber's first resume, and a
// switch whose departing fiber (`out_sp` = its saved sp) is in its red zone.
extern "C" void casper_fiber_entry(void* fiber) __attribute__((noreturn));
extern "C" void casper_fiber_red_zone(void** out_sp) __attribute__((noreturn));
#endif

namespace casper::sim {

/// Fiber stacks of one usable size carved from slab mappings. Single-
/// threaded: each scheduler shard owns its own pool.
class StackPool {
 public:
  /// `stack_bytes` is rounded up to whole pages, minimum
  /// Fiber::kMinStackBytes.
  explicit StackPool(std::size_t stack_bytes);
  /// Unmaps every slab; every stack handed out must have been returned.
  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  /// Size the next slab this pool maps for at least `n` stacks. The engine
  /// reserves a shard's rank count, so one slab serves the whole run.
  void reserve(std::size_t n);
  /// Low end of a free stack of stack_bytes() usable bytes (page-aligned):
  /// the most recently returned one, else a fresh slot.
  char* take();
  /// Return a stack taken from this pool; aborts naming `owner` if its
  /// canary was overwritten.
  void put(char* lo, int owner);

  std::size_t stack_bytes() const { return stack_bytes_; }
  /// Slab mappings made so far.
  std::size_t slabs() const { return slabs_.size(); }

 private:
  struct Slab {
    char* base;
    std::size_t bytes;
  };
  struct Free {
    char* lo;
    int owner;  // id of the fiber that last used it, for diagnostics
  };
  void map_slab();

  std::size_t stack_bytes_;
  std::size_t next_slab_stacks_ = 64;
  char* carve_ = nullptr;  // next unused slot of the newest slab
  char* carve_end_ = nullptr;
  std::vector<Slab> slabs_;
  std::vector<Free> free_;
};

/// A stackful user-level coroutine. Non-copyable, non-movable: the engine
/// stores fibers behind stable pointers and suspended frames hold
/// self-addresses.
class Fiber {
 public:
  using Entry = void (*)(void*);

  /// Smallest usable fiber stack. Rank bodies run real code; anything
  /// below this cannot even enter main_.
  static constexpr std::size_t kMinStackBytes = 16 * 1024;
  /// A fiber that switches away with its stack pointer less than this far
  /// above its stack's low end has overflowed, or is one call from it.
  static constexpr std::size_t kRedZoneBytes = 1024;

  /// Adopt the calling thread's native stack. The resulting fiber has no
  /// entry point; it becomes resumable the first time switch_to() switches
  /// *away* from it.
  Fiber();

  /// Create a suspended fiber that will invoke `entry(arg)` when first
  /// switched to, on a stack taken from `pool` (which must outlive it).
  /// `entry` must never return: a fiber ends by switching away for the last
  /// time (the engine aborts if entry falls off the end). `id` names the
  /// fiber in overflow aborts; the engine passes the rank.
  Fiber(Entry entry, void* arg, StackPool& pool, int id = -1);

  /// Returns the stack (if owned) to its pool. Destroying a fiber that is
  /// suspended mid-execution reclaims its stack without unwinding it —
  /// deterministic, but objects on that stack are not destructed; the
  /// engine only does this for fibers that are finished or were never
  /// started.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Suspend `from` (which must be the running fiber) and resume `to`.
  /// Returns when something switches back to `from`. If `from_exiting` is
  /// true, `from` will never be resumed: its ASan fake stack is released.
  /// If `from` switches away with its stack pointer in its red zone, aborts
  /// (from `to`'s stack) instead of resuming `to`.
  static void switch_to(Fiber& from, Fiber& to, bool from_exiting = false);

  /// Usable stack of a fiber created with a pool: [stack_lo(), stack_lo() +
  /// stack_bytes()).
  char* stack_lo() const { return stack_lo_; }
  std::size_t stack_bytes() const { return stack_bytes_; }

 private:
#if CASPER_FIBER_ASM
  friend void ::casper_fiber_entry(void* fiber);
  friend void ::casper_fiber_red_zone(void** out_sp);
#else
  static void trampoline(unsigned hi, unsigned lo);
  /// Run by the fiber a switch resumes; `out_sp` is the sp_ of the fiber
  /// that switched away.
  static void check_switched_out(void** out_sp);
#endif
  /// Abort naming the fiber whose sp_ is `*out_sp`: it switched away with
  /// its stack pointer in the red zone.
  [[noreturn]] static void red_zone_abort(void** out_sp);

  // Saved stack pointer while suspended (the ucontext path records its
  // switch_to frame instead). First member, so a pointer to it is a pointer
  // to the Fiber; casper_fiber_switch compares it with sp_limit_, the next
  // word.
  void* sp_ = nullptr;
  // Lowest sp_ a switch may save: stack_lo_ + kRedZoneBytes, 0 if adopted.
  std::uintptr_t sp_limit_ = 0;
#if !CASPER_FIBER_ASM
  ucontext_t ctx_{};
#endif
  Entry entry_ = nullptr;
  void* arg_ = nullptr;
  char* stack_lo_ = nullptr;     // usable stack bottom (canary line)
  std::size_t stack_bytes_ = 0;  // usable stack size
  StackPool* pool_ = nullptr;    // null if adopted
  int id_ = -1;
#if CASPER_ASAN_FIBERS
  void* fake_stack_ = nullptr;   // ASan fake-stack save slot while suspended
#endif
#if CASPER_TSAN_FIBERS
  void* tsan_fiber_ = nullptr;   // TSan shadow-state handle
  bool tsan_owned_ = false;      // created (vs adopted current) handle
#endif
};

}  // namespace casper::sim
