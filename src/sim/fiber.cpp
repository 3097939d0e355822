#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#if CASPER_ASAN_FIBERS
#include <pthread.h>
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

#if CASPER_TSAN_FIBERS
// <sanitizer/tsan_interface.h> exists on this toolchain, but declaring the
// four entry points directly keeps the gate identical for gcc and clang.
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

#if CASPER_FIBER_ASM

extern "C" {
// Save the x86-64 SysV callee-saved GPRs and stack pointer of the running
// fiber into *save_sp, install restore_sp, and return on the destination
// fiber's stack. Everything caller-saved is dead across a function call, the
// signal mask is never modified by fibers, and the FP control words are
// process-invariant here — so six pushes, a stack swap, six pops and a `ret`
// are a complete context switch. No syscall (unlike swapcontext, which pays
// a sigprocmask on every switch). save_sp points at the departing fiber's
// sp_, and the word after it is that fiber's sp_limit_: a saved stack
// pointer below it jumps, on the destination's stack, to
// casper_fiber_red_zone_trap instead of resuming.
void casper_fiber_switch(void** save_sp, void* restore_sp);

// First-resume target: a freshly created fiber's boot frame (built in the
// Fiber constructor) "returns" here with the Fiber* pre-loaded in r12.
void casper_fiber_boot();
}

asm(R"(
.pushsection .text
.align 16
.type casper_fiber_switch, @function
casper_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq %rsp, (%rdi)
    cmpq 8(%rdi), %rsp
    movq %rsi, %rsp
    jb casper_fiber_red_zone_trap
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
.size casper_fiber_switch, .-casper_fiber_switch

.align 16
.type casper_fiber_boot, @function
casper_fiber_boot:
    movq %r12, %rdi
    jmp casper_fiber_entry
.size casper_fiber_boot, .-casper_fiber_boot

.align 16
.type casper_fiber_red_zone_trap, @function
casper_fiber_red_zone_trap:
    andq $-16, %rsp
    call casper_fiber_red_zone
.size casper_fiber_red_zone_trap, .-casper_fiber_red_zone_trap
.popsection
)");

extern "C" void casper_fiber_entry(void* fiber) {
  auto* f = static_cast<casper::sim::Fiber*>(fiber);
#if CASPER_ASAN_FIBERS
  // First entry: complete the switch that started in switch_to(). There is
  // no prior fake stack to restore (fake_stack_ is still null).
  __sanitizer_finish_switch_fiber(f->fake_stack_, nullptr, nullptr);
#endif
  f->entry_(f->arg_);
  // A fiber must end by switching away for the last time, not by returning
  // (there is nothing on the boot frame below this call to return to).
  std::fprintf(stderr, "sim::Fiber: entry returned instead of switching\n");
  std::abort();
}

extern "C" void casper_fiber_red_zone(void** out_sp) {
  casper::sim::Fiber::red_zone_abort(out_sp);
}

#endif  // CASPER_FIBER_ASM

namespace casper::sim {

namespace {

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t ps = page_size();
  return (bytes + ps - 1) / ps * ps;
}

// Bytes at the low end of each stack that must stay zero.
constexpr std::size_t kCanaryBytes = 64;

// Reads the canary only. Not instrumented: shadow state left by an
// overflowing fiber's frames must not turn the check into an ASan report.
__attribute__((no_sanitize("address"))) bool canary_intact(const char* lo) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < kCanaryBytes; i += sizeof bits) {
    std::uint64_t w;
    std::memcpy(&w, lo + i, sizeof w);
    bits |= w;
  }
  return bits == 0;
}

#if !CASPER_FIBER_ASM
// sp_ slot of the fiber switching away on this thread; the ucontext path's
// stand-in for the slot casper_fiber_switch returns.
thread_local void** t_out_sp = nullptr;
#endif

}  // namespace

StackPool::StackPool(std::size_t stack_bytes)
    : stack_bytes_(round_up_pages(stack_bytes < Fiber::kMinStackBytes
                                      ? Fiber::kMinStackBytes
                                      : stack_bytes)) {}

StackPool::~StackPool() {
  for (const Slab& s : slabs_) munmap(s.base, s.bytes);
}

void StackPool::reserve(std::size_t n) {
  if (n > next_slab_stacks_) next_slab_stacks_ = n;
}

void StackPool::map_slab() {
  const std::size_t ps = page_size();
  const std::size_t stride = stack_bytes_ + ps;
  const std::size_t bytes = next_slab_stacks_ * stride;
  // MAP_NORESERVE: a slab is sized for every rank of a shard but only the
  // pages stacks touch are ever committed.
  void* base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  if (base == MAP_FAILED) {
    std::fprintf(stderr, "sim::StackPool: mmap of a %zu-byte slab failed\n",
                 bytes);
    std::abort();
  }
  // Huge pages would commit 2 MB per touched stack top. Recent kernels
  // already imply this from MAP_STACK.
  madvise(base, bytes, MADV_NOHUGEPAGE);
  // The lowest slot's spare page is the slab's one guard page.
  if (mprotect(base, ps, PROT_NONE) != 0) {
    std::fprintf(stderr, "sim::StackPool: mprotect of slab guard failed\n");
    std::abort();
  }
  slabs_.push_back(Slab{static_cast<char*>(base), bytes});
  carve_ = static_cast<char*>(base);
  carve_end_ = carve_ + bytes;
  next_slab_stacks_ *= 2;
}

char* StackPool::take() {
  if (!free_.empty()) {
    const Free f = free_.back();
    free_.pop_back();
    if (!canary_intact(f.lo)) {
      std::fprintf(stderr,
                   "sim::StackPool: canary of a free stack last used by rank "
                   "%d is overwritten\n",
                   f.owner);
      std::abort();
    }
    return f.lo;
  }
  if (carve_ == carve_end_) map_slab();
  char* lo = carve_ + page_size();  // above the slot's untouched page
  carve_ += stack_bytes_ + page_size();
  return lo;
}

void StackPool::put(char* lo, int owner) {
  if (!canary_intact(lo)) {
    std::fprintf(stderr,
                 "sim::Fiber: stack overflow on rank %d: the canary at the "
                 "low end of its %zu-byte stack is overwritten\n",
                 owner, stack_bytes_);
    std::abort();
  }
  free_.push_back(Free{lo, owner});
}

Fiber::Fiber() {
#if CASPER_ASAN_FIBERS
  // ASan needs the bounds of the adopted (native thread) stack to announce
  // switches back to it.
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* lo = nullptr;
    std::size_t sz = 0;
    pthread_attr_getstack(&attr, &lo, &sz);
    stack_lo_ = static_cast<char*>(lo);
    stack_bytes_ = sz;
    pthread_attr_destroy(&attr);
  }
#endif
#if CASPER_TSAN_FIBERS
  tsan_fiber_ = __tsan_get_current_fiber();
  tsan_owned_ = false;
#endif
}

Fiber::Fiber(Entry entry, void* arg, StackPool& pool, int id)
    : entry_(entry),
      arg_(arg),
      stack_lo_(pool.take()),
      stack_bytes_(pool.stack_bytes()),
      pool_(&pool),
      id_(id) {
  static_assert(offsetof(Fiber, sp_limit_) == sizeof(void*),
                "casper_fiber_switch reads sp_limit_ one word past sp_");
  sp_limit_ = reinterpret_cast<std::uintptr_t>(stack_lo_) + kRedZoneBytes;

#if CASPER_TSAN_FIBERS
  tsan_fiber_ = __tsan_create_fiber(0);
  tsan_owned_ = true;
#endif

#if CASPER_FIBER_ASM
  // Build the boot frame casper_fiber_switch will "resume": six callee-saved
  // register slots below a return address pointing at casper_fiber_boot. The
  // Fiber* rides in the r12 slot. The return address sits at a 16-aligned
  // address so that after `ret` pops it, rsp % 16 == 8 — exactly the SysV
  // alignment a normal function sees on entry.
  auto top = (reinterpret_cast<std::uintptr_t>(stack_lo_) + stack_bytes_) &
             ~std::uintptr_t{15};
  auto* slot = reinterpret_cast<void**>(top);
  slot[-2] = reinterpret_cast<void*>(&casper_fiber_boot);  // ret address
  slot[-3] = nullptr;                                      // rbp (ends bt)
  slot[-4] = nullptr;                                      // rbx
  slot[-5] = this;                                         // r12
  slot[-6] = nullptr;                                      // r13
  slot[-7] = nullptr;                                      // r14
  slot[-8] = nullptr;                                      // r15
  sp_ = &slot[-8];
#else
  if (getcontext(&ctx_) != 0) {
    std::fprintf(stderr, "sim::Fiber: getcontext failed\n");
    std::abort();
  }
  ctx_.uc_stack.ss_sp = stack_lo_;
  ctx_.uc_stack.ss_size = stack_bytes_;
  ctx_.uc_link = nullptr;  // entry must never return
  // makecontext() only forwards int arguments portably; the classic idiom
  // splits the Fiber* into two 32-bit halves reassembled in trampoline().
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
#endif
}

Fiber::~Fiber() {
#if CASPER_TSAN_FIBERS
  // Never the running fiber here: the engine destroys only finished or
  // never-started fibers (and adopted handles are not ours to destroy).
  if (tsan_owned_ && tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
  if (pool_ != nullptr) pool_->put(stack_lo_, id_);
}

static_assert(std::is_standard_layout_v<Fiber>,
              "red_zone_abort casts a pointer to sp_ back to its Fiber");

void Fiber::red_zone_abort(void** out_sp) {
  const Fiber& out = *reinterpret_cast<const Fiber*>(out_sp);
  std::fprintf(stderr,
               "sim::Fiber: stack overflow on rank %d: it switched away with "
               "its stack pointer %td bytes from the low end of its %zu-byte "
               "stack (red zone %zu)\n",
               out.id_,
               static_cast<std::ptrdiff_t>(
                   reinterpret_cast<std::uintptr_t>(out.sp_) -
                   reinterpret_cast<std::uintptr_t>(out.stack_lo_)),
               out.stack_bytes_, kRedZoneBytes);
  std::abort();
}

#if !CASPER_FIBER_ASM
void Fiber::check_switched_out(void** out_sp) {
  const Fiber& out = *reinterpret_cast<const Fiber*>(out_sp);
  if (reinterpret_cast<std::uintptr_t>(out.sp_) < out.sp_limit_) {
    red_zone_abort(out_sp);
  }
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* f = reinterpret_cast<Fiber*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
#if CASPER_ASAN_FIBERS
  // First entry: complete the switch that started in switch_to(). There is
  // no prior fake stack to restore (fake_stack_ is still null).
  __sanitizer_finish_switch_fiber(f->fake_stack_, nullptr, nullptr);
#endif
  check_switched_out(t_out_sp);
  f->entry_(f->arg_);
  // A fiber must end by switching away for the last time, not by returning
  // (with uc_link == nullptr a return would exit the whole thread).
  std::fprintf(stderr, "sim::Fiber: entry returned instead of switching\n");
  std::abort();
}
#endif

void Fiber::switch_to(Fiber& from, Fiber& to, bool from_exiting) {
#if CASPER_ASAN_FIBERS
  // Passing a null save slot tells ASan the departing fiber is done and its
  // fake stack can be destroyed.
  __sanitizer_start_switch_fiber(from_exiting ? nullptr : &from.fake_stack_,
                                 to.stack_lo_, to.stack_bytes_);
#else
  (void)from_exiting;
#endif
#if CASPER_TSAN_FIBERS
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
#if CASPER_FIBER_ASM
  casper_fiber_switch(&from.sp_, to.sp_);
#else
  from.sp_ = __builtin_frame_address(0);
  t_out_sp = &from.sp_;
  if (swapcontext(&from.ctx_, &to.ctx_) != 0) {
    std::fprintf(stderr, "sim::Fiber: swapcontext failed\n");
    std::abort();
  }
  // Back on `from`: check the fiber that switched to it, from this stack.
  check_switched_out(t_out_sp);
#endif
#if CASPER_ASAN_FIBERS
  // We are back on `from` (some other fiber switched to it): restore its
  // fake stack.
  __sanitizer_finish_switch_fiber(from.fake_stack_, nullptr, nullptr);
#endif
}

}  // namespace casper::sim
