// Move-only type-erased callable for engine event callbacks.
//
// std::function cannot hold move-only closures (it requires copy
// construction), which rules out capturing owning buffers, and it heap-
// allocates any capture over its small-object threshold (16 bytes on
// libstdc++) — one malloc/free per posted event. BasicEventFn stores
// captures up to N bytes in place; relocation moves only the bytes the
// closure actually uses (trivially-copyable captures memcpy, others run
// their move constructor). Oversized closures fall back to the heap — a
// cold path kept for safety, not used by the runtime.
//
// Two capacities exist because the engine's pooled event slots dominate the
// scheduler's cache footprint. Every per-op RMA event (delivery, agent
// service, NIC commit, ack) carries only {runtime, op node, time}: 24 bytes,
// the compact tier. The full tier holds the few larger closures, which are
// per message or per epoch: a point-to-point send with its P2pMsg (64
// bytes, the largest), lock-protocol messages (up to 56). The engine keeps
// two slot tiers; the shared VTable lives at namespace scope so a closure moved from
// an EventFn into a SmallEventFn (or back) keeps its original vtable — a
// cross-capacity move is legal whenever the payload fits the destination
// (payload_size() tells the engine which tier to pick).
#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace casper::sim {

namespace detail {

struct EventVTable {
  void (*call)(void*);
  /// Move-construct *src into dst, destroy *src. Null: memcpy(size) works.
  void (*reloc)(void* dst, void* src);
  void (*destroy)(void*);  ///< null: trivially destructible
  std::size_t size;
  bool heap;
};

template <typename Fn>
inline constexpr EventVTable event_vtable_inline{
    [](void* p) { (*static_cast<Fn*>(p))(); },
    std::is_trivially_copyable_v<Fn>
        ? nullptr
        : +[](void* dst, void* src) {
            ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
            static_cast<Fn*>(src)->~Fn();
          },
    std::is_trivially_destructible_v<Fn>
        ? nullptr
        : +[](void* p) { static_cast<Fn*>(p)->~Fn(); },
    sizeof(Fn), false};

template <typename Fn>
inline constexpr EventVTable event_vtable_heap{
    [](void* p) { (*static_cast<Fn*>(p))(); }, nullptr,
    [](void* p) { delete static_cast<Fn*>(p); }, sizeof(Fn), true};

}  // namespace detail

template <std::size_t N>
class BasicEventFn {
 public:
  static constexpr std::size_t kInline = N;

  BasicEventFn() = default;
  BasicEventFn(std::nullptr_t) {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicEventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  BasicEventFn(F&& f) {  // NOLINT(google-explicit-constructor): adaptor
    using Fn = std::decay_t<F>;
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    if constexpr (sizeof(Fn) <= kInline) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      vt_ = &detail::event_vtable_inline<Fn>;
    } else {
      heap_ = ::new Fn(std::forward<F>(f));
      vt_ = &detail::event_vtable_heap<Fn>;
    }
  }

  BasicEventFn(BasicEventFn&& o) noexcept { move_from(o); }

  /// Cross-capacity move: legal when the source payload is heap-held or fits
  /// this capacity (the engine checks payload_size() before choosing a slot
  /// tier; a non-fitting inline payload is a logic error, not recoverable).
  template <std::size_t M, typename = std::enable_if_t<M != N>>
  BasicEventFn(BasicEventFn<M>&& o) noexcept {
    move_from(o);
  }

  BasicEventFn& operator=(BasicEventFn&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  template <std::size_t M, typename = std::enable_if_t<M != N>>
  BasicEventFn& operator=(BasicEventFn<M>&& o) noexcept {
    reset();
    move_from(o);
    return *this;
  }
  BasicEventFn& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  BasicEventFn(const BasicEventFn&) = delete;
  BasicEventFn& operator=(const BasicEventFn&) = delete;
  ~BasicEventFn() { reset(); }

  explicit operator bool() const { return vt_ != nullptr; }

  void operator()() { vt_->call(target()); }

  /// Bytes of the stored closure (0 when empty). With on_heap() this is what
  /// the engine uses to pick a slot tier.
  std::size_t payload_size() const { return vt_ == nullptr ? 0 : vt_->size; }
  bool on_heap() const { return vt_ != nullptr && vt_->heap; }

 private:
  template <std::size_t M>
  friend class BasicEventFn;

  void* target() { return vt_->heap ? heap_ : static_cast<void*>(buf_); }

  template <std::size_t M>
  void move_from(BasicEventFn<M>& o) noexcept {
    vt_ = o.vt_;
    if (vt_ == nullptr) return;
    if (vt_->heap) {
      heap_ = o.heap_;
    } else {
      if (vt_->size > kInline) {
        std::fprintf(stderr,
                     "sim::BasicEventFn<%zu>: payload of %zu bytes does not "
                     "fit (engine slot-tier bug)\n",
                     kInline, vt_->size);
        std::abort();
      }
      if (vt_->reloc != nullptr) {
        vt_->reloc(buf_, o.buf_);
      } else {
        std::memcpy(buf_, o.buf_, vt_->size);
      }
    }
    o.vt_ = nullptr;
  }

  void reset() noexcept {
    if (vt_ == nullptr) return;
    if (vt_->heap) {
      vt_->destroy(heap_);
    } else if (vt_->destroy != nullptr) {
      vt_->destroy(buf_);
    }
    vt_ = nullptr;
  }

  const detail::EventVTable* vt_ = nullptr;
  union {
    void* heap_;
    alignas(std::max_align_t) std::byte buf_[N];
  };
};

/// Sized for the largest closure the runtime posts (p_send's, 64 bytes).
/// A larger one still works, but pays a heap allocation per event.
using EventFn = BasicEventFn<64>;

/// Compact slot tier for the common case: closures of a few scalars. Sized
/// so the whole slot (vtable pointer + buffer) is 32 bytes.
using SmallEventFn = BasicEventFn<24>;

}  // namespace casper::sim
