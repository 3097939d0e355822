// Minimal binary min-heap with move-out pop.
//
// Elements order via `operator>` (smallest on top) and pop by move, so
// entries never need a copy on the way out. The engine's ready and spill
// heaps use comparators that are total orders (a sequence number breaks
// every tie), which makes heap-internal layout unobservable: pop order —
// and therefore the simulation's execution order — depends on the keys
// alone.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace casper::sim {

/// Binary min-heap over T using `a > b` ("a after b") for ordering.
template <typename T>
class MinHeap {
 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  const T& top() const { return v_.front(); }

  void push(T x) {
    v_.push_back(std::move(x));
    std::size_t i = v_.size() - 1;
    // Hole insertion: pull parents down into the hole (one move per level
    // instead of a three-move swap), then place the item once.
    T item = std::move(v_[i]);
    while (i > 0) {
      const std::size_t p = (i - 1) / 2;
      if (!(v_[p] > item)) break;
      v_[i] = std::move(v_[p]);
      i = p;
    }
    v_[i] = std::move(item);
  }

  /// Remove and return the smallest element (by move, no copy).
  T pop() {
    T out = std::move(v_.front());
    T last = std::move(v_.back());
    v_.pop_back();
    if (!v_.empty()) {
      // Sift `last` down from the root, moving smaller children up into the
      // hole instead of swapping.
      std::size_t i = 0;
      const std::size_t n = v_.size();
      for (;;) {
        std::size_t c = 2 * i + 1;
        if (c >= n) break;
        if (c + 1 < n && v_[c] > v_[c + 1]) c = c + 1;
        if (!(last > v_[c])) break;
        v_[i] = std::move(v_[c]);
        i = c;
      }
      v_[i] = std::move(last);
    }
    return out;
  }

 private:
  std::vector<T> v_;
};

}  // namespace casper::sim
