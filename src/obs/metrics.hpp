// Metrics registry: named monotonically-increasing counters plus log2-bucket
// histograms, dumped as a JSON object that the bench/report stack embeds in
// every BENCH_*.json. Keys live in std::map so dumps enumerate in a fixed
// order — the perturbed-schedule invariance test compares dumps textually.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace casper::obs {

/// Integer fixed-point EWMA cell: kFrac fractional bits, advanced once per
/// sampling window with v += (sample - v) >> shift. Pure integer arithmetic
/// so two replicas fed the same samples stay bit-equal — the adaptive
/// progress controller replicates these per origin and relies on exact
/// agreement (no doubles, no rounding-mode dependence).
struct Ewma {
  static constexpr int kFrac = 8;
  std::uint64_t v = 0;  ///< fixed-point estimate (value() strips the frac)
  void advance(std::uint64_t sample, int shift) {
    const std::int64_t d = static_cast<std::int64_t>(sample << kFrac) -
                           static_cast<std::int64_t>(v);
    v = static_cast<std::uint64_t>(static_cast<std::int64_t>(v) +
                                   (d >> shift));
  }
  std::uint64_t value() const { return v >> kFrac; }
};

/// Power-of-two bucketed histogram: value v lands in bucket floor(log2(v))
/// (bucket 0 holds v <= 1). Tracks count/sum/min/max exactly.
class Histogram {
 public:
  void add(std::uint64_t v);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  /// Events in bucket k, i.e. values in [2^k, 2^(k+1)) (k=0 also holds 0, 1).
  std::uint64_t bucket(int k) const {
    return (k >= 0 && k < kBuckets) ? buckets_[k] : 0;
  }

  /// Fold another histogram in: buckets/count/sum add, min/max widen. Used
  /// when per-shard replicas are merged after a sharded run.
  void merge(const Histogram& o);

  static constexpr int kBuckets = 64;

 private:
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

class Metrics {
 public:
  /// Ordered by name; std::less<> finds a key from a string_view, so a
  /// lookup by literal builds no std::string (only a new key's insert does).
  template <class T>
  using Registry = std::map<std::string, T, std::less<>>;

  /// Get-or-create; returned reference stays valid (map nodes are stable).
  std::uint64_t& counter(std::string_view name) {
    return get_or_add(counters_, name);
  }
  Histogram& histogram(std::string_view name) {
    return get_or_add(histograms_, name);
  }

  std::uint64_t counter_value(std::string_view name) const;
  const Registry<std::uint64_t>& counters() const { return counters_; }
  const Registry<Histogram>& histograms() const { return histograms_; }

  /// Add every counter and histogram of `o` into this registry (counters
  /// sum, histograms merge). std::map keys keep the dump order fixed no
  /// matter which shard first created a name.
  void merge_from(const Metrics& o);

  /// {"counters":{...},"histograms":{name:{count,sum,min,max,mean,
  ///  buckets:[[k,n],...]}}} — empty buckets omitted. `indent` spaces prefix
  /// every line so the block nests inside a larger JSON document.
  void write_json(std::ostream& os, int indent = 0) const;

 private:
  template <class T>
  static T& get_or_add(Registry<T>& m, std::string_view name) {
    auto it = m.find(name);
    if (it == m.end()) it = m.emplace(std::string(name), T{}).first;
    return it->second;
  }

  Registry<std::uint64_t> counters_;
  Registry<Histogram> histograms_;
};

/// Windowed-rate view over a Metrics registry: per-counter EWMA of
/// delta-count / delta-virtual-time, advanced explicitly at epoch or window
/// boundaries. Time comes from the caller's virtual clock — there is no
/// wall-clock read anywhere — so the rates are as deterministic as the
/// counters they derive from. A separate overlay (never folded into
/// Metrics::write_json by default) so attaching one cannot perturb the
/// committed BENCH_*.json baselines or golden traces.
class WindowedRates {
 public:
  explicit WindowedRates(int shift = 2) : shift_(shift) {}

  /// Fold the window [previous advance, now) into the rates: for every
  /// counter, EWMA-advance with sample = delta * 1e6 / dt_ns (units per
  /// virtual millisecond). Counters first seen this window contribute their
  /// full value as the delta. No-op when now has not moved.
  void advance(const Metrics& m, sim::Time now);

  /// Smoothed rate in counter units per virtual millisecond (0 if unseen).
  std::uint64_t per_ms(const std::string& name) const;

  const std::map<std::string, Ewma>& rates() const { return rates_; }

  /// Export every rate as a `<prefix><name>` counter in `m` — how benches
  /// surface the windowed view inside their JSON metrics block.
  void fold_into(Metrics& m, const std::string& prefix) const;

 private:
  int shift_;
  sim::Time last_ = 0;
  std::map<std::string, std::uint64_t> prev_;
  std::map<std::string, Ewma> rates_;
};

}  // namespace casper::obs
