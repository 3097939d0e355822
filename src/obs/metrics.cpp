#include "obs/metrics.hpp"

#include <cstdio>
#include <ostream>

namespace casper::obs {

void Histogram::add(std::uint64_t v) {
  int k = 0;
  for (std::uint64_t x = v; x > 1; x >>= 1) ++k;
  ++buckets_[k];
  ++count_;
  sum_ += v;
  if (v < min_) min_ = v;
  if (v > max_) max_ = v;
}

void Histogram::merge(const Histogram& o) {
  for (int k = 0; k < kBuckets; ++k) buckets_[k] += o.buckets_[k];
  count_ += o.count_;
  sum_ += o.sum_;
  if (o.count_ != 0) {
    if (o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
  }
}

void Metrics::merge_from(const Metrics& o) {
  for (const auto& [name, v] : o.counters_) counters_[name] += v;
  for (const auto& [name, h] : o.histograms_) histograms_[name].merge(h);
}

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char ch : s) {
    if (ch == '"' || ch == '\\') os << '\\';
    os << ch;
  }
  os << '"';
}

}  // namespace

void Metrics::write_json(std::ostream& os, int indent) const {
  // The opening brace is not padded: the caller typically emits it mid-line
  // (after a JSON key); only continuation lines get the indent.
  std::string pad(static_cast<std::size_t>(indent), ' ');
  os << "{\n";
  os << pad << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters_) {
    os << (first ? "\n" : ",\n") << pad << "    ";
    first = false;
    json_string(os, name);
    os << ": " << v;
  }
  os << (first ? "" : "\n" + pad + "  ") << "},\n";
  os << pad << "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n" : ",\n") << pad << "    ";
    first = false;
    json_string(os, name);
    char meanbuf[48];
    std::snprintf(meanbuf, sizeof(meanbuf), "%.3f", h.mean());
    os << ": {\"count\": " << h.count() << ", \"sum\": " << h.sum()
       << ", \"min\": " << h.min() << ", \"max\": " << h.max()
       << ", \"mean\": " << meanbuf << ", \"buckets\": [";
    bool bfirst = true;
    for (int k = 0; k < Histogram::kBuckets; ++k) {
      if (h.bucket(k) == 0) continue;
      if (!bfirst) os << ", ";
      bfirst = false;
      os << '[' << k << ", " << h.bucket(k) << ']';
    }
    os << "]}";
  }
  os << (first ? "" : "\n" + pad + "  ") << "}\n";
  os << pad << "}";
}

std::uint64_t Metrics::counter_value(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void WindowedRates::advance(const Metrics& m, sim::Time now) {
  const sim::Time dt = now - last_;
  if (dt <= 0) return;
  for (const auto& [name, v] : m.counters()) {
    std::uint64_t& p = prev_[name];
    const std::uint64_t delta = v - p;
    p = v;
    // units per virtual millisecond; dt is in virtual nanoseconds.
    rates_[name].advance(delta * 1000000ull / static_cast<std::uint64_t>(dt),
                         shift_);
  }
  last_ = now;
}

std::uint64_t WindowedRates::per_ms(const std::string& name) const {
  auto it = rates_.find(name);
  return it == rates_.end() ? 0 : it->second.value();
}

void WindowedRates::fold_into(Metrics& m, const std::string& prefix) const {
  for (const auto& [name, e] : rates_) m.counter(prefix + name) = e.value();
}

}  // namespace casper::obs
