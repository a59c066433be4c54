// Small shared helpers for the wire-to-evaluator benchmark: monotonic
// clock, sample sets with quantiles, answer hashing, and an in-memory span
// recorder. Header-only; no dependency on anything but the standard
// library and gkx's value type.

#ifndef GKX_PERFBENCH_COMMON_HPP_
#define GKX_PERFBENCH_COMMON_HPP_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/value.hpp"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// FNV-1a, 64 bit; `h` chains calls.
inline uint64_t Fnv(const void* data, size_t size,
                    uint64_t h = 1469598103934665603ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
inline uint64_t Fnv(std::string_view s, uint64_t h = 1469598103934665603ULL) {
  return Fnv(s.data(), s.size(), h);
}
template <typename T>
inline uint64_t FnvPod(const T& v, uint64_t h) {
  return Fnv(&v, sizeof(v), h);
}

/// Exact content hash of an answer value: type tag plus the raw payload
/// (node ids, IEEE bits, string bytes). Two values hash equal iff they are
/// Value::Equals-identical, up to 64-bit collisions.
inline uint64_t ValueHash(const gkx::eval::Value& v) {
  uint64_t h = FnvPod(static_cast<int>(v.type()), 1469598103934665603ULL);
  switch (v.type()) {
    case gkx::xpath::ValueType::kNodeSet: {
      const auto& nodes = v.nodes();
      h = FnvPod(nodes.size(), h);
      return Fnv(nodes.data(), nodes.size() * sizeof(nodes[0]), h);
    }
    case gkx::xpath::ValueType::kNumber: {
      double n = v.number();
      uint64_t bits;
      std::memcpy(&bits, &n, sizeof(bits));
      return FnvPod(bits, h);
    }
    case gkx::xpath::ValueType::kString:
      return Fnv(v.string(), h);
    case gkx::xpath::ValueType::kBoolean:
      return FnvPod(v.boolean(), h);
  }
  return h;
}

/// Quantile of an ascending-sorted sample by linear interpolation (the
/// "inclusive" definition: q=0 is the minimum, q=1 the maximum).
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// A bag of measurements with the summary statistics the report needs.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }

  double Quantile(double q) const {
    Sort();
    return SortedQuantile(values_, q);
  }
  double Median() const { return Quantile(0.5); }
  /// The tail percentile a run can support: `wanted` (e.g. 0.99) when at
  /// least 1000 samples back it, otherwise the highest quantile that still
  /// has ten samples beyond it.
  double TailLevel(double wanted) const {
    const double n = static_cast<double>(values_.size());
    if (n >= 1000.0) return wanted;
    if (n <= 10.0) return 0.5;  // no sample has ten beyond it: the median
    return std::min(wanted, 1.0 - 10.0 / n);
  }

 private:
  void Sort() const {
    if (!sorted_ || sorted_n_ != values_.size()) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
      sorted_n_ = values_.size();
    }
  }
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  mutable size_t sorted_n_ = 0;
};

/// Latency samples stamped with their start time. The median is pooled;
/// the tail is the median, over equal-time windows, of each window's tail
/// quantile, so a transient stall of the machine moves one window rather
/// than the result.
class TimedSamples {
 public:
  void Add(uint64_t t_ns, double v) { items_.push_back({t_ns, v}); }
  void Append(const TimedSamples& other) {
    items_.insert(items_.end(), other.items_.begin(), other.items_.end());
  }
  size_t size() const { return items_.size(); }

  double Median() const {
    Samples all;
    for (const auto& [t, v] : items_) all.Add(v);
    return all.Median();
  }

  /// The `wanted` quantile (lowered per Samples::TailLevel in windows with
  /// fewer than 1,000 samples) as the median over `windows` windows;
  /// `*level` receives the lowest quantile a window used.
  double Tail(double wanted, int windows, double* level) const {
    *level = wanted;
    if (items_.empty()) return 0.0;
    uint64_t lo = items_.front().first, hi = lo;
    for (const auto& [t, v] : items_) {
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    std::vector<Samples> parts(static_cast<size_t>(windows));
    const double span = static_cast<double>(hi - lo) + 1.0;
    for (const auto& [t, v] : items_) {
      const auto w = static_cast<size_t>(static_cast<double>(t - lo) / span * windows);
      parts[std::min(w, parts.size() - 1)].Add(v);
    }
    Samples tails;
    for (const Samples& part : parts) {
      if (part.size() == 0) continue;
      const double q = part.TailLevel(wanted);
      *level = std::min(*level, q);
      tails.Add(part.Quantile(q));
    }
    return tails.Median();
  }

 private:
  std::vector<std::pair<uint64_t, double>> items_;
};

/// One span: a named interval around a benchmark call. `parent` is the id
/// of the enclosing span (-1 at top level); `request` the operation index
/// the span belongs to (-1 when it is not tied to one request).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
};

/// Per-thread span buffer; spans stay in memory until the run ends. A
/// disabled recorder is a no-op, which is what the untraced runs use.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = false, int64_t id_base = 0)
      : enabled_(enabled), next_id_(id_base) {}

  /// Opens a span and returns its id (or -1 when disabled).
  int64_t Begin(const char* name, int64_t parent, int64_t request) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.id = next_id_++;
    s.parent = parent;
    s.request = request;
    s.start_ns = NowNs();
    open_.push_back(spans_.size());
    spans_.push_back(s);
    return s.id;
  }
  void End() {
    if (!enabled_ || open_.empty()) return;
    spans_[open_.back()].end_ns = NowNs();
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int64_t next_id_;
  std::vector<size_t> open_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // GKX_PERFBENCH_COMMON_HPP_
