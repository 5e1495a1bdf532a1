// The benchmark's own arithmetic: exact percentiles, medians of per-round
// values, the quietest rounds, round rotation, and span self time. Pure
// functions of their inputs, so selftest.cpp can pin every one of them
// down.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank index (0-based) of quantile `q` in `n` sorted samples:
/// the smallest sample with at least q*n samples at or below it.
inline std::size_t rank_index(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("rank_index: no samples");
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t k = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(k, n) - 1;
}

/// True when at least `min_beyond` samples lie strictly beyond the
/// nearest-rank position of `q` — the rule for the highest percentile a
/// round may report (p99 needs n >= 1000 with min_beyond = 10).
inline bool tail_supported(std::size_t n, double q,
                           std::size_t min_beyond = 10) {
  return n != 0 && n - 1 - rank_index(n, q) >= min_beyond;
}

/// Exact nearest-rank quantile of raw samples (partially reorders them).
template <typename T>
T exact_quantile(std::vector<T>& samples, double q) {
  const std::size_t k = rank_index(samples.size(), q);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

/// Median of per-round values, as Python's statistics.median computes it
/// (mean of the two middle values for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Indices of the ceil(n/2) rounds with the least `lost` time (ties keep
/// round order): the rounds the host disturbed least, chosen by a measure
/// taken beside the metrics, never by the metrics themselves.
inline std::vector<std::size_t> quietest_half(
    const std::vector<double>& lost) {
  std::vector<std::size_t> order(lost.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return lost[a] < lost[b];
  });
  order.resize((order.size() + 1) / 2);
  return order;
}

/// Slice order within round `round` of `count` interleaved instances:
/// ABC, BCA, CAB, ... so over any multiple of `count` rounds every
/// instance runs in every position equally often.
inline std::size_t rotation(std::size_t round, std::size_t position,
                            std::size_t count) {
  return (round + position) % count;
}

/// Self time of one span: its duration minus the part of it that its
/// children cover. Children must be added in start order; they may
/// overlap each other and stick out of the parent, and only their union
/// inside the parent is subtracted.
class SelfTime {
 public:
  SelfTime(std::uint64_t start, std::uint64_t end)
      : start_(start), end_(end), covered_until_(start) {}

  void add_child(std::uint64_t start, std::uint64_t end) {
    start = std::max({start, start_, covered_until_});
    end = std::min(end, end_);
    if (end <= start) return;
    covered_ += end - start;
    covered_until_ = end;
  }

  std::uint64_t self() const { return (end_ - start_) - covered_; }

 private:
  std::uint64_t start_, end_;
  std::uint64_t covered_until_;
  std::uint64_t covered_ = 0;
};

}  // namespace perfbench
