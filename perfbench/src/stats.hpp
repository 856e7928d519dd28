// The arithmetic behind every figure the benchmark reports: order
// statistics over timing samples, span self time and pool utilisation.
// Free of the mstv library so that perfbench_selftest can check each
// function on synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Median of a non-empty sample; the mean of the two middle values when
/// the sample size is even.
inline double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : (xs[mid - 1] + xs[mid]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the rule of Python's `statistics.quantiles(xs, n=4)`
/// (method "exclusive"), so spreads computed here and by a Python
/// harness over the same values agree.  Needs at least two samples.
inline Quartiles quartiles(std::vector<double> xs) {
  if (xs.size() < 2) throw std::invalid_argument("quartiles need 2 samples");
  std::sort(xs.begin(), xs.end());
  const std::size_t ld = xs.size();
  const std::size_t m = ld + 1;
  double q[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 1; i < 4; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, ld - 1);
    const double delta =
        static_cast<double>(i * m) - static_cast<double>(j * 4);
    q[i - 1] = (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

/// The highest whole percentile p in [50, 99] that leaves at least
/// `min_beyond` of `n` samples above it, i.e. n * (100 - p) / 100 >=
/// min_beyond.  Empty when even the median would leave fewer.
inline std::optional<int> tail_percentile(std::size_t n,
                                          std::size_t min_beyond = 10) {
  for (int p = 99; p >= 50; --p) {
    if (n * static_cast<std::size_t>(100 - p) >= min_beyond * 100) return p;
  }
  return std::nullopt;
}

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// sample at or below it.
inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of empty sample");
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

/// One recorded span: a call into a layer, timed from the benchmark.
struct SpanRecord {
  std::string name;
  double start_ns = 0.0;
  double end_ns = 0.0;
  std::int64_t parent = -1;  // index of the enclosing span, -1 at the top
  std::int64_t op = -1;      // pass / round / update the span belongs to
};

/// Self time of every span: its duration minus its direct children's
/// durations.  Spans come from scopes opened and closed on one thread, so
/// children nest inside their parent and never overlap.
inline std::vector<double> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent < 0) continue;
    const auto p = static_cast<std::size_t>(spans[i].parent);
    if (p >= spans.size()) {
      throw std::invalid_argument("span parent out of range");
    }
    self[p] -= spans[i].end_ns - spans[i].start_ns;
  }
  return self;
}

/// Share of the pool's capacity spent inside shard bodies: summed shard
/// time over threads x wall time.
inline double busy_frac(double busy_ns, std::size_t threads, double wall_ns) {
  if (threads == 0 || wall_ns <= 0.0) {
    throw std::invalid_argument("busy_frac needs threads >= 1 and wall > 0");
  }
  return busy_ns / (static_cast<double>(threads) * wall_ns);
}

}  // namespace perfbench
