#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count, like
/// Python's statistics.median); 0 for an empty sample.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (*std::max_element(v.begin(), v.begin() + mid) + upper) / 2;
}

/// A tail point of a latency sample: the value at percentile `pct` by the
/// nearest-rank rule. `ok` is false when no ladder percentile qualifies.
struct TailPoint {
  double pct = 0;
  double value = 0;
  bool ok = false;
};

/// The highest percentile of {99.99, 99.9, 99, 90, 50} that still has at
/// least ten samples strictly beyond its nearest-rank position, so a
/// reported tail always rests on ten or more observations. A sample of
/// fewer than 11 values has no such percentile.
inline TailPoint Tail(std::vector<double> v) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  const int64_t n = static_cast<int64_t>(v.size());
  std::sort(v.begin(), v.end());
  for (const double pct : kLadder) {
    // Nearest rank: the smallest index whose cumulative share reaches pct.
    // The 1e-9 keeps representation error in `pct` from bumping the rank.
    int64_t idx = static_cast<int64_t>(std::ceil(pct * n / 100.0 - 1e-9)) - 1;
    idx = std::max<int64_t>(idx, 0);
    if (n - 1 - idx >= 10) return TailPoint{pct, v[idx], true};
  }
  return TailPoint{};
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
