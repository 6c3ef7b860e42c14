// Checks the runner's sample summaries on synthetic inputs. Built and run
// by `ctest` in the benchmark's build tree.

#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  // Descending, so the rule must sort before ranking.
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using perfbench::Median;
  using perfbench::Tail;

  Expect(Median({}) == 0, "median of nothing is 0");
  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median averages the middle two");

  // Ten or fewer values leave no percentile with ten samples beyond it.
  Expect(!Tail(Ramp(10)).ok, "10 samples have no tail");
  // 11 values: p50 sits at rank 6 with 5 beyond; still no tail.
  Expect(!Tail(Ramp(11)).ok, "11 samples have no tail");
  // 20 values: p50 is rank 10, exactly ten beyond.
  const perfbench::TailPoint t20 = Tail(Ramp(20));
  Expect(t20.ok && t20.pct == 50 && t20.value == 10, "20 samples -> p50");
  // 99 values: p90 is rank 90 with 9 beyond, so the rule falls back to p50.
  const perfbench::TailPoint t99 = Tail(Ramp(99));
  Expect(t99.ok && t99.pct == 50 && t99.value == 50, "99 samples -> p50");
  // 100 values: p90 is rank 90, exactly ten beyond.
  const perfbench::TailPoint t100 = Tail(Ramp(100));
  Expect(t100.ok && t100.pct == 90 && t100.value == 90, "100 samples -> p90");
  // 1000 values: p99 is rank 990, ten beyond.
  const perfbench::TailPoint t1k = Tail(Ramp(1000));
  Expect(t1k.ok && t1k.pct == 99 && t1k.value == 990, "1000 samples -> p99");
  // 10000 values: p99.9 is rank 9990.
  const perfbench::TailPoint t10k = Tail(Ramp(10000));
  Expect(t10k.ok && t10k.pct == 99.9 && t10k.value == 9990,
         "10000 samples -> p99.9");

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
