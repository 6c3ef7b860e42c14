#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "stats.h"

namespace perfbench {

/// Command line of the runner binary (see main.cc).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    // work space for the storage environments
  std::string trace_path;  // Chrome trace of the traced phase (trace only)
};

/// Everything one runner run reports: named numeric metrics plus the
/// operation tally that feeds `attempted` / `failed`. The tally may be
/// updated from client threads; metrics are set from the main thread.
class Report {
 public:
  void Set(const std::string& name, double value) { metrics_[name] = value; }

  /// Records `n` operations attempted.
  void Attempt(int64_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    attempted_ += n;
  }
  /// Records a failed or wrong operation.
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    Note(why);
  }
  /// Records a workload that drifted from its purpose: the run is not a
  /// valid measurement even if every operation succeeded.
  void ShapeError(const std::string& why) {
    std::lock_guard<std::mutex> lock(mu_);
    shape_ok_ = false;
    Note("shape: " + why);
  }

  /// Median, tail (see Tail) and sample count of `samples` as
  /// `<prefix>_p50<unit>`, `<prefix>_tail<unit>`, `<prefix>_tail_pct` and
  /// `<prefix>_samples`. A sample too small for a tail reports only the
  /// median and count.
  void SetLatency(const std::string& prefix, const std::string& unit,
                  const std::vector<double>& samples) {
    Set(prefix + "_p50" + unit, Median(samples));
    Set(prefix + "_samples", static_cast<double>(samples.size()));
    const TailPoint tail = Tail(samples);
    Set(prefix + "_tail" + unit, tail.ok ? tail.value : 0);
    Set(prefix + "_tail_pct", tail.ok ? tail.pct : 0);
  }

  /// Writes the report as one JSON object to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  void Note(const std::string& why) {
    if (notes_.size() < 20) notes_.push_back(why);
  }

  std::map<std::string, double> metrics_;
  mutable std::mutex mu_;  // guards the tally and the notes
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool shape_ok_ = true;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Process-wide resource usage (all threads) from getrusage.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  int64_t vol_ctx_switches = 0;
  double max_rss_mb = 0;

  static Usage Now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
    u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    u.vol_ctx_switches = ru.ru_nvcsw;
    u.max_rss_mb = ru.ru_maxrss / 1024.0;  // Linux reports KiB
    return u;
  }
};

/// Sets `proc.cpu_s`, `proc.sys_frac` and `proc.vol_ctx_switches` from the
/// usage accrued between `before` and `after`, per `ops` operations.
inline void SetProcUsage(Report* report, const Usage& before,
                         const Usage& after, double ops) {
  const double user = after.user_s - before.user_s;
  const double sys = after.sys_s - before.sys_s;
  const double per = ops > 0 ? 1.0 / ops : 0;
  report->Set("proc.cpu_s", (user + sys) * per);
  report->Set("proc.sys_frac", user + sys > 0 ? sys / (user + sys) : 0);
  report->Set("proc.vol_ctx_switches",
              static_cast<double>(after.vol_ctx_switches -
                                  before.vol_ctx_switches) *
                  per);
}

/// Whether `got` equals `want` up to 1e-9 relative (absolute below 1).
inline bool Agrees(double got, double want) {
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

/// The two dataset families of the paper's Section 11: automotive-like
/// (no ALL values) and the ALL-allowed synthetic variant whose imprecise
/// facts chain into one giant connected component. Everything not named
/// here keeps the generator's defaults. (bench/bench_util.h has the same
/// helpers; the benchmark keeps its own so its inputs change only when the
/// benchmark itself does.)
inline iolap::DatasetSpec AutomotiveLikeSpec(int64_t facts, uint64_t seed) {
  iolap::DatasetSpec spec;
  spec.num_facts = facts;
  spec.allow_all = false;
  spec.seed = seed;
  return spec;
}

inline iolap::DatasetSpec AllSyntheticSpec(int64_t facts, uint64_t seed) {
  iolap::DatasetSpec spec;
  spec.num_facts = facts;
  spec.allow_all = true;
  spec.all_fraction = 0.08;
  spec.seed = seed;
  return spec;
}

/// Creates a fresh directory under the run's work dir for one storage
/// environment; exits the process if that is impossible.
std::string MakeEnvDir(const Options& options, const char* tag);

int RunAllocWorkload(const Options& options, Report* report);
int RunServeWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
