#ifndef IOLAP_EXEC_PARALLEL_SCHEDULER_H_
#define IOLAP_EXEC_PARALLEL_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"

namespace iolap {

/// One unit of work for ParallelScheduler::Execute. The scheduler runs
/// `run` closures concurrently on the pool but calls `emit` closures
/// strictly in input order on the calling thread — this is how group-by
/// keeps its output independent of the thread count: compute is
/// unordered, output is ordered.
struct ScheduledUnit {
  /// Deterministic cost estimate (group-by charges each chunk the size of
  /// its partial accumulator). Bounds how much computed-but-not-yet-emitted
  /// work may be in flight, i.e. the scheduler's memory footprint.
  int64_t cost = 1;

  /// Heavy compute. May be empty. Runs on a worker thread (or the calling
  /// thread when there is no pool). Must only touch state owned by the
  /// unit plus thread-safe shared services (BufferPool, DiskManager).
  std::function<Status()> run;

  /// Ordered output. May be empty. Always runs on the calling thread,
  /// after `run` succeeded, in exact input order across all units.
  std::function<Status()> emit;
};

/// Runs an ordered sequence of ScheduledUnits over a ThreadPool.
///
/// Guarantees:
///  * `emit` calls happen in input order, on the calling thread.
///  * At most `max_inflight_cost` worth of units is submitted but not yet
///    emitted (a single unit larger than the budget is still admitted when
///    nothing else is in flight, so progress is never blocked).
///  * On error, the first failing Status in *unit order* is returned, and
///    Execute does not return before every submitted task has finished
///    (units may reference caller-owned state).
class ParallelScheduler {
 public:
  /// `pool` may be null — then every unit runs on the calling thread, in
  /// order.
  ParallelScheduler(ThreadPool* pool, int64_t max_inflight_cost)
      : pool_(pool), max_inflight_cost_(std::max<int64_t>(1, max_inflight_cost)) {}

  Status Execute(std::vector<ScheduledUnit>& units);

 private:
  ThreadPool* pool_;
  int64_t max_inflight_cost_;
};

}  // namespace iolap

#endif  // IOLAP_EXEC_PARALLEL_SCHEDULER_H_
