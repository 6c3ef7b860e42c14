#include "exec/parallel_scheduler.h"

namespace iolap {

Status ParallelScheduler::Execute(std::vector<ScheduledUnit>& units) {
  const size_t n = units.size();
  std::vector<TaskFuture> futures(n);
  size_t next_submit = 0;   // first unit not yet submitted / passed over
  int64_t inflight_cost = 0;  // submitted but not yet emitted

  // Submits units in order until the cost window is full. Admission is
  // deterministic: it depends only on unit order and costs, never on
  // thread timing.
  auto submit_ready = [&] {
    if (pool_ == nullptr) return;
    while (next_submit < n) {
      ScheduledUnit& unit = units[next_submit];
      if (!unit.run) {
        ++next_submit;
        continue;
      }
      if (inflight_cost > 0 && inflight_cost + unit.cost > max_inflight_cost_)
        break;
      futures[next_submit] = pool_->Submit(unit.run);
      inflight_cost += unit.cost;
      ++next_submit;
    }
  };

  Status first_error;
  for (size_t i = 0; i < n; ++i) {
    submit_ready();
    ScheduledUnit& unit = units[i];
    Status status;
    if (futures[i].valid()) {
      status = futures[i].Wait();
      inflight_cost -= unit.cost;
    } else if (unit.run) {
      status = unit.run();  // no pool: run on the calling thread
    }
    if (status.ok() && unit.emit) status = unit.emit();
    if (i == next_submit) ++next_submit;  // step past a non-submitted unit
    if (!status.ok()) {
      first_error = std::move(status);
      break;
    }
  }

  // Never return while submitted tasks might still touch caller state.
  for (size_t j = 0; j < n; ++j) {
    if (futures[j].valid()) futures[j].Wait();
  }
  return first_error;
}

}  // namespace iolap
