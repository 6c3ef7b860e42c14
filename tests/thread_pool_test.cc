#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/parallel_scheduler.h"

namespace iolap {
namespace {

TEST(ThreadPool, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mu;
  std::vector<TaskFuture> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i, &order, &mu]() {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
      return Status::Ok();
    }));
  }
  for (TaskFuture& f : futures) EXPECT_TRUE(f.Wait().ok());
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, PropagatesTaskStatus) {
  ThreadPool pool(4);
  TaskFuture ok = pool.Submit([] { return Status::Ok(); });
  TaskFuture bad =
      pool.Submit([] { return Status::Internal("deliberate failure"); });
  EXPECT_TRUE(ok.Wait().ok());
  Status status = bad.Wait();
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  // Wait is idempotent: all copies share the completion state.
  EXPECT_EQ(bad.Wait().code(), StatusCode::kInternal);
}

TEST(ThreadPool, DestructorDrainsQueuedWork) {
  std::atomic<int> completed{0};
  std::vector<TaskFuture> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.Submit([&completed]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        completed.fetch_add(1);
        return Status::Ok();
      }));
    }
    // Destructor runs here with most tasks still queued.
  }
  EXPECT_EQ(completed.load(), 64);
  for (TaskFuture& f : futures) EXPECT_TRUE(f.Wait().ok());
}

TEST(ThreadPool, WaitOnInvalidFutureFailsCleanly) {
  TaskFuture invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(invalid.Wait().code(), StatusCode::kFailedPrecondition);
}

TEST(ThreadPool, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  TaskFuture f = pool.Submit([] { return Status::Ok(); });
  EXPECT_TRUE(f.Wait().ok());
}

// ---------------------------------------------------------------------------
// ParallelScheduler

TEST(ParallelScheduler, EmitsInInputOrderDespiteConcurrentRuns) {
  ThreadPool pool(4);
  ParallelScheduler scheduler(&pool, /*max_inflight_cost=*/1 << 20);
  std::vector<int> emitted;
  std::vector<ScheduledUnit> units;
  for (int i = 0; i < 50; ++i) {
    ScheduledUnit unit;
    unit.cost = 1;
    unit.run = [i]() {
      // Reverse-staggered sleeps so later units finish compute first.
      std::this_thread::sleep_for(std::chrono::microseconds((50 - i) * 20));
      return Status::Ok();
    };
    unit.emit = [i, &emitted]() {
      emitted.push_back(i);
      return Status::Ok();
    };
    units.push_back(std::move(unit));
  }
  EXPECT_TRUE(scheduler.Execute(units).ok());
  ASSERT_EQ(emitted.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(emitted[i], i);
}

TEST(ParallelScheduler, ReturnsFirstErrorInUnitOrder) {
  ThreadPool pool(4);
  ParallelScheduler scheduler(&pool, 1 << 20);
  std::vector<int> emitted;
  std::vector<ScheduledUnit> units;
  for (int i = 0; i < 10; ++i) {
    ScheduledUnit unit;
    unit.run = [i]() {
      if (i == 3) return Status::IoError("unit 3 failed");
      if (i == 7) return Status::Internal("unit 7 failed");
      return Status::Ok();
    };
    unit.emit = [i, &emitted]() {
      emitted.push_back(i);
      return Status::Ok();
    };
    units.push_back(std::move(unit));
  }
  Status status = scheduler.Execute(units);
  EXPECT_EQ(status.code(), StatusCode::kIoError);  // unit 3, not unit 7
  ASSERT_EQ(emitted.size(), 3u);  // 0, 1, 2 emitted; nothing after the error
}

TEST(ParallelScheduler, OversizeUnitStillAdmittedWhenWindowEmpty) {
  ThreadPool pool(2);
  ParallelScheduler scheduler(&pool, /*max_inflight_cost=*/10);
  std::vector<int> emitted;
  std::vector<ScheduledUnit> units;
  for (int i = 0; i < 6; ++i) {
    ScheduledUnit unit;
    unit.cost = 1000;  // every unit alone exceeds the window
    unit.run = []() { return Status::Ok(); };
    unit.emit = [i, &emitted]() {
      emitted.push_back(i);
      return Status::Ok();
    };
    units.push_back(std::move(unit));
  }
  EXPECT_TRUE(scheduler.Execute(units).ok());
  ASSERT_EQ(emitted.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(emitted[i], i);
}

TEST(ParallelScheduler, NullPoolRunsEverythingInline) {
  ParallelScheduler scheduler(nullptr, 1);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<int> emitted;
  bool wrong_thread = false;
  std::vector<ScheduledUnit> units;
  for (int i = 0; i < 5; ++i) {
    ScheduledUnit unit;
    unit.run = [caller, &wrong_thread]() {
      if (std::this_thread::get_id() != caller) wrong_thread = true;
      return Status::Ok();
    };
    unit.emit = [i, &emitted]() {
      emitted.push_back(i);
      return Status::Ok();
    };
    units.push_back(std::move(unit));
  }
  EXPECT_TRUE(scheduler.Execute(units).ok());
  EXPECT_FALSE(wrong_thread);
  ASSERT_EQ(emitted.size(), 5u);
}

}  // namespace
}  // namespace iolap
