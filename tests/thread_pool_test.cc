#include "exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

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

}  // namespace
}  // namespace iolap
