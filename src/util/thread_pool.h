// A FIFO thread pool for the batch analysis driver and the resident server.
// Every task goes through one queue under one mutex, and workers take the
// oldest task first, so files and requests start in the order they were
// submitted.
//
//   sash::util::ThreadPool pool(8);
//   for (auto& file : files) pool.Submit([&] { Analyze(file); });
//   pool.Wait();                                // all submitted work done
//
// Submit is callable from pool threads too. Wait only returns when every
// task — including tasks submitted by tasks — has finished.
//
// With observability hooks attached the pool reports its own scheduling:
// the queue lock is a ProfiledMutex site ("pool.queue"), each task
// start/stop and queue-depth change lands in the event journal, every task
// runs under a tracer span in its worker's named lane, and the
// "pool.queue_depth" gauge tracks backlog.
#ifndef SASH_UTIL_THREAD_POOL_H_
#define SASH_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace sash::util {

class ThreadPool {
 public:
  // `threads` <= 0 selects the hardware concurrency (at least 1). `hooks`
  // members may each be null; a default Hooks disables all telemetry.
  explicit ThreadPool(int threads, obs::Hooks hooks = {});
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  // Blocks until every submitted task has completed. Safe to call repeatedly;
  // new work may be submitted afterwards.
  void Wait();

  int size() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop(int index);
  void RunTask(int index, int64_t depth, std::function<void()> task);

  std::vector<std::thread> threads_;

  obs::Hooks hooks_;
  obs::Gauge* queue_gauge_ = nullptr;  // Hoisted "pool.queue_depth" handle.

  obs::ProfiledMutex mu_{"pool.queue"};
  // _any variants because mu_ is a ProfiledMutex, not a std::mutex.
  std::condition_variable_any work_cv_;  // Signaled on submit and shutdown.
  std::condition_variable_any done_cv_;  // Signaled when pending reaches zero.
  std::deque<std::function<void()>> queue_;  // Oldest first.
  int64_t pending_ = 0;                      // Submitted but not yet finished.
  bool shutdown_ = false;
};

}  // namespace sash::util

#endif  // SASH_UTIL_THREAD_POOL_H_
