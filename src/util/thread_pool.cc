#include "util/thread_pool.h"

#include <mutex>
#include <string>

#include "util/faultinject.h"

namespace sash::util {

ThreadPool::ThreadPool(int threads, obs::Hooks hooks) : hooks_(hooks) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) {
      threads = 1;
    }
  }
  if (hooks_.metrics != nullptr) {
    queue_gauge_ = hooks_.metrics->gauge("pool.queue_depth");
  }
  threads_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<obs::ProfiledMutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  int64_t depth;
  {
    std::lock_guard<obs::ProfiledMutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++pending_;
    depth = static_cast<int64_t>(queue_.size());
  }
  if (queue_gauge_ != nullptr) {
    queue_gauge_->Set(depth);
  }
  if (hooks_.journal != nullptr) {
    hooks_.journal->Emit(obs::EventKind::kQueueDepth, "pool.queue", depth);
  }
  work_cv_.notify_one();
}

// Takes the task by value so it (and everything it captured) is destroyed
// before the caller marks it finished: Wait() may return right after.
void ThreadPool::RunTask(int index, int64_t depth, std::function<void()> task) {
  if (FaultInjector::enabled()) {
    // Chaos harness: a pool.task rule stalls the worker before it runs
    // the task, simulating a slow/starved core. Results must not change.
    FaultInjector::ApplyDelay(FaultInjector::Check(FaultSite::kPoolTask, "worker"));
  }
  if (hooks_.journal == nullptr && hooks_.tracer == nullptr) {
    task();
    return;
  }
  if (hooks_.journal != nullptr) {
    hooks_.journal->Emit(obs::EventKind::kTaskStart, "pool.task", index, depth);
  }
  obs::StopWatch watch;
  {
    obs::Span span(hooks_.tracer, "task");
    task();
  }
  if (hooks_.journal != nullptr) {
    hooks_.journal->Emit(obs::EventKind::kTaskStop, "pool.task", index, watch.ElapsedMicros());
  }
}

void ThreadPool::WorkerLoop(int index) {
  if (hooks_.tracer != nullptr) {
    hooks_.tracer->SetThreadName(obs::CurrentThreadId(), "worker-" + std::to_string(index));
  }
  for (;;) {
    std::function<void()> task;
    int64_t depth;
    {
      std::unique_lock<obs::ProfiledMutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shut down with nothing left to run.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = static_cast<int64_t>(queue_.size());
    }
    if (queue_gauge_ != nullptr) {
      queue_gauge_->Set(depth);
    }
    RunTask(index, depth, std::move(task));
    std::lock_guard<obs::ProfiledMutex> lock(mu_);
    if (--pending_ == 0) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::Wait() {
  // Workers decrement pending_ only after the task body returns, so
  // pending_ == 0 means "all queued and running work is finished".
  std::unique_lock<obs::ProfiledMutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace sash::util
