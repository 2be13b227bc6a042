#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <utility>

namespace rdfsum::util {

uint32_t AvailableCpuCount() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<uint32_t>(CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(uint32_t num_threads) {
  const uint32_t n = num_threads != 0 ? num_threads : AvailableCpuCount();
  queues_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    stop_ = true;
  }
  idle_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Any task still queued here was submitted by a TaskGroup that never
  // waited — run it now so its Finish() fires and no waiter hangs.
  for (uint32_t i = 0; i < queues_.size(); ++i) {
    Task task;
    while (Pop(i, &task)) RunTask(std::move(task));
  }
}

ThreadPool& ThreadPool::Shared() {
  // Intentionally leaked: worker threads must never outlive their pool, and
  // static destruction order across translation units cannot guarantee that.
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

void ThreadPool::Submit(Task task) {
  const uint32_t q = static_cast<uint32_t>(
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size());
  // The pending count rises before the task becomes poppable: a dequeue's
  // matching decrement can then never run first and underflow the counter.
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    ++pending_;
  }
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  idle_cv_.notify_one();
}

bool ThreadPool::Pop(uint32_t self, Task* out) {
  const uint32_t n = static_cast<uint32_t>(queues_.size());
  // Own deque back (LIFO), then steal the oldest task from the others.
  if (self < n) {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *out = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (i == self) continue;
    WorkerQueue& victim = *queues_[i];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      *out = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::RunTask(Task task) {
  task.fn();
  task.group->Finish();
}

bool ThreadPool::RunOne(uint32_t self) {
  Task task;
  if (!Pop(self, &task)) return false;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    --pending_;
  }
  RunTask(std::move(task));
  return true;
}

bool ThreadPool::RunOneFromGroup(TaskGroup* group) {
  Task task;
  bool found = false;
  for (auto& queue : queues_) {
    std::lock_guard<std::mutex> lock(queue->mu);
    for (auto it = queue->tasks.begin(); it != queue->tasks.end(); ++it) {
      if (it->group == group) {
        task = std::move(*it);
        queue->tasks.erase(it);
        found = true;
        break;
      }
    }
    if (found) break;
  }
  if (!found) return false;
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    --pending_;
  }
  RunTask(std::move(task));
  return true;
}

void ThreadPool::WorkerLoop(uint32_t self) {
  for (;;) {
    if (RunOne(self)) continue;
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (stop_ && pending_ == 0) return;
  }
}

void TaskGroup::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  pool_.Submit(ThreadPool::Task{std::move(fn), this});
}

void TaskGroup::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--outstanding_ == 0) cv_.notify_all();
}

void TaskGroup::Wait() {
  // Helping step: run our own queued tasks inline. Everything this leaves
  // behind is already running on some worker, so the blocking wait below is
  // guaranteed to terminate (task bodies poll cancellation and fall
  // through — they never block indefinitely).
  while (pool_.RunOneFromGroup(this)) {
  }
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return outstanding_ == 0; });
}

}  // namespace rdfsum::util
