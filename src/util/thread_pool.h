#ifndef RDFSUM_UTIL_THREAD_POOL_H_
#define RDFSUM_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rdfsum::util {

class TaskGroup;

/// The number of CPUs the calling thread may run on: the size of its
/// affinity mask (sched_getaffinity), falling back to
/// std::thread::hardware_concurrency() where there is no mask; at least 1.
/// This is what every "0 = all cores" thread count resolves to, so a
/// process pinned to one CPU runs one worker, not one per host core.
uint32_t AvailableCpuCount();

/// Process-wide work-stealing task pool. One pool (ThreadPool::Shared(),
/// lazily constructed and sized to the CPUs it may use) runs the query
/// morsels, so concurrent requests share one set of OS threads instead of
/// each spawning their own.
///
/// Structure: one deque per worker, each guarded by its own mutex. A worker
/// pops its own deque from the back (LIFO — the task it submitted last is
/// the one whose data is hottest) and, when empty, steals from the other
/// deques' fronts (FIFO — the oldest task is the least likely to be cache-
/// resident anywhere). Submission round-robins across deques. All queue
/// access is mutex-guarded, so the pool is race-free by construction — the
/// TSan wall runs the parallel differential tests over it.
///
/// Tasks are submitted through a TaskGroup, never directly: the group is
/// the join. TaskGroup::Wait() first *helps* — it pulls the group's own
/// not-yet-started tasks out of the deques and runs them on the calling
/// thread — and only then blocks for tasks already running elsewhere. The
/// helping step is what makes nested parallelism (a pool task that itself
/// fans out, e.g. a partitioned hash build started from a morsel task)
/// deadlock-free: a waiter always makes progress on its own work even when
/// every pool worker is busy or the pool is smaller than the fan-out.
///
/// Cancellation contract (same as CancellableChunks): the pool never
/// observes ExecContexts itself — task *bodies* poll and return early, so a
/// cancelled run's tasks finish fast and Wait() falls through its join
/// rather than blocking on work that will never complete.
class ThreadPool {
 public:
  /// A pool with `num_threads` workers (0 = AvailableCpuCount()).
  explicit ThreadPool(uint32_t num_threads);

  /// Stops the workers and joins them. Outstanding tasks are completed
  /// first (TaskGroup waits make this moot in practice).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, created on first use with one worker per CPU
  /// the creating thread may run on. Never destroyed (intentionally
  /// leaked) so worker threads can never race static destruction at exit.
  static ThreadPool& Shared();

  uint32_t size() const { return static_cast<uint32_t>(workers_.size()); }

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  struct WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  /// Enqueues one task (round-robin across worker deques) and wakes a
  /// sleeper. Only TaskGroup::Submit calls this.
  void Submit(Task task);

  /// Dequeues and runs one task: own deque back first, then steal scan.
  /// Returns false when every deque was empty.
  bool RunOne(uint32_t self);

  /// Dequeues and runs one task belonging to `group`, scanning every deque
  /// front to back. Returns false when none of `group`'s tasks are queued
  /// (they are all running or finished). This is Wait()'s helping step.
  bool RunOneFromGroup(TaskGroup* group);

  /// Pops one task: the caller's own deque from the back when `self` is a
  /// worker index, else steals the oldest task from any deque.
  bool Pop(uint32_t self, Task* out);

  void WorkerLoop(uint32_t self);
  void RunTask(Task task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<uint64_t> next_queue_{0};

  // Sleep/wake state: `pending_` counts queued (not yet dequeued) tasks and
  // is only touched under `idle_mu_`, so a submit can never slip between a
  // sleeper's predicate check and its wait.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  uint64_t pending_ = 0;
  bool stop_ = false;
};

/// A join scope for pool tasks: Submit() hands closures to the pool,
/// Wait() (also run by the destructor) returns once every submitted task
/// has finished — helping to run the group's still-queued tasks on the
/// calling thread first. Groups are cheap; create one per parallel region.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}

  /// Waits for all submitted tasks (so closures may safely capture the
  /// caller's stack by reference).
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<void()> fn);

  /// Blocks until every task submitted so far has finished. Runs the
  /// group's queued tasks inline before sleeping (see ThreadPool docs).
  void Wait();

 private:
  friend class ThreadPool;

  /// Called by the pool after a task body returns.
  void Finish();

  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t outstanding_ = 0;
};

}  // namespace rdfsum::util

#endif  // RDFSUM_UTIL_THREAD_POOL_H_
