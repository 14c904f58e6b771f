#ifndef STREAMLINE_COMMON_THREAD_POOL_H_
#define STREAMLINE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace streamline {

class WorkStealingPool;

/// A unit of work repeatedly executed by a WorkStealingPool: one bounded
/// "morsel" per Step() call. The pool serializes execution -- at most one
/// worker runs a given Schedulable at any instant (run-once claiming via an
/// atomic state machine), and a Notify() arriving while Step() runs re-runs
/// it afterwards instead of being lost. That serialization is what lets a
/// task own single-threaded state (operator state, SPSC ring ends) while
/// migrating freely between workers: the claim/finish transitions are
/// acquire/release pairs, so each morsel happens-before the next.
class Schedulable {
 public:
  virtual ~Schedulable() = default;

  /// Executes one bounded morsel. Returns true when more work is
  /// immediately available (the pool requeues the task), false to go idle
  /// until the next Notify(). Must not throw: wrap user code and convert
  /// failures into task state.
  virtual bool Step() = 0;

  /// Raw scheduling state for diagnostics (stall dumps); racy by nature.
  uint32_t debug_sched_state() const {
    return sched_state_.load(std::memory_order_relaxed);
  }

 private:
  friend class WorkStealingPool;

  // Scheduling state machine (see WorkStealingPool::Notify).
  static constexpr uint32_t kIdle = 0;
  static constexpr uint32_t kQueued = 1;
  static constexpr uint32_t kRunning = 2;
  static constexpr uint32_t kRunningNotified = 3;
  std::atomic<uint32_t> sched_state_{kIdle};
};

/// Scheduler observability: monotone counters kept as plain atomics so the
/// hot path never touches the metrics registry; the executor exports them
/// as `scheduler.*` metrics.
struct SchedulerCounters {
  std::atomic<uint64_t> morsels_local{0};    // run from the worker's own deque
  std::atomic<uint64_t> morsels_stolen{0};   // run after stealing from a peer
  std::atomic<uint64_t> morsels_injected{0}; // run from the global queue
  // Always 0: nothing runs morsels inline any more. Kept only because the
  // engine benchmark (perfbench/streamline_bench.cc) reads it.
  std::atomic<uint64_t> morsels_inline{0};
  std::atomic<uint64_t> steals{0};           // successful steal operations
  std::atomic<uint64_t> parks{0};            // worker park events
  std::atomic<uint64_t> wakeups{0};          // NotifyOne calls on parked workers
  std::atomic<uint64_t> notifies{0};         // Notify() calls that enqueued
};

/// Fixed pool of worker threads executing Schedulable morsels: each worker
/// owns a deque of ready tasks, steals from peers when its own is empty,
/// and parks (1 ms timed backstop against lost wakeups) when nothing is
/// runnable anywhere. This is the engine's morsel-driven scheduler --
/// logical subtasks are multiplexed over a pool sized to the hardware
/// instead of getting dedicated OS threads -- and also the one sanctioned
/// home of raw std::thread (lint rule raw-thread).
///
/// A timer facility (one lazily started thread shared by all periodic
/// callbacks) replaces ad-hoc sleeper threads: checkpoint cadence and
/// idle-source re-polls run here.
class WorkStealingPool {
 public:
  struct Options {
    /// Worker count; 0 means std::thread::hardware_concurrency().
    size_t num_workers = 0;
  };

  explicit WorkStealingPool(Options options);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Makes `task` runnable (idempotent while already queued). Safe from
  /// any thread, including from inside another task's Step(). The state
  /// machine guarantees: a Notify never gets lost (one arriving during
  /// Step() re-queues the task afterwards) and a task never runs on two
  /// workers at once.
  void Notify(Schedulable* task);

  /// Runs `fn` every `period_ms` on the shared timer thread until
  /// cancelled; returns the timer id. Callbacks must be short (notify
  /// tasks, trigger coordinators) -- they all share one thread.
  uint64_t ScheduleRepeating(int64_t period_ms, std::function<void()> fn);
  void CancelTimer(uint64_t id);

  /// Stops the workers and the timer thread and joins them. Queued morsels
  /// that have not started are dropped -- their owners are being torn down
  /// with the pool. Idempotent; also run by the destructor.
  void Shutdown();

  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

  const SchedulerCounters& counters() const { return counters_; }
  /// Cumulative busy time of worker `i` (time spent inside Step calls).
  uint64_t WorkerBusyMicros(size_t i) const;
  /// Approximate number of queued (ready, unclaimed) tasks.
  size_t ApproxReadyDepth() const;
  /// Queue contents as task pointers, for stall dumps: "w0[0x... 0x...]
  /// g[0x...]". Racy by nature; diagnostics only.
  std::string DebugQueues();

 private:
  struct Worker {
    Mutex mu;
    std::deque<Schedulable*> deque STREAMLINE_GUARDED_BY(mu);
    // Stealers peek this without locking to skip empty victims.
    std::atomic<size_t> approx_size{0};
    std::atomic<uint64_t> busy_ns{0};
    // Owner-only acquisition counter driving the periodic global-queue
    // poll (see TryRunOneTask's fairness note).
    uint64_t tick = 0;
    // Stall-dump diagnostics: the task currently inside Step on this
    // worker (nullptr between morsels) and when it was claimed.
    std::atomic<Schedulable*> current{nullptr};
    std::atomic<uint64_t> current_since_ns{0};
    std::thread thread;
  };

  struct TimerEntry {
    uint64_t id = 0;
    int64_t period_ms = 0;
    std::chrono::steady_clock::time_point next;
    std::function<void()> fn;
  };

  void WorkerMain(size_t index);
  /// Claims and runs one ready task on the calling worker: own deque
  /// first, then the global queue, then stealing a peer's oldest task.
  /// Returns false when nothing was runnable.
  bool TryRunOneTask();
  void TimerMain();
  /// Puts an already-kQueued task on a run queue and wakes a parked
  /// worker. Called with no locks held. `to_front` selects the hot (LIFO)
  /// end of the caller's deque; requeues after a morsel go to the back.
  void Enqueue(Schedulable* task, bool to_front);
  void WakeOne();
  void WakeAllForShutdown();
  /// CAS-claims a queued task and runs one morsel; false on a stale queue
  /// entry (the task was claimed elsewhere since it was enqueued).
  bool ClaimAndRun(Schedulable* task, std::atomic<uint64_t>* morsel_counter);
  /// Step + finish protocol (requeue on more-work or missed notify).
  void RunClaimed(Schedulable* task);
  void EnsureTimerThreadLocked() STREAMLINE_REQUIRES(timer_mu_);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> shutdown_{false};

  // Global injection queue: Notify from threads outside the pool.
  Mutex global_mu_;
  std::deque<Schedulable*> global_ STREAMLINE_GUARDED_BY(global_mu_);
  std::atomic<size_t> global_size_{0};

  // Worker parking. The atomic mirror lets WakeOne skip the mutex when
  // nobody is parked (the common case).
  Mutex park_mu_;
  CondVar park_cv_;
  size_t num_parked_ STREAMLINE_GUARDED_BY(park_mu_) = 0;
  std::atomic<int> num_parked_approx_{0};

  // Timer facility (lazy thread).
  Mutex timer_mu_;
  CondVar timer_cv_;
  std::vector<TimerEntry> timers_ STREAMLINE_GUARDED_BY(timer_mu_);
  uint64_t next_timer_id_ STREAMLINE_GUARDED_BY(timer_mu_) = 1;
  bool timer_thread_started_ STREAMLINE_GUARDED_BY(timer_mu_) = false;
  std::thread timer_thread_;

  SchedulerCounters counters_;
};

}  // namespace streamline

#endif  // STREAMLINE_COMMON_THREAD_POOL_H_
