#ifndef STREAMLINE_DATAFLOW_EXECUTOR_H_
#define STREAMLINE_DATAFLOW_EXECUTOR_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "dataflow/graph.h"
#include "dataflow/snapshot.h"

namespace streamline {

namespace internal {
class Task;
}  // namespace internal

/// Execution knobs of a job.
struct JobOptions {
  /// Worker threads of the scheduler pool that multiplexes every task;
  /// 0 = hardware_concurrency().
  size_t worker_threads = 0;
  /// Event capacity of each input channel. Every (upstream subtask,
  /// downstream subtask) pair gets its own single-producer/single-consumer
  /// ring of this many events (an event is usually a whole record batch).
  /// A full ring stalls its producer task -- the event waits in the task's
  /// overflow queue and the task consumes no input until it drains --
  /// which is the engine's backpressure mechanism. Rounded up to a power
  /// of two.
  size_t channel_capacity = 256;
  /// Records buffered per output channel before a batch is shipped
  /// ("network buffers"); watermarks, barriers and end-of-stream flush
  /// eagerly, so batching never delays control events. 1 disables batching.
  size_t batch_size = 256;
  /// Periodic checkpointing interval; 0 disables the timer (explicit
  /// TriggerCheckpoint still works when a snapshot store exists).
  int64_t checkpoint_interval_ms = 0;
  /// Snapshot backend; shared across jobs to support restore. When null and
  /// checkpointing is used, the job creates a private store.
  std::shared_ptr<SnapshotStore> snapshot_store;
  /// Restore all task state from this checkpoint id before starting
  /// (requires the same graph shape and parallelism). 0 = fresh start.
  uint64_t restore_from_checkpoint = 0;
  /// Changelog-based incremental checkpoints: keyed operators append
  /// per-key deltas to a write-ahead changelog between barriers and a
  /// barrier seals the segment instead of re-serializing the full state.
  /// Requires `snapshot_store` to be an IncrementalSnapshotStore; operators
  /// that do not support deltas keep taking full snapshots.
  bool incremental_checkpoints = false;
  /// Once a key group's changelog chain (deltas since its last base)
  /// exceeds this many bytes, the next barrier writes a compacted full
  /// base instead of another delta.
  size_t changelog_compaction_bytes = 4u << 20;
  /// Deterministic fault injection for chaos testing. Sites are
  /// "source:<node name>" and "op:<node name>"; a fired fault behaves
  /// exactly like user code failing at that point. Shared across restarts
  /// so one-shot faults do not re-fire after recovery. Null = no faults.
  std::shared_ptr<FaultInjector> fault_injector;
};

/// A deployed dataflow job: its physical tasks multiplexed over one
/// work-stealing worker pool, bounded channels with backpressure between
/// them. The same Job runs bounded inputs ("data at rest": Run() returns
/// when every source is exhausted) and unbounded inputs ("data in motion":
/// run until Cancel()) -- the paper's single pipelined engine for both.
class Job {
 public:
  ~Job();

  /// Builds the physical plan (chaining, channel wiring, restore) from a
  /// validated logical graph.
  static Result<std::unique_ptr<Job>> Create(const LogicalGraph& graph,
                                             JobOptions options = JobOptions());

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  /// Schedules every task on the worker pool.
  Status Start();
  /// Blocks until every task finished (end of bounded input, after
  /// Cancel(), or after a task failure). Returns the first task failure --
  /// an error Status returned by user code or an exception it threw -- or
  /// Ok on a clean run. A failure cancels the whole job.
  Status AwaitCompletion();
  /// Start + AwaitCompletion.
  Status Run();
  /// Asks sources to stop; the pipeline drains and completes.
  void Cancel();

  /// Checkpointing (asynchronous barrier snapshotting).
  uint64_t TriggerCheckpoint();
  bool AwaitCheckpoint(uint64_t id, double timeout_seconds = 30.0);
  uint64_t LatestCompletedCheckpoint() const;
  SnapshotStore* snapshot_store() const { return snapshot_store_.get(); }

  /// Number of physical tasks after chaining.
  size_t num_tasks() const;
  /// Human-readable physical plan (one line per task).
  std::string PlanDescription() const;
  /// Job-scoped metrics (task record counters etc.).
  MetricsRegistry* metrics() { return &metrics_; }
  /// The worker pool executing this job's tasks and timers. Valid for the
  /// job's lifetime.
  const WorkStealingPool* scheduler() const { return pool_.get(); }

  /// First task failure so far (Ok if none). Thread-safe.
  Status FirstFailure() const;

 private:
  Job() = default;

  friend class internal::Task;

  /// Called from a failing task's morsel: records the first failure and
  /// cancels the job so the pipeline drains.
  void ReportTaskFailure(const std::string& task_name, const Status& status);

  /// Called by a task's final morsel: decrements the live count and wakes
  /// AwaitCompletion.
  void TaskFinished();
  /// Periodic checkpoint trigger (pool timer thread).
  void CheckpointTick();
  /// Copies scheduler counters/gauges into the job metrics registry.
  void ExportSchedulerMetrics();

  JobOptions options_;
  std::shared_ptr<SnapshotStore> snapshot_store_;
  std::unique_ptr<CheckpointCoordinator> coordinator_;
  std::vector<std::unique_ptr<internal::Task>> tasks_;
  // The scheduler (worker pool + timer facility). Declared after tasks_ so
  // it is destroyed (workers joined) first.
  std::unique_ptr<WorkStealingPool> pool_;
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> finished_{false};
  mutable Mutex failure_mu_;
  Status first_failure_ STREAMLINE_GUARDED_BY(failure_mu_);
  // Completion tracking: tasks finish on pool workers, and
  // AwaitCompletion waits on a condvar for the live count to reach zero.
  mutable Mutex done_mu_;
  CondVar done_cv_;
  size_t live_tasks_ STREAMLINE_GUARDED_BY(done_mu_) = 0;
  uint64_t checkpoint_timer_id_ = 0;
  uint64_t source_poll_timer_id_ = 0;
  // Checkpoint-tick state (timer thread only).
  uint64_t last_cp_id_ = 0;
  std::chrono::steady_clock::time_point last_cp_time_;
  std::chrono::steady_clock::time_point start_time_;
  MetricsRegistry metrics_;
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_EXECUTOR_H_
