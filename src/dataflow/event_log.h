#ifndef STREAMLINE_DATAFLOW_EVENT_LOG_H_
#define STREAMLINE_DATAFLOW_EVENT_LOG_H_

#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dataflow/source.h"

namespace streamline {

/// In-memory partitioned, append-only, replayable record log -- the
/// stand-in for the durable message broker (Kafka et al.) a production
/// STREAMLINE deployment would ingest from. Producers append to
/// partitions; any number of readers consume by (partition, offset), so
/// sources are replayable and their offsets are the natural checkpoint
/// state. Thread-safe; appends while a job reads model live ingestion.
class EventLog {
 public:
  explicit EventLog(int num_partitions);

  int num_partitions() const { return static_cast<int>(partitions_.size()); }

  /// Appends to an explicit partition; returns the record's offset.
  uint64_t Append(int partition, Record record);
  /// Appends partitioned by key hash (field `key_field`).
  uint64_t AppendByKey(size_t key_field, Record record);

  /// Number of records currently in `partition` (which must exist).
  uint64_t EndOffset(int partition) const;

  /// Copies up to `max_records` records of `partition`, starting at
  /// `offset`, onto the end of `*out` under a single lock acquisition.
  /// Returns whether the copied range reaches the end of a closed
  /// partition (nothing will ever follow it); InvalidArgument for a
  /// partition the log does not have.
  Result<bool> ReadRange(int partition, uint64_t offset, size_t max_records,
                         std::vector<Record>* out) const;

  /// Reads the record at (partition, offset); NotFound past the end,
  /// InvalidArgument for a partition the log does not have.
  Result<Record> Read(int partition, uint64_t offset) const;

  /// Marks the log finished: sources drain to the end offsets and stop
  /// (bounded semantics). Without this, sources idle-wait for appends.
  void Close();

 private:
  struct Partition {
    std::vector<Record> records;
  };

  mutable Mutex mu_;
  std::vector<Partition> partitions_ STREAMLINE_GUARDED_BY(mu_);
  bool closed_ STREAMLINE_GUARDED_BY(mu_) = false;
};

/// Source reading one or more partitions of an EventLog. Each source
/// subtask owns the partitions `p` with `p % parallelism == subtask`; its
/// per-partition offsets are checkpointed, giving parallel exactly-once
/// ingestion. Each partition is read a span at a time: one ReadRange fills
/// a per-partition read-ahead buffer, and each poll merges the buffers
/// (smallest head timestamp first, ties to the lowest partition) into one
/// batch handed to the engine, so the log's lock is taken once per span
/// rather than per record. The read-ahead is not checkpointed: offsets
/// advance only once a batch has been handed over, and a restored source
/// re-reads from them. Reading an open log idles until data arrives or the
/// log closes; a closed log makes the job bounded.
class LogSource : public SourceFunction {
 public:
  LogSource(std::shared_ptr<EventLog> log, int subtask, int parallelism,
            uint64_t watermark_every = 64);

  Result<SourcePoll> Poll(SourceContext* ctx) override;
  Status SnapshotState(BinaryWriter* w) const override;
  Status RestoreState(BinaryReader* r) override;
  std::string Name() const override;

  static SourceFactory Factory(std::shared_ptr<EventLog> log,
                               uint64_t watermark_every = 64);

 private:
  // Copies of a partition's records at offsets [base, base + size).
  struct ReadAhead {
    std::vector<Record> records;
    uint64_t base = 0;
    size_t next = 0;     // first record not yet staged
    bool final = false;  // records run to the end of a closed partition
    bool drained() const { return next == records.size(); }
  };

  std::shared_ptr<EventLog> log_;
  int subtask_;
  int parallelism_;
  uint64_t watermark_every_;
  std::vector<int> my_partitions_;
  std::vector<uint64_t> offsets_;  // parallel to my_partitions_
  // Poll-local merge state (not checkpointed: watermark cadence restarts
  // after a restore, which only delays the next watermark).
  std::vector<Timestamp> last_ts_;  // parallel to my_partitions_
  uint64_t emitted_ = 0;
  std::vector<ReadAhead> ahead_;  // parallel to my_partitions_
  // Reused batch staging buffer and the last_ts_ it will set once emitted.
  std::vector<Record> scratch_;
  std::vector<Timestamp> staged_last_ts_;
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_EVENT_LOG_H_
