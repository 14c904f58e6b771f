#include "dataflow/event_log.h"

#include <algorithm>

#include "common/logging.h"

namespace streamline {

EventLog::EventLog(int num_partitions) {
  STREAMLINE_CHECK_GT(num_partitions, 0);
  partitions_.resize(num_partitions);
}

uint64_t EventLog::Append(int partition, Record record) {
  MutexLock lock(&mu_);
  STREAMLINE_CHECK(!closed_) << "append to closed log";
  STREAMLINE_CHECK_GE(partition, 0);
  STREAMLINE_CHECK_LT(partition, static_cast<int>(partitions_.size()));
  auto& records = partitions_[partition].records;
  STREAMLINE_DCHECK(records.empty() ||
                    records.back().timestamp <= record.timestamp)
      << "per-partition appends must be timestamp-ordered";
  records.push_back(std::move(record));
  return records.size() - 1;
}

uint64_t EventLog::AppendByKey(size_t key_field, Record record) {
  const int partition = static_cast<int>(record.field(key_field).Hash() %
                                         partitions_.size());
  return Append(partition, std::move(record));
}

uint64_t EventLog::EndOffset(int partition) const {
  MutexLock lock(&mu_);
  STREAMLINE_CHECK_GE(partition, 0);
  STREAMLINE_CHECK_LT(partition, static_cast<int>(partitions_.size()));
  return partitions_[partition].records.size();
}

Result<bool> EventLog::ReadRange(int partition, uint64_t offset,
                                 size_t max_records,
                                 std::vector<Record>* out) const {
  MutexLock lock(&mu_);
  if (partition < 0 || partition >= static_cast<int>(partitions_.size())) {
    return Status::InvalidArgument(
        "partition " + std::to_string(partition) + " not in a log of " +
        std::to_string(partitions_.size()));
  }
  const auto& records = partitions_[partition].records;
  if (offset < records.size()) {
    const uint64_t n = std::min<uint64_t>(max_records, records.size() - offset);
    out->insert(out->end(), records.begin() + offset,
                records.begin() + offset + n);
    offset += n;
  }
  return closed_ && offset >= records.size();
}

Result<Record> EventLog::Read(int partition, uint64_t offset) const {
  std::vector<Record> one;
  Result<bool> read = ReadRange(partition, offset, 1, &one);
  if (!read.ok()) return read.status();
  if (one.empty()) {
    return Status::NotFound("offset " + std::to_string(offset) +
                            " past end of partition " +
                            std::to_string(partition));
  }
  return std::move(one.front());
}

void EventLog::Close() {
  MutexLock lock(&mu_);
  closed_ = true;
}

// ---------------------------------------------------------------------------
// LogSource

LogSource::LogSource(std::shared_ptr<EventLog> log, int subtask,
                     int parallelism, uint64_t watermark_every)
    : log_(std::move(log)), subtask_(subtask), parallelism_(parallelism),
      watermark_every_(watermark_every) {
  for (int p = subtask_; p < log_->num_partitions(); p += parallelism_) {
    my_partitions_.push_back(p);
  }
  offsets_.assign(my_partitions_.size(), 0);
  last_ts_.assign(my_partitions_.size(), kMinTimestamp);
  ahead_.resize(my_partitions_.size());
}

Result<SourcePoll> LogSource::Poll(SourceContext* ctx) {
  // Records copied per ReadRange: one log lock per this many records.
  constexpr size_t kReadAheadChunk = 256;
  // Refill every drained read-ahead that may still grow, from the first
  // unemitted offset.
  bool all_exhausted = true;
  for (size_t i = 0; i < ahead_.size(); ++i) {
    ReadAhead& a = ahead_[i];
    if (a.drained() && !a.final) {
      a.records.clear();
      a.next = 0;
      a.base = offsets_[i];
      Result<bool> final = log_->ReadRange(my_partitions_[i], a.base,
                                           kReadAheadChunk, &a.records);
      if (!final.ok()) return final.status();
      a.final = *final;
    }
    all_exhausted = all_exhausted && a.final && a.drained();
  }
  if (all_exhausted) return SourcePoll::kExhausted;

  // Stage up to one batch, cut at the watermark cadence, merging the
  // read-aheads exactly as a one-record-per-poll source would: the
  // smallest head timestamp first, ties to the lowest partition index.
  const uint64_t until_wm =
      watermark_every_ > 0 ? watermark_every_ - emitted_ % watermark_every_ : 0;
  uint64_t span = ctx->PreferredBatchSize();
  if (watermark_every_ > 0) span = std::min(span, until_wm);
  staged_last_ts_ = last_ts_;
  while (scratch_.size() < span) {
    int best = -1;
    Timestamp best_ts = kMaxTimestamp;
    for (size_t i = 0; i < ahead_.size(); ++i) {
      const ReadAhead& a = ahead_[i];
      if (!a.drained() && a.records[a.next].timestamp < best_ts) {
        best_ts = a.records[a.next].timestamp;
        best = static_cast<int>(i);
      }
    }
    if (best == -1) break;
    ReadAhead& a = ahead_[best];
    staged_last_ts_[best] = best_ts;
    scratch_.push_back(std::move(a.records[a.next++]));
    // Records may still be appended behind a partition that is not known
    // to be final, so merging past it would order by a stale head: stop
    // and refill on the next poll.
    if (a.drained() && !a.final) break;
  }
  const uint64_t n = scratch_.size();
  // Open log with no data available yet: the runtime re-polls after a
  // short delay (and keeps servicing checkpoint barriers while idle).
  if (n == 0) return SourcePoll::kIdle;

  // Hand over first, advance after: a barrier snapshot taken inside
  // EmitBatch must record these records as not yet consumed, so a restored
  // source re-reads exactly the unemitted suffix.
  if (!ctx->EmitBatch(std::move(scratch_))) return SourcePoll::kExhausted;
  for (size_t i = 0; i < ahead_.size(); ++i) {
    offsets_[i] = ahead_[i].base + ahead_[i].next;
  }
  last_ts_.swap(staged_last_ts_);
  emitted_ += n;
  if (watermark_every_ > 0 && n == until_wm) {
    // Conservative per-partition watermark: future records of partition
    // i have ts >= last_ts_[i] (appends are ordered), so the subtask
    // watermark is the minimum over its non-exhausted partitions.
    Timestamp wm = kMaxTimestamp;
    for (size_t i = 0; i < ahead_.size(); ++i) {
      if (!(ahead_[i].final && ahead_[i].drained())) {
        wm = std::min(wm, last_ts_[i]);
      }
    }
    if (wm != kMaxTimestamp && wm != kMinTimestamp) {
      ctx->EmitWatermark(wm);
    }
  }
  return SourcePoll::kHasMore;
}

Status LogSource::SnapshotState(BinaryWriter* w) const {
  w->WriteU64(offsets_.size());
  for (uint64_t off : offsets_) w->WriteU64(off);
  return Status::Ok();
}

Status LogSource::RestoreState(BinaryReader* r) {
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  if (*n != offsets_.size()) {
    return Status::FailedPrecondition("partition assignment mismatch");
  }
  for (size_t i = 0; i < offsets_.size(); ++i) {
    auto off = r->ReadU64();
    if (!off.ok()) return off.status();
    offsets_[i] = *off;
  }
  // Drop any read-ahead: it was read from the old offsets.
  ahead_.assign(ahead_.size(), ReadAhead());
  return Status::Ok();
}

std::string LogSource::Name() const {
  return "log-source[" + std::to_string(subtask_) + "/" +
         std::to_string(parallelism_) + "]";
}

SourceFactory LogSource::Factory(std::shared_ptr<EventLog> log,
                                 uint64_t watermark_every) {
  return [log, watermark_every](
             int subtask, int parallelism) -> std::unique_ptr<SourceFunction> {
    return std::make_unique<LogSource>(log, subtask, parallelism,
                                       watermark_every);
  };
}

}  // namespace streamline
