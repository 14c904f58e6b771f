#include "dataflow/operators.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace streamline {

// ---------------------------------------------------------------------------
// KeyedReduceOperator

Status KeyedReduceOperator::Open(const OperatorContext& ctx) {
  state_.BindGauges(ctx);
  return Status::Ok();
}

const Record& KeyedReduceOperator::Reduce(Record&& record) {
  // Hash-once: the shuffle stamped the key hash; records driven in directly
  // (tests) fall back to hashing here.
  const Value key = key_(record);
  const uint64_t hash =
      record.has_key_hash() ? record.key_hash : KeyHashOf(key);
  auto [entry, inserted] = state_.Emplace(key, hash, std::move(record));
  if (!inserted) {
    Record reduced = reduce_(entry->second, record);
    reduced.timestamp = std::max(entry->second.timestamp, record.timestamp);
    entry->second = std::move(reduced);
  }
  return entry->second;
}

void KeyedReduceOperator::ProcessRecord(int, Record&& record,
                                        Collector* out) {
  out->Emit(Record(Reduce(std::move(record))));
}

/// In place: each record is replaced by its key's updated accumulator.
void KeyedReduceOperator::ProcessBatch(int, std::vector<Record>&& batch,
                                       Collector* out) {
  // Copy-assignment reuses the input record's field storage when the key
  // already had an accumulator (Reduce only reads the record then).
  for (Record& record : batch) record = Reduce(std::move(record));
  out->EmitBatch(std::move(batch));
}

void KeyedReduceOperator::ProcessWatermark(Timestamp, Collector*) {
  state_.UpdateGauges();
}

// ---------------------------------------------------------------------------
// IntervalJoinOperator

IntervalJoinOperator::IntervalJoinOperator(std::string name,
                                           KeySelector left_key,
                                           KeySelector right_key,
                                           Duration lower, Duration upper)
    : name_(std::move(name)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      lower_(lower),
      upper_(upper),
      state_(name_, KeyBuffersCodec{}) {
  STREAMLINE_CHECK_LE(lower_, upper_);
}

Status IntervalJoinOperator::Open(const OperatorContext& ctx) {
  state_.BindGauges(ctx);
  return Status::Ok();
}

void IntervalJoinOperator::EmitJoined(const Record& l, const Record& r,
                                      Collector* out) const {
  Record joined;
  joined.timestamp = std::max(l.timestamp, r.timestamp);
  joined.fields.reserve(l.fields.size() + r.fields.size());
  joined.fields.insert(joined.fields.end(), l.fields.begin(), l.fields.end());
  joined.fields.insert(joined.fields.end(), r.fields.begin(), r.fields.end());
  out->Emit(std::move(joined));
}

void IntervalJoinOperator::ProcessRecord(int input, Record&& record,
                                         Collector* out) {
  if (input == 0) {
    const Value key = left_key_(record);
    const uint64_t hash =
        record.has_key_hash() ? record.key_hash : KeyHashOf(key);
    KeyBuffers& buf = state_.Emplace(key, hash).first->second;
    // Match against buffered right records: r.ts - l.ts in [lower, upper].
    for (const Record& r : buf.right) {
      const Duration d = r.timestamp - record.timestamp;
      if (d >= lower_ && d <= upper_) EmitJoined(record, r, out);
    }
    buf.left.push_back(std::move(record));
  } else {
    const Value key = right_key_(record);
    const uint64_t hash =
        record.has_key_hash() ? record.key_hash : KeyHashOf(key);
    KeyBuffers& buf = state_.Emplace(key, hash).first->second;
    for (const Record& l : buf.left) {
      const Duration d = record.timestamp - l.timestamp;
      if (d >= lower_ && d <= upper_) EmitJoined(l, record, out);
    }
    buf.right.push_back(std::move(record));
  }
}

void IntervalJoinOperator::ProcessWatermark(Timestamp wm, Collector*) {
  // A left record l can still match future rights r (r.ts >= wm) iff
  // l.ts + upper >= wm; a right record r can still match future lefts iff
  // r.ts - lower >= wm. Evict the rest.
  for (auto it = state_.begin(); it != state_.end();) {
    KeyBuffers& buf = it->second;
    const size_t before = buf.left.size() + buf.right.size();
    while (!buf.left.empty() &&
           (wm != kMaxTimestamp && buf.left.front().timestamp + upper_ < wm)) {
      buf.left.pop_front();
    }
    while (!buf.right.empty() &&
           (wm != kMaxTimestamp &&
            buf.right.front().timestamp - lower_ < wm)) {
      buf.right.pop_front();
    }
    if (wm == kMaxTimestamp || (buf.left.empty() && buf.right.empty())) {
      it = state_.Erase(it);
    } else {
      if (buf.left.size() + buf.right.size() != before) state_.Touch(*it);
      ++it;
    }
  }
  state_.UpdateGauges();
}

void IntervalJoinOperator::KeyBuffersCodec::Write(const KeyBuffers& buf,
                                                  BinaryWriter* w) const {
  w->WriteU64(buf.left.size());
  for (const Record& rec : buf.left) w->WriteRecord(rec);
  w->WriteU64(buf.right.size());
  for (const Record& rec : buf.right) w->WriteRecord(rec);
}

Status IntervalJoinOperator::KeyBuffersCodec::Read(KeyBuffers* buf,
                                                   BinaryReader* r) const {
  for (std::deque<Record>* side : {&buf->left, &buf->right}) {
    side->clear();
    auto n = r->ReadU64();
    if (!n.ok()) return n.status();
    for (uint64_t k = 0; k < *n; ++k) {
      auto rec = r->ReadRecord();
      if (!rec.ok()) return rec.status();
      side->push_back(std::move(*rec));
    }
  }
  return Status::Ok();
}

size_t IntervalJoinOperator::buffered() const {
  size_t total = 0;
  for (const auto& [key, buf] : state_) {
    total += buf.left.size() + buf.right.size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// PrintSink (lives here to keep sink.h header-only aside from this)

Status PrintSink::Invoke(const Record& record) {
  MutexLock lock(&mu_);
  std::printf("%s%s\n", prefix_.c_str(), record.ToString().c_str());
  return Status::Ok();
}

}  // namespace streamline
