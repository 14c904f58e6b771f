#include "dataflow/temporal_join.h"

#include "common/logging.h"

namespace streamline {

TemporalJoinOperator::TemporalJoinOperator(std::string name, Spec spec)
    : name_(std::move(name)),
      spec_(std::move(spec)),
      table_(name_, RecordCodec{}) {
  STREAMLINE_CHECK(spec_.fact_key != nullptr);
  STREAMLINE_CHECK(spec_.table_key != nullptr);
}

Status TemporalJoinOperator::Open(const OperatorContext& ctx) {
  table_.BindGauges(ctx);
  return Status::Ok();
}

void TemporalJoinOperator::ProcessWatermark(Timestamp, Collector*) {
  table_.UpdateGauges();
}

void TemporalJoinOperator::ProcessRecord(int input, Record&& record,
                                         Collector* out) {
  if (input == 1) {
    // Changelog upsert: latest row per key wins.
    const Value key = spec_.table_key(record);
    const uint64_t hash =
        record.has_key_hash() ? record.key_hash : KeyHashOf(key);
    table_.Emplace(key, hash).first->second = std::move(record);
    return;
  }
  const Value key = spec_.fact_key(record);
  const uint64_t hash =
      record.has_key_hash() ? record.key_hash : KeyHashOf(key);
  Record* row = table_.Find(hash, key);
  if (row == nullptr) {
    if (!spec_.emit_unmatched) return;
    Record padded = std::move(record);
    for (size_t i = 0; i < spec_.table_width; ++i) {
      padded.fields.push_back(Value::Null());
    }
    out->Emit(std::move(padded));
    return;
  }
  Record joined = std::move(record);
  joined.fields.insert(joined.fields.end(), row->fields.begin(),
                       row->fields.end());
  out->Emit(std::move(joined));
}

}  // namespace streamline
