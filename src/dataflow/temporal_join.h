#ifndef STREAMLINE_DATAFLOW_TEMPORAL_JOIN_H_
#define STREAMLINE_DATAFLOW_TEMPORAL_JOIN_H_

#include <string>

#include "dataflow/keyed_state.h"
#include "dataflow/operator.h"

namespace streamline {

/// Stream-to-table ("temporal") join: input 1 is a changelog that upserts
/// a keyed dimension table (latest record per key wins); input 0 is the
/// fact stream, enriched with the current table row for its key. The
/// standard pattern behind "enrich ad events with campaign metadata that
/// changes over time".
///
/// Semantics: processing order within the operator decides "current" --
/// facts are enriched with the newest table row already applied (Flink's
/// processing-time temporal join). Facts with no table row yet are dropped
/// or emitted with nulls, per `emit_unmatched`. The table is checkpointed.
class TemporalJoinOperator : public Operator {
 public:
  struct Spec {
    KeySelector fact_key;
    KeySelector table_key;
    /// Emit facts without a matching row, padded with `table_width` nulls.
    bool emit_unmatched = false;
    /// Number of fields a table row contributes to the output (needed for
    /// null padding of unmatched facts).
    size_t table_width = 0;
  };

  TemporalJoinOperator(std::string name, Spec spec);

  Status Open(const OperatorContext& ctx) override;
  void ProcessRecord(int input, Record&& record, Collector* out) override;
  void ProcessWatermark(Timestamp wm, Collector* out) override;
  Status SnapshotState(BinaryWriter* w) const override {
    return table_.SnapshotState(w);
  }
  Status RestoreState(BinaryReader* r) override {
    return table_.RestoreState(r);
  }
  bool SupportsIncrementalState() const override { return true; }
  void EnableIncrementalState() override { table_.EnableIncremental(); }
  /// The dimension table only ever upserts, so every record carries a row.
  Status SnapshotDelta(ChangelogSink* sink) override {
    return table_.SnapshotDelta(sink);
  }
  Status ApplyDelta(BinaryReader* r) override { return table_.ApplyDelta(r); }
  void ResetDelta() override { table_.ResetDelta(); }
  std::string Name() const override { return name_; }

  size_t table_size() const { return table_.size(); }

 private:
  std::string name_;
  Spec spec_;
  KeyedState<Record, RecordCodec> table_;
};

}  // namespace streamline

#endif  // STREAMLINE_DATAFLOW_TEMPORAL_JOIN_H_
