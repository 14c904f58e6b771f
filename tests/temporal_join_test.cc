#include "dataflow/temporal_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "api/datastream.h"
#include "dataflow/sources.h"

namespace streamline {
namespace {

class VecCollector : public Collector {
 public:
  void Emit(Record&& r) override { records.push_back(std::move(r)); }
  std::vector<Record> records;
};

TemporalJoinOperator::Spec BasicSpec(bool emit_unmatched = false) {
  TemporalJoinOperator::Spec spec;
  spec.fact_key = KeyField(0);
  spec.table_key = KeyField(0);
  spec.emit_unmatched = emit_unmatched;
  spec.table_width = 2;
  return spec;
}

TEST(TemporalJoinTest, EnrichesWithLatestRow) {
  TemporalJoinOperator op("tj", BasicSpec());
  VecCollector out;
  // Table row for key 1: [1, "v1", 10.0].
  op.ProcessRecord(1, MakeRecord(0, Value(int64_t{1}), Value("v1"),
                                 Value(10.0)),
                   &out);
  // Fact for key 1.
  op.ProcessRecord(0, MakeRecord(5, Value(int64_t{1}), Value(100.0)), &out);
  ASSERT_EQ(out.records.size(), 1u);
  ASSERT_EQ(out.records[0].num_fields(), 5u);
  EXPECT_EQ(out.records[0].field(3).AsString(), "v1");
  // Upsert the row; later facts see the new version.
  op.ProcessRecord(1, MakeRecord(6, Value(int64_t{1}), Value("v2"),
                                 Value(20.0)),
                   &out);
  op.ProcessRecord(0, MakeRecord(7, Value(int64_t{1}), Value(200.0)), &out);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[1].field(3).AsString(), "v2");
  EXPECT_EQ(op.table_size(), 1u);
}

TEST(TemporalJoinTest, UnmatchedDroppedOrPadded) {
  {
    TemporalJoinOperator drop("tj", BasicSpec(false));
    VecCollector out;
    drop.ProcessRecord(0, MakeRecord(1, Value(int64_t{9}), Value(1.0)), &out);
    EXPECT_TRUE(out.records.empty());
  }
  {
    TemporalJoinOperator pad("tj", BasicSpec(true));
    VecCollector out;
    pad.ProcessRecord(0, MakeRecord(1, Value(int64_t{9}), Value(1.0)), &out);
    ASSERT_EQ(out.records.size(), 1u);
    ASSERT_EQ(out.records[0].num_fields(), 4u);  // 2 fact + 2 null pad
    EXPECT_TRUE(out.records[0].field(2).is_null());
    EXPECT_TRUE(out.records[0].field(3).is_null());
  }
}

TEST(TemporalJoinTest, TableStateSnapshotRoundTrip) {
  TemporalJoinOperator op("tj", BasicSpec());
  VecCollector out;
  for (int k = 0; k < 10; ++k) {
    op.ProcessRecord(
        1,
        MakeRecord(k, Value(static_cast<int64_t>(k)),
                   Value("row" + std::to_string(k)), Value(1.0 * k)),
        &out);
  }
  BinaryWriter w;
  ASSERT_TRUE(op.SnapshotState(&w).ok());
  TemporalJoinOperator restored("tj", BasicSpec());
  BinaryReader r(w.buffer());
  ASSERT_TRUE(restored.RestoreState(&r).ok());
  EXPECT_EQ(restored.table_size(), 10u);
  restored.ProcessRecord(0, MakeRecord(99, Value(int64_t{7}), Value(0.0)),
                         &out);
  ASSERT_EQ(out.records.size(), 1u);
  // Joined layout: [fact key, fact value, row key, row name, row value].
  EXPECT_EQ(out.records[0].field(3).AsString(), "row7");
}

// Wraps the join the API built and counts the table rows it has applied
// (across all subtasks); everything else is forwarded unchanged.
class RowCountingJoin : public Operator {
 public:
  RowCountingJoin(std::unique_ptr<Operator> inner, std::atomic<int>* rows)
      : inner_(std::move(inner)), rows_(rows) {}
  Status Open(const OperatorContext& ctx) override {
    return inner_->Open(ctx);
  }
  void ProcessRecord(int input, Record&& record, Collector* out) override {
    inner_->ProcessRecord(input, std::move(record), out);
    if (input == 1) rows_->fetch_add(1, std::memory_order_release);
  }
  void ProcessWatermark(Timestamp wm, Collector* out) override {
    inner_->ProcessWatermark(wm, out);
  }
  void OnEndOfInput(Collector* out) override { inner_->OnEndOfInput(out); }
  Status Close() override { return inner_->Close(); }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<Operator> inner_;
  std::atomic<int>* rows_;
};

// Emits its records only once the join has applied `rows` table rows; until
// then it polls idle and the engine re-polls it on its source timer. If the
// rows never all arrive, the gate opens at a generous deadline and records
// it, so a broken join fails an assertion instead of hanging the test.
class GatedSource : public SourceFunction {
 public:
  GatedSource(std::vector<Record> records, const std::atomic<int>* applied,
              int rows, std::atomic<bool>* timed_out)
      : inner_(std::move(records)),
        applied_(applied),
        rows_(rows),
        timed_out_(timed_out),
        deadline_(std::chrono::steady_clock::now() +
                  std::chrono::seconds(60)) {}
  Result<SourcePoll> Poll(SourceContext* ctx) override {
    if (applied_->load(std::memory_order_acquire) < rows_) {
      if (std::chrono::steady_clock::now() < deadline_) {
        return SourcePoll::kIdle;
      }
      timed_out_->store(true);
    }
    return inner_.Poll(ctx);
  }
  std::string Name() const override { return "gated-source"; }

 private:
  VectorSource inner_;
  const std::atomic<int>* applied_;
  int rows_;
  std::atomic<bool>* timed_out_;
  std::chrono::steady_clock::time_point deadline_;
};

TEST(TemporalJoinTest, EndToEndThroughApi) {
  Environment env(2);
  // Dimension changelog: item -> category.
  static constexpr int kItems = 20;
  std::vector<Record> table_rows;
  for (int item = 0; item < kItems; ++item) {
    table_rows.push_back(MakeRecord(
        0, Value(static_cast<int64_t>(item)),
        Value("cat" + std::to_string(item % 4))));
  }
  std::vector<Record> facts;
  for (int i = 0; i < 200; ++i) {
    facts.push_back(MakeRecord(100 + i, Value(static_cast<int64_t>(i % 20)),
                               Value(1.0)));
  }
  // Facts for items the table never lists: with emit_unmatched they are
  // padded to the table's width.
  static constexpr int kOrphans = 10;
  for (int i = 0; i < kOrphans; ++i) {
    facts.push_back(MakeRecord(300 + i, Value(static_cast<int64_t>(kItems + i)),
                               Value(1.0)));
  }
  // The temporal join is processing-order based: a fact only matches a row
  // the join applied before it. The facts are gated on the join having
  // applied every row, so none can overtake the table.
  std::atomic<int> rows_applied{0};
  std::atomic<bool> gate_timed_out{false};
  auto table = env.FromRecords(std::move(table_rows), "dim").KeyBy(0);
  auto fact_stream = env.FromSource(
      "facts",
      [&facts, &rows_applied,
       &gate_timed_out](int, int) -> std::unique_ptr<SourceFunction> {
        return std::make_unique<GatedSource>(facts, &rows_applied, kItems,
                                             &gate_timed_out);
      });
  auto joined = fact_stream.KeyBy(0).TemporalJoin(table, /*table_width=*/2,
                                                  /*emit_unmatched=*/true);
  GraphNode& join = env.graph()->mutable_node(joined.node_id());
  join.op_factory = [api_factory = join.op_factory, &rows_applied]() {
    return std::make_unique<RowCountingJoin>(api_factory(), &rows_applied);
  };
  auto sink = joined.Collect();
  ASSERT_TRUE(env.Execute().ok());
  EXPECT_FALSE(gate_timed_out.load()) << "the join never applied every row";
  ASSERT_EQ(rows_applied.load(), kItems);
  ASSERT_EQ(sink->size(), 200u + kOrphans);
  // Every listed fact found its row and carries its category; the others
  // are null-padded.
  size_t matched = 0;
  for (const Record& r : sink->records()) {
    ASSERT_EQ(r.num_fields(), 4u);
    const int64_t item = r.field(0).AsInt64();
    if (item < kItems) {
      ++matched;
      EXPECT_EQ(r.field(3).AsString(), "cat" + std::to_string(item % 4));
    } else {
      EXPECT_TRUE(r.field(2).is_null());
      EXPECT_TRUE(r.field(3).is_null());
    }
  }
  EXPECT_EQ(matched, 200u);
}

}  // namespace
}  // namespace streamline
