#include "dataflow/window_operator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "api/datastream.h"

namespace streamline {
namespace {

// Output record layout: [key, window_start, window_end, query, result].
struct WindowResult {
  Value key;
  Window window;
  int64_t query;
  Value result;
};

std::vector<WindowResult> Parse(const std::vector<Record>& records) {
  std::vector<WindowResult> out;
  for (const Record& r : records) {
    out.push_back(WindowResult{
        r.field(0),
        Window{r.field(1).AsInt64(), r.field(2).AsInt64()},
        r.field(3).AsInt64(), r.field(4)});
  }
  return out;
}

std::vector<Record> KeyedSeries(int keys, int per_key) {
  // Interleaved keys; ts = i, value = i; key = i % keys.
  std::vector<Record> out;
  for (int i = 0; i < keys * per_key; ++i) {
    out.push_back(MakeRecord(i, Value(static_cast<int64_t>(i % keys)),
                             Value(static_cast<double>(1.0))));
  }
  return out;
}

TEST(WindowOperatorTest, KeyedTumblingCount) {
  Environment env(2);
  auto sink = env.FromRecords(KeyedSeries(2, 50))
                  .KeyBy(0)
                  .Window(std::make_shared<TumblingWindowFn>(20))
                  .Aggregate(DynAggKind::kCount, 1)
                  .Collect();
  ASSERT_TRUE(env.Execute().ok());
  // 100 records over ts 0..99: 5 tumbling windows of 20; each key has 10
  // elements per window.
  const auto results = Parse(sink->records());
  ASSERT_EQ(results.size(), 10u);  // 5 windows x 2 keys
  for (const auto& r : results) {
    EXPECT_EQ(r.result.AsInt64(), 10);
    EXPECT_EQ(r.window.length(), 20);
  }
}

TEST(WindowOperatorTest, SlidingSumMatchesExpectation) {
  Environment env;
  std::vector<Record> records;
  for (int i = 0; i < 40; ++i) {
    records.push_back(MakeRecord(i, Value(int64_t{7}), Value(1.0)));
  }
  auto sink = env.FromRecords(std::move(records))
                  .KeyBy(0)
                  .Window(std::make_shared<SlidingWindowFn>(20, 10))
                  .Aggregate(DynAggKind::kSum, 1)
                  .Collect();
  ASSERT_TRUE(env.Execute().ok());
  std::map<Window, double> sums;
  for (const auto& r : Parse(sink->records())) {
    sums[r.window] = r.result.AsDouble();
  }
  EXPECT_DOUBLE_EQ((sums[Window{-10, 10}]), 10.0);
  EXPECT_DOUBLE_EQ((sums[Window{0, 20}]), 20.0);
  EXPECT_DOUBLE_EQ((sums[Window{10, 30}]), 20.0);
  EXPECT_DOUBLE_EQ((sums[Window{20, 40}]), 20.0);
  EXPECT_DOUBLE_EQ((sums[Window{30, 50}]), 10.0);
}

TEST(WindowOperatorTest, SessionWindowsPerKey) {
  Environment env(2);
  std::vector<Record> records;
  // Key "a": bursts {0..4} and {100..104}; key "b": one burst {50..54}.
  for (int i = 0; i < 5; ++i) {
    records.push_back(MakeRecord(i, Value("a"), Value(1.0)));
  }
  for (int i = 0; i < 5; ++i) {
    records.push_back(MakeRecord(50 + i, Value("b"), Value(1.0)));
  }
  for (int i = 0; i < 5; ++i) {
    records.push_back(MakeRecord(100 + i, Value("a"), Value(1.0)));
  }
  std::sort(records.begin(), records.end(),
            [](const Record& x, const Record& y) {
              return x.timestamp < y.timestamp;
            });
  auto sink = env.FromRecords(std::move(records))
                  .KeyBy(0)
                  .Window(std::make_shared<SessionWindowFn>(10))
                  .Aggregate(DynAggKind::kCount, 1)
                  .Collect();
  ASSERT_TRUE(env.Execute().ok());
  const auto results = Parse(sink->records());
  ASSERT_EQ(results.size(), 3u);
  std::map<std::string, int> sessions_per_key;
  for (const auto& r : results) {
    sessions_per_key[r.key.AsString()]++;
    EXPECT_EQ(r.result.AsInt64(), 5);
  }
  EXPECT_EQ(sessions_per_key["a"], 2);
  EXPECT_EQ(sessions_per_key["b"], 1);
}

TEST(WindowOperatorTest, MultiQuerySharingInOneOperator) {
  Environment env;
  auto sink =
      env.FromRecords(KeyedSeries(1, 100))
          .KeyBy(0)
          .Window({std::make_shared<TumblingWindowFn>(25),
                   std::make_shared<SlidingWindowFn>(50, 25)})
          .Aggregate(DynAggKind::kCount, 1)
          .Collect();
  ASSERT_TRUE(env.Execute().ok());
  std::map<int64_t, int> per_query;
  for (const auto& r : Parse(sink->records())) {
    per_query[r.query]++;
    if (r.query == 0) {
      EXPECT_EQ(r.result.AsInt64(), 25);
    }
  }
  EXPECT_EQ(per_query[0], 4);  // tumbling 25 over 0..99
  EXPECT_GE(per_query[1], 4);  // sliding 50/25
}

TEST(WindowOperatorTest, SharedAndEagerBackendsAgree) {
  auto run = [](WindowBackend backend) {
    Environment env(2);
    auto sink = env.FromRecords(KeyedSeries(3, 60))
                    .KeyBy(0)
                    .Window(std::make_shared<SlidingWindowFn>(30, 10))
                    .Aggregate(DynAggKind::kSum, 1, backend)
                    .Collect();
    STREAMLINE_CHECK_OK(env.Execute());
    std::map<std::tuple<int64_t, Timestamp, Timestamp>, double> out;
    for (const auto& r : Parse(sink->records())) {
      out[{r.key.AsInt64(), r.window.start, r.window.end}] =
          r.result.AsDouble();
    }
    return out;
  };
  const auto shared = run(WindowBackend::kShared);
  const auto eager = run(WindowBackend::kEager);
  ASSERT_FALSE(shared.empty());
  EXPECT_EQ(shared, eager);
}

TEST(WindowOperatorTest, OutOfOrderAcrossParallelSources) {
  // Two parallel source subtasks emit interleaved halves of a keyed stream;
  // the window operator's reorder buffer must still produce exact windows.
  Environment env;
  auto source = env.FromSource(
      "split-source",
      [](int subtask, int parallelism) -> std::unique_ptr<SourceFunction> {
        std::vector<Record> mine;
        for (int i = subtask; i < 200; i += parallelism) {
          mine.push_back(MakeRecord(i, Value(int64_t{0}), Value(1.0)));
        }
        return std::make_unique<VectorSource>(std::move(mine),
                                              /*watermark_every=*/8);
      },
      /*parallelism=*/2);
  auto sink = source.KeyBy(0)
                  .Window(std::make_shared<TumblingWindowFn>(50))
                  .Aggregate(DynAggKind::kCount, 1)
                  .Collect();
  ASSERT_TRUE(env.Execute().ok());
  const auto results = Parse(sink->records());
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.result.AsInt64(), 50) << r.window.ToString();
  }
}

TEST(WindowOperatorTest, GlobalWindowAll) {
  Environment env;
  auto sink = env.FromRecords(KeyedSeries(4, 25))
                  .WindowAll({std::make_shared<TumblingWindowFn>(50)})
                  .Aggregate(DynAggKind::kCount, 1)
                  .Collect();
  ASSERT_TRUE(env.Execute().ok());
  const auto results = Parse(sink->records());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].result.AsInt64(), 50);
  EXPECT_EQ(results[1].result.AsInt64(), 50);
}

TEST(WindowOperatorTest, MinMaxAvgKinds) {
  Environment env;
  std::vector<Record> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(
        MakeRecord(i, Value(int64_t{0}), Value(static_cast<double>(i))));
  }
  auto src = env.FromRecords(std::move(records));
  auto min_sink = src.KeyBy(0)
                      .Window(std::make_shared<TumblingWindowFn>(10))
                      .Aggregate(DynAggKind::kMin, 1)
                      .Collect();
  auto max_sink = src.KeyBy(0)
                      .Window(std::make_shared<TumblingWindowFn>(10))
                      .Aggregate(DynAggKind::kMax, 1)
                      .Collect();
  auto avg_sink = src.KeyBy(0)
                      .Window(std::make_shared<TumblingWindowFn>(10))
                      .Aggregate(DynAggKind::kAvg, 1)
                      .Collect();
  ASSERT_TRUE(env.Execute().ok());
  ASSERT_EQ(min_sink->size(), 1u);
  EXPECT_DOUBLE_EQ(Parse(min_sink->records())[0].result.AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(Parse(max_sink->records())[0].result.AsDouble(), 9.0);
  EXPECT_DOUBLE_EQ(Parse(avg_sink->records())[0].result.AsDouble(), 4.5);
}

TEST(WindowOperatorTest, LateRecordsAreDropped) {
  // Drive the operator directly: a record older than the current watermark
  // must be discarded, not corrupt past windows.
  WindowAggSpec spec;
  spec.key = KeyField(0);
  spec.value_field = 1;
  spec.agg_kind = DynAggKind::kCount;
  spec.windows = {std::make_shared<TumblingWindowFn>(10)};
  WindowAggOperator op("w", spec);
  ASSERT_TRUE(op.Open(OperatorContext{}).ok());

  class VecCollector : public Collector {
   public:
    void Emit(Record&& r) override { records.push_back(std::move(r)); }
    std::vector<Record> records;
  } out;

  op.ProcessRecord(0, MakeRecord(5, Value(int64_t{0}), Value(1.0)), &out);
  op.ProcessWatermark(20, &out);  // fires [0, 10) with count 1
  op.ProcessRecord(0, MakeRecord(3, Value(int64_t{0}), Value(1.0)),
                   &out);  // late: ts 3 < wm 20
  op.ProcessRecord(0, MakeRecord(25, Value(int64_t{0}), Value(1.0)), &out);
  op.ProcessWatermark(kMaxTimestamp, &out);
  const auto results = Parse(out.records);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].window, (Window{0, 10}));
  EXPECT_EQ(results[0].result.AsInt64(), 1);  // late record not counted
  EXPECT_EQ(results[1].window, (Window{20, 30}));
  EXPECT_EQ(results[1].result.AsInt64(), 1);
}

TEST(WindowOperatorTest, SharedStatsReportConstantWorkPerRecord) {
  WindowAggSpec spec;
  spec.key = KeyField(0);
  spec.value_field = 1;
  spec.agg_kind = DynAggKind::kSum;
  spec.windows = {std::make_shared<SlidingWindowFn>(100, 10),
                  std::make_shared<SlidingWindowFn>(200, 20)};
  WindowAggOperator op("w", spec);
  ASSERT_TRUE(op.Open(OperatorContext{}).ok());
  class NullCollector : public Collector {
   public:
    void Emit(Record&&) override {}
  } out;
  for (int i = 0; i < 5000; ++i) {
    op.ProcessRecord(0, MakeRecord(i, Value(int64_t{0}), Value(1.0)), &out);
    if (i % 50 == 0) op.ProcessWatermark(i, &out);
  }
  op.ProcessWatermark(kMaxTimestamp, &out);
  const AggStats stats = op.SharedStats();
  EXPECT_EQ(stats.partial_updates, stats.elements);  // Cutty's property
}

// A watermark advances only the keys that received records or are due, and
// op.<name>.<subtask>.wm.keys_visited counts them.
TEST(WindowOperatorTest, KeysVisitedCountsOnlyAppliedAndDueKeys) {
  MetricsRegistry metrics;
  OperatorContext ctx;
  ctx.subtask_index = 2;
  ctx.metrics = &metrics;
  WindowAggSpec spec;
  spec.key = KeyField(0);
  spec.value_field = 1;
  spec.windows = {std::make_shared<TumblingWindowFn>(10)};
  WindowAggOperator op("w", spec);
  ASSERT_TRUE(op.Open(ctx).ok());
  const Counter* visited = metrics.GetCounter("op.w.2.wm.keys_visited");
  std::vector<Record> results;
  VectorCollector out(&results);
  const auto record = [&](Timestamp ts, int64_t key) {
    op.ProcessRecord(0, MakeRecord(ts, Value(key), Value(1.0)), &out);
  };

  record(1, 1);
  record(2, 2);
  record(3, 3);
  op.ProcessWatermark(5, &out);  // applies all three keys; none due (end 10)
  EXPECT_EQ(visited->value(), 3u);
  op.ProcessWatermark(8, &out);  // nothing applied, nothing due
  EXPECT_EQ(visited->value(), 3u);
  record(9, 1);
  op.ProcessWatermark(12, &out);  // key 1 applied; all three due at 10
  EXPECT_EQ(visited->value(), 6u);
  EXPECT_EQ(results.size(), 3u);
  // Every key's next window [10, 20) is empty: none is due until it gets
  // another record.
  op.ProcessWatermark(15, &out);
  EXPECT_EQ(visited->value(), 6u);
  record(16, 2);
  op.ProcessWatermark(25, &out);  // only key 2, applied and firing
  EXPECT_EQ(visited->value(), 7u);
  EXPECT_EQ(results.size(), 4u);
  op.ProcessWatermark(kMaxTimestamp, &out);  // end of stream: every key
  EXPECT_EQ(visited->value(), 10u);
  EXPECT_EQ(results.size(), 4u);
}

WindowAggSpec SlabSpec() {
  WindowAggSpec spec;
  spec.key = KeyField(0);
  spec.value_field = 1;
  spec.agg_kind = DynAggKind::kSum;
  spec.windows = {std::make_shared<TumblingWindowFn>(50),
                  std::make_shared<SessionWindowFn>(20)};
  return spec;
}

// Heavy disorder over many watermarks frees slab slots and reuses them out
// of order. A snapshot taken with records buffered restores into a compact
// slab; from there both operators must emit the same records and end with
// the same snapshot bytes.
TEST(WindowOperatorTest, ReorderSlabRestoreMatchesLiveOperator) {
  std::mt19937_64 rng(7);
  std::vector<Record> input;
  for (int i = 0; i < 20000; ++i) {
    const Timestamp ts = i + static_cast<Timestamp>(rng() % 3000);
    input.push_back(MakeRecord(ts, Value(static_cast<int64_t>(rng() % 37)),
                               Value(static_cast<double>(i % 11)),
                               Value("payload-" + std::to_string(i))));
  }
  // Watermark after every batch: the earliest timestamp still to come, so
  // no record is late and thousands stay buffered.
  constexpr size_t kBatch = 250;
  std::vector<Timestamp> suffix_min(input.size() + 1, kMaxTimestamp);
  for (size_t i = input.size(); i-- > 0;) {
    suffix_min[i] = std::min(suffix_min[i + 1], input[i].timestamp);
  }
  const auto feed = [&](WindowAggOperator* op, size_t begin, size_t end,
                        Collector* out) {
    for (size_t b = begin; b < end; b += kBatch) {
      const size_t e = std::min(end, b + kBatch);
      op->ProcessBatch(0, std::vector<Record>(input.begin() + b,
                                              input.begin() + e),
                       out);
      op->ProcessWatermark(suffix_min[e], out);
    }
  };

  WindowAggOperator live("w", SlabSpec());
  ASSERT_TRUE(live.Open(OperatorContext{}).ok());
  std::vector<Record> before;
  VectorCollector before_out(&before);
  const size_t cut = 12000;
  feed(&live, 0, cut, &before_out);
  ASSERT_FALSE(before.empty());
  ASSERT_GE(live.buffered_records(), 100u);
  // Slots were freed and reused while the buffer churned.
  EXPECT_GT(live.reorder_slots(), live.buffered_records());

  BinaryWriter snapshot;
  ASSERT_TRUE(live.SnapshotState(&snapshot).ok());
  WindowAggOperator restored("w", SlabSpec());
  ASSERT_TRUE(restored.Open(OperatorContext{}).ok());
  BinaryReader reader(snapshot.buffer());
  ASSERT_TRUE(restored.RestoreState(&reader).ok());
  EXPECT_EQ(restored.buffered_records(), live.buffered_records());
  EXPECT_EQ(restored.reorder_slots(), restored.buffered_records());

  std::vector<Record> live_after, restored_after;
  VectorCollector live_out(&live_after), restored_out(&restored_after);
  feed(&live, cut, input.size() - 1000, &live_out);
  feed(&restored, cut, input.size() - 1000, &restored_out);
  ASSERT_GT(live.buffered_records(), 0u);
  BinaryWriter live_bytes, restored_bytes;
  ASSERT_TRUE(live.SnapshotState(&live_bytes).ok());
  ASSERT_TRUE(restored.SnapshotState(&restored_bytes).ok());
  EXPECT_EQ(live_bytes.buffer(), restored_bytes.buffer());

  feed(&live, input.size() - 1000, input.size(), &live_out);
  feed(&restored, input.size() - 1000, input.size(), &restored_out);
  live.ProcessWatermark(kMaxTimestamp, &live_out);
  restored.ProcessWatermark(kMaxTimestamp, &restored_out);
  ASSERT_FALSE(live_after.empty());
  EXPECT_EQ(live_after, restored_after);
  BinaryWriter live_final, restored_final;
  ASSERT_TRUE(live.SnapshotState(&live_final).ok());
  ASSERT_TRUE(restored.SnapshotState(&restored_final).ok());
  EXPECT_EQ(live_final.buffer(), restored_final.buffer());
}

// Applied records give their slots back: 100 waves of 1000 records, each
// covered by its own watermark, never grow the slab past the peak number of
// buffered records.
TEST(WindowOperatorTest, ReorderSlabReusesFreedSlots) {
  WindowAggOperator op("w", SlabSpec());
  ASSERT_TRUE(op.Open(OperatorContext{}).ok());
  std::vector<Record> results;
  VectorCollector out(&results);
  std::mt19937_64 rng(11);
  size_t peak = 0;
  for (int wave = 0; wave < 100; ++wave) {
    std::vector<Record> batch;
    for (int i = 0; i < 1000; ++i) {
      batch.push_back(MakeRecord(wave * 1000 + i,
                                 Value(static_cast<int64_t>(i % 13)),
                                 Value(1.0)));
    }
    std::shuffle(batch.begin(), batch.end(), rng);
    op.ProcessBatch(0, std::move(batch), &out);
    peak = std::max(peak, op.buffered_records());
    op.ProcessWatermark((wave + 1) * 1000, &out);
    EXPECT_EQ(op.buffered_records(), 0u);
    ASSERT_LE(op.reorder_slots(), peak) << "wave " << wave;
  }
  EXPECT_EQ(peak, 1000u);
  EXPECT_FALSE(results.empty());
}

// Result callbacks hold no key: every slicer emits under the key of the
// entry being applied or advanced. 64 string keys (longer than the small
// string buffer) fire in one watermark -- spec tumbling and session windows
// plus a shared standing query attached mid-stream -- on a live operator
// and on one restored from its snapshot. Each key's values are its own
// index + 1, so a result carrying another key's label misses the oracle.
TEST(WindowOperatorTest, ManyStringKeysFireUnderTheirOwnKey) {
  constexpr int kKeys = 64;
  const auto key_name = [](int i) {
    return "session-user-with-a-long-name-" + std::to_string(i);
  };
  auto registry = std::make_shared<QueryRegistry>();
  WindowAggSpec spec;
  spec.key = KeyField(0);
  spec.value_field = 1;
  spec.agg_kind = DynAggKind::kSum;
  spec.windows = {std::make_shared<TumblingWindowFn>(100),
                  std::make_shared<SessionWindowFn>(30)};
  spec.registry = registry;
  // One record per key per 100-unit period, at period + key index.
  std::map<std::string, std::vector<std::pair<Timestamp, double>>> fed;
  const auto period = [&](int p) {
    std::vector<Record> batch;
    for (int i = 0; i < kKeys; ++i) {
      const Timestamp ts = 100 * p + i;
      batch.push_back(MakeRecord(ts, Value(key_name(i)), Value(i + 1.0)));
      fed[key_name(i)].emplace_back(ts, i + 1.0);
    }
    return batch;
  };
  // Every result from `from` on must be the sum of its own key's values in
  // its window.
  const auto check = [&](const std::vector<Record>& out, size_t from) {
    for (size_t n = from; n < out.size(); ++n) {
      const WindowResult r = Parse({out[n]})[0];
      auto it = fed.find(r.key.AsString());
      ASSERT_NE(it, fed.end()) << "unknown key " << r.key.AsString();
      double want = 0;
      for (const auto& [ts, v] : it->second) {
        if (r.window.Contains(ts)) want += v;
      }
      EXPECT_EQ(r.result.AsDouble(), want)
          << r.key.AsString() << " query " << r.query << " "
          << r.window.ToString();
    }
  };
  const auto fired_keys = [](const std::vector<Record>& out, size_t from,
                             int64_t query) {
    std::set<std::string> keys;
    for (size_t n = from; n < out.size(); ++n) {
      if (out[n].field(3).AsInt64() == query) {
        keys.insert(out[n].field(0).AsString());
      }
    }
    return keys.size();
  };

  WindowAggOperator live("w", spec);
  ASSERT_TRUE(live.Open(OperatorContext{}).ok());
  std::vector<Record> live_out;
  VectorCollector out(&live_out);
  // Half the keys exist when the query attaches (ApplyDynAttach), the rest
  // are created after it (InitKeyState).
  std::vector<Record> rest = period(0);
  std::vector<Record> first(rest.begin(), rest.begin() + kKeys / 2);
  rest.erase(rest.begin(), rest.begin() + kKeys / 2);
  live.ProcessBatch(0, std::move(first), &out);
  live.ProcessWatermark(31, &out);
  const uint64_t dyn = registry->AttachSliding(200, 100);
  ASSERT_EQ(registry->PlacementOf(dyn), QueryPlacement::kShared);
  // Applies the record at 31 (the last early key), then drains the attach;
  // the later keys' records (ts >= 32) are not late.
  live.ProcessWatermark(32, &out);
  live.ProcessBatch(0, std::move(rest), &out);
  live.ProcessBatch(0, period(1), &out);
  const size_t before = live_out.size();
  live.ProcessWatermark(200, &out);  // every key fires [0, 100), [100, 200)
  EXPECT_EQ(fired_keys(live_out, before, 0), size_t{kKeys});
  EXPECT_EQ(fired_keys(live_out, before, 1), size_t{kKeys});
  // Keys created after the attach run the query from their first record;
  // the earlier keys' first window is [100, 300).
  EXPECT_GE(fired_keys(live_out, before, static_cast<int64_t>(dyn)),
            size_t{kKeys / 2});
  check(live_out, 0);

  BinaryWriter snapshot;
  ASSERT_TRUE(live.SnapshotState(&snapshot).ok());
  WindowAggOperator restored("w", spec);
  ASSERT_TRUE(restored.Open(OperatorContext{}).ok());
  BinaryReader reader(snapshot.buffer());
  ASSERT_TRUE(restored.RestoreState(&reader).ok());
  std::vector<Record> restored_out;
  VectorCollector rout(&restored_out);
  const size_t live_mark = live_out.size();
  for (int p = 2; p < 4; ++p) {
    std::vector<Record> batch = period(p);
    restored.ProcessBatch(0, std::vector<Record>(batch), &rout);
    live.ProcessBatch(0, std::move(batch), &out);
  }
  live.ProcessWatermark(400, &out);
  restored.ProcessWatermark(400, &rout);
  EXPECT_EQ(fired_keys(restored_out, 0, 0), size_t{kKeys});
  EXPECT_EQ(fired_keys(restored_out, 0, 1), size_t{kKeys});
  EXPECT_EQ(fired_keys(restored_out, 0, static_cast<int64_t>(dyn)),
            size_t{kKeys});
  check(restored_out, 0);
  EXPECT_EQ(std::vector<Record>(live_out.begin() + live_mark, live_out.end()),
            restored_out);
}

}  // namespace
}  // namespace streamline
