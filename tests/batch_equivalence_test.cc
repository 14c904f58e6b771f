// Batch-at-a-time execution must be invisible, checked at two levels.
//
// The operator contract: every Operator::ProcessBatch override must do
// exactly what ProcessRecord does for each record of the batch in order.
// BatchContractTest drives two instances of each overriding operator with
// the same records, watermarks and end of input -- one record at a time
// through ProcessRecord, the other through ProcessBatch over seeded random
// batch splits -- and requires the same emitted records and the same
// snapshot bytes.
//
// The engine: for every built-in operator and pipeline shape, running the
// same input at batch_size 1 (one-record batches) and at larger batch sizes
// must produce identical sink output -- same records, same order, same
// timestamps, same stamped key hashes -- with watermarks and barriers never
// reordered relative to the records batched around them. Also holds the
// regression test for the FieldVec self-range insert fix.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/datastream.h"
#include "dataflow/window_operator.h"

namespace streamline {
namespace {

// ---------------------------------------------------------------------------
// FieldVec self-range insert regression (satellite fix).

TEST(FieldVecInsertTest, SelfInsertSurvivesReallocation) {
  // Fill to exactly the inline capacity so inserting the own range forces a
  // reallocation while first/last point into the old buffer.
  FieldVec v;
  for (int64_t i = 0; i < 4; ++i) v.push_back(Value(i));
  ASSERT_EQ(v.capacity(), v.size());
  v.insert(v.end(), v.begin(), v.end());
  ASSERT_EQ(v.size(), 8u);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)].AsInt64(), i);
    EXPECT_EQ(v[static_cast<size_t>(i) + 4].AsInt64(), i);
  }
}

TEST(FieldVecInsertTest, SelfInsertBeforeSourceRangeWithoutReallocation) {
  // Capacity is ample, but the shift moves the source range before it is
  // read: insert [2,4) at the front must copy the original values.
  FieldVec v;
  v.reserve(16);
  for (int64_t i = 0; i < 4; ++i) v.push_back(Value(i));
  v.insert(v.begin(), v.begin() + 2, v.end());
  ASSERT_EQ(v.size(), 6u);
  const int64_t want[] = {2, 3, 0, 1, 2, 3};
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(v[i].AsInt64(), want[i]);
}

TEST(FieldVecInsertTest, SelfInsertStringPayloads) {
  FieldVec v;
  v.push_back(Value(std::string("alpha")));
  v.push_back(Value(std::string("beta")));
  v.push_back(Value(std::string("gamma")));
  v.push_back(Value(std::string("delta")));
  v.insert(v.begin() + 1, v.begin(), v.end());
  ASSERT_EQ(v.size(), 8u);
  EXPECT_EQ(v[0].AsString(), "alpha");
  EXPECT_EQ(v[1].AsString(), "alpha");
  EXPECT_EQ(v[2].AsString(), "beta");
  EXPECT_EQ(v[3].AsString(), "gamma");
  EXPECT_EQ(v[4].AsString(), "delta");
  EXPECT_EQ(v[5].AsString(), "beta");
}

TEST(FieldVecInsertTest, ForeignRangeStillWorks) {
  FieldVec v{Value(int64_t{1}), Value(int64_t{4})};
  const Value mid[] = {Value(int64_t{2}), Value(int64_t{3})};
  v.insert(v.begin() + 1, mid, mid + 2);
  ASSERT_EQ(v.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(v[static_cast<size_t>(i)].AsInt64(), i + 1);
  }
}

// ---------------------------------------------------------------------------
// Operator equivalence harness.

// Deterministic pseudo-random input: keys with skew, values, and mild
// timestamp disorder (bounded by what the source's watermark cadence
// tolerates: timestamps are non-decreasing per source here, since sources
// derive watermarks from emitted timestamps).
std::vector<Record> TestInput(size_t n, uint32_t seed, int64_t num_keys) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> key(0, num_keys - 1);
  std::uniform_int_distribution<int64_t> val(-50, 50);
  std::vector<Record> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(MakeRecord(static_cast<Timestamp>(i), Value(key(rng)),
                             Value(val(rng))));
  }
  return out;
}

// Builds a pipeline on `env` and returns its CollectSink.
using PipelineFn =
    std::function<std::shared_ptr<CollectSink>(Environment& env)>;

std::vector<Record> RunWithBatchSize(const PipelineFn& build,
                                     size_t batch_size) {
  Environment env;
  std::shared_ptr<CollectSink> sink = build(env);
  JobOptions options;
  options.batch_size = batch_size;
  Status st = env.Execute(options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return sink->records();
}

// Asserts byte-level equivalence of the visible record contents: timestamp,
// fields, and the stamped key hash (routing metadata every batch size must
// reproduce exactly). `run` names the compared run in failure messages.
void ExpectIdenticalOutput(const std::vector<Record>& want,
                           const std::vector<Record>& got,
                           const std::string& run) {
  ASSERT_EQ(want.size(), got.size()) << run;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].timestamp, got[i].timestamp)
        << "record " << i << " " << run;
    EXPECT_EQ(want[i].key_hash, got[i].key_hash)
        << "record " << i << " " << run;
    ASSERT_TRUE(want[i].fields == got[i].fields)
        << "record " << i << " " << run << "\n  want "
        << want[i].ToString() << "\n  got  " << got[i].ToString();
  }
}

void ExpectIdenticalOutput(const std::vector<Record>& want,
                           const std::vector<Record>& got, size_t batch_size) {
  ExpectIdenticalOutput(want, got, "batch_size=" + std::to_string(batch_size));
}

void ExpectBatchInvariant(const PipelineFn& build) {
  const std::vector<Record> baseline = RunWithBatchSize(build, 1);
  EXPECT_FALSE(baseline.empty());
  for (size_t batch_size : {2u, 16u, 256u, 1024u}) {
    ExpectIdenticalOutput(baseline, RunWithBatchSize(build, batch_size),
                          batch_size);
  }
}

TEST(BatchEquivalenceTest, MapFilterFlatMapChain) {
  ExpectBatchInvariant([](Environment& env) {
    return env.FromRecords(TestInput(5'000, 11, 64))
        .Map([](Record&& r) {
          r.fields[1] = Value(r.field(1).AsInt64() * 2);
          return std::move(r);
        })
        .Filter([](const Record& r) { return r.field(1).AsInt64() % 4 != 0; })
        .FlatMap([](Record&& r, Collector* out) {
          // 0, 1 or 2 outputs per input, derived from record content.
          const int64_t k = r.field(0).AsInt64();
          if (k % 7 == 0) return;
          if (k % 3 == 0) out->Emit(Record(r));
          out->Emit(std::move(r));
        })
        .Collect();
  });
}

TEST(BatchEquivalenceTest, MapAcrossRealChannel) {
  // Rebalance(1) breaks chaining: the batch crosses an SPSC channel and is
  // re-dispatched on the consumer, exercising Dispatch's DeliverBatch.
  ExpectBatchInvariant([](Environment& env) {
    return env.FromRecords(TestInput(5'000, 12, 64))
        .Map([](Record&& r) {
          r.fields[1] = Value(r.field(1).AsInt64() + 1);
          return std::move(r);
        })
        .Rebalance(1)
        .Filter([](const Record& r) { return r.field(1).AsInt64() % 2 == 0; })
        .Collect();
  });
}

TEST(BatchEquivalenceTest, KeyedReduceOverHashEdge) {
  ExpectBatchInvariant([](Environment& env) {
    return env.FromRecords(TestInput(5'000, 13, 32))
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& next) {
          return MakeRecord(acc.timestamp, acc.field(0),
                            Value(acc.field(1).AsInt64() +
                                  next.field(1).AsInt64()));
        })
        .Collect();
  });
}

TEST(BatchEquivalenceTest, KeyedReduceHighCardinality) {
  // More keys than any batch holds: most records of a batch insert or
  // update a key the batch has not touched yet, and repeated keys within
  // one batch update the accumulator the batch already wrote.
  ExpectBatchInvariant([](Environment& env) {
    return env.FromRecords(TestInput(4'000, 14, 1'000))
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& next) {
          return MakeRecord(acc.timestamp, acc.field(0),
                            Value(std::max(acc.field(1).AsInt64(),
                                           next.field(1).AsInt64())));
        })
        .Collect();
  });
}

TEST(BatchEquivalenceTest, UnionOfTwoSources) {
  // Two concurrent sources race, so emit order is nondeterministic even at
  // batch_size = 1; compare the windowed per-key aggregates as a multiset
  // (one huge window fired by the final watermark -- integer sums, so the
  // per-key results are interleaving-independent).
  const PipelineFn build = [](Environment& env) {
    DataStream left = env.FromRecords(TestInput(2'000, 15, 16), "left");
    DataStream right = env.FromRecords(TestInput(2'000, 16, 16), "right");
    return left.Union(right)
        .KeyBy(0)
        .Window(std::make_shared<TumblingWindowFn>(1'000'000))
        .Aggregate(DynAggKind::kSum, 1)
        .Collect();
  };
  const auto normalize = [](std::vector<Record> records) {
    std::sort(records.begin(), records.end(),
              [](const Record& a, const Record& b) {
                return a.ToString() < b.ToString();
              });
    return records;
  };
  const std::vector<Record> baseline = normalize(RunWithBatchSize(build, 1));
  EXPECT_FALSE(baseline.empty());
  for (size_t batch_size : {16u, 256u}) {
    ExpectIdenticalOutput(
        baseline, normalize(RunWithBatchSize(build, batch_size)), batch_size);
  }
}

TEST(BatchEquivalenceTest, SharedWindowAggregates) {
  for (DynAggKind kind : {DynAggKind::kSum, DynAggKind::kCount,
                          DynAggKind::kMin, DynAggKind::kMax,
                          DynAggKind::kAvg, DynAggKind::kVariance}) {
    ExpectBatchInvariant([kind](Environment& env) {
      return env.FromRecords(TestInput(4'000, 17, 8))
          .KeyBy(0)
          .Window(std::make_shared<SlidingWindowFn>(200, 80))
          .Aggregate(kind, 1, WindowBackend::kShared)
          .Collect();
    });
  }
}

TEST(BatchEquivalenceTest, EagerWindowAggregates) {
  for (DynAggKind kind : {DynAggKind::kSum, DynAggKind::kMin}) {
    ExpectBatchInvariant([kind](Environment& env) {
      return env.FromRecords(TestInput(3'000, 18, 8))
          .KeyBy(0)
          .Window(std::make_shared<SlidingWindowFn>(150, 50))
          .Aggregate(kind, 1, WindowBackend::kEager)
          .Collect();
    });
  }
}

TEST(BatchEquivalenceTest, GlobalWindowAll) {
  // Null key selector: the whole stream under one synthetic key, the case
  // where the window operator sees one maximal same-key run per watermark.
  ExpectBatchInvariant([](Environment& env) {
    return env.FromRecords(TestInput(4'000, 19, 8))
        .WindowAll({std::make_shared<TumblingWindowFn>(64),
                    std::make_shared<SlidingWindowFn>(96, 32)})
        .Aggregate(DynAggKind::kSum, 1)
        .Collect();
  });
}

TEST(BatchEquivalenceTest, GeneratorSourceInMotion) {
  // Generator ("in motion") source with a short watermark cadence: batches
  // are cut by control events long before reaching batch_size.
  ExpectBatchInvariant([](Environment& env) {
    return env
        .FromGenerator(
            "gen",
            [](uint64_t s) -> std::optional<Record> {
              if (s >= 3'000) return std::nullopt;
              return MakeRecord(static_cast<Timestamp>(s),
                                Value(static_cast<int64_t>(s % 10)),
                                Value(static_cast<int64_t>(s)));
            },
            /*watermark_every=*/7)
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& next) {
          return MakeRecord(acc.timestamp, acc.field(0),
                            Value(acc.field(1).AsInt64() +
                                  next.field(1).AsInt64()));
        })
        .Collect();
  });
}

// ---------------------------------------------------------------------------
// Control-event ordering around batches.

// Counts records and asserts every watermark's promise ("all records with
// ts < wm have been delivered") against the count -- with the source task
// buffering records into batches, a watermark overtaking its batch would
// trip this immediately.
class BatchWatermarkProbe : public Operator {
 public:
  explicit BatchWatermarkProbe(std::atomic<int>* violations)
      : violations_(violations) {}

  void ProcessRecord(int, Record&& record, Collector* out) override {
    ++seen_;
    out->Emit(std::move(record));
  }

  void ProcessWatermark(Timestamp wm, Collector*) override {
    if (wm == kMaxTimestamp || wm == kMinTimestamp) return;
    // Generator timestamps are the sequence numbers: wm promises records
    // 0..wm inclusive (source publishes wm = last emitted ts).
    if (seen_ < static_cast<uint64_t>(wm) + 1) violations_->fetch_add(1);
    if (wm < last_wm_) violations_->fetch_add(1);
    last_wm_ = wm;
  }

  std::string Name() const override { return "batch-wm-probe"; }

 private:
  std::atomic<int>* violations_;
  uint64_t seen_ = 0;
  Timestamp last_wm_ = kMinTimestamp;
};

TEST(BatchControlOrderingTest, WatermarksNeverOvertakeBatchedRecords) {
  constexpr uint64_t kRecords = 20'000;
  auto violations = std::make_shared<std::atomic<int>>(0);
  Environment env;
  auto sink =
      env.FromGenerator("seq",
                        [](uint64_t s) -> std::optional<Record> {
                          if (s >= kRecords) return std::nullopt;
                          return MakeRecord(static_cast<Timestamp>(s),
                                            Value(static_cast<int64_t>(s)));
                        },
                        /*watermark_every=*/17)
          .Rebalance(1)  // real channel: batches and watermarks share a ring
          .Process([violations]() {
            return std::make_unique<BatchWatermarkProbe>(violations.get());
          })
          .Collect();
  JobOptions options;
  options.batch_size = 256;  // far larger than the watermark cadence
  ASSERT_TRUE(env.Execute(options).ok());
  EXPECT_EQ(sink->size(), kRecords);
  EXPECT_EQ(violations->load(), 0);
}

TEST(BatchControlOrderingTest, BarriersFlushBatchesAndStayAligned) {
  // Checkpoints run concurrently with batched delivery; barrier offsets
  // recorded by the sink must be consistent cut points (monotone in
  // checkpoint id, within the output), and the output itself must match
  // the uncheckpointed run of one-record batches exactly.
  constexpr uint64_t kRecords = 60'000;
  const PipelineFn build = [](Environment& env) {
    return env
        .FromGenerator("seq",
                       [](uint64_t s) -> std::optional<Record> {
                         if (s >= kRecords) return std::nullopt;
                         return MakeRecord(static_cast<Timestamp>(s),
                                           Value(static_cast<int64_t>(s % 50)),
                                           Value(static_cast<int64_t>(s)));
                       })
        .KeyBy(0)
        .Reduce([](const Record& acc, const Record& next) {
          return MakeRecord(acc.timestamp, acc.field(0),
                            Value(acc.field(1).AsInt64() +
                                  next.field(1).AsInt64()));
        })
        .Collect();
  };

  const std::vector<Record> baseline = RunWithBatchSize(build, 1);

  Environment env;
  std::shared_ptr<CollectSink> sink = build(env);
  JobOptions options;
  options.batch_size = 256;
  options.checkpoint_interval_ms = 3;
  options.snapshot_store = std::make_shared<SnapshotStore>();
  ASSERT_TRUE(env.Execute(options).ok());
  ExpectIdenticalOutput(baseline, sink->records(), 256);

  // Every completed checkpoint's sink offset is a valid, monotone cut.
  int64_t prev_offset = 0;
  for (uint64_t id : options.snapshot_store->CompletedCheckpoints()) {
    const int64_t off = sink->BarrierOffset(id);
    if (off < 0) continue;  // barrier passed the sink before tracking
    EXPECT_GE(off, prev_offset) << "checkpoint " << id;
    EXPECT_LE(off, static_cast<int64_t>(baseline.size()));
    prev_offset = off;
  }
}

// ---------------------------------------------------------------------------
// Operator batch contract: ProcessBatch == ProcessRecord per record.

// What one operator instance under test emits: its collector output, or the
// records its CollectSink received (SinkOperator emits nothing).
struct ContractSubject {
  std::unique_ptr<Operator> op;
  std::shared_ptr<CollectSink> sink;
};
using SubjectFn = std::function<ContractSubject()>;

// One drive of an operator: records with their input ordinals, watermarks
// between them, then the final watermark and end of input.
struct ContractInput {
  std::vector<Record> records;
  std::vector<int> inputs;  // input ordinal of each record
  // (p, wm): ProcessWatermark(wm) after the first p records; p ascending.
  std::vector<std::pair<size_t, Timestamp>> watermarks;
};

// Keyed records in mildly disordered timestamps, so the window operator
// also sees late records (behind the last watermark) and reorders the
// rest. Half of them carry the key hash a hash edge stamps on field 0.
// With `num_inputs` 2, the input ordinal switches at random points.
ContractInput MakeContractInput(size_t n, int64_t num_keys, int num_inputs,
                                uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int64_t> key(0, num_keys - 1);
  std::uniform_int_distribution<int64_t> val(-50, 50);
  std::uniform_int_distribution<int64_t> jitter(-12, 12);
  std::uniform_int_distribution<size_t> wm_gap(1, 400);
  std::uniform_int_distribution<size_t> input_run(1, 500);
  std::uniform_int_distribution<int64_t> slack(0, 20);
  ContractInput in;
  Timestamp max_ts = 0;
  Timestamp wm = kMinTimestamp;
  size_t next_wm = wm_gap(rng);
  size_t next_switch = input_run(rng);
  int input = 0;
  for (size_t i = 0; i < n; ++i) {
    const Timestamp ts =
        std::max<Timestamp>(0, static_cast<Timestamp>(4 * i) + jitter(rng));
    Record r = MakeRecord(ts, Value(key(rng)), Value(val(rng)));
    if (rng() % 2 == 0) r.key_hash = KeyHashOf(r.field(0));
    max_ts = std::max(max_ts, ts);
    in.records.push_back(std::move(r));
    if (i + 1 == next_switch) {
      input = (input + 1) % num_inputs;
      next_switch += input_run(rng);
    }
    in.inputs.push_back(input);
    if (i + 1 == next_wm) {
      wm = std::max(wm, max_ts - slack(rng));
      in.watermarks.emplace_back(i + 1, wm);
      next_wm += wm_gap(rng);
    }
  }
  return in;
}

class DeltaCapture : public ChangelogSink {
 public:
  Status Append(std::string_view record) override {
    bytes += std::to_string(record.size()) + ":";
    bytes.append(record);
    return Status::Ok();
  }
  std::string bytes;
};

// Snapshot bytes and, for operators with incremental state, the changelog
// records since the previous call (SnapshotDelta clears them).
std::string StateBytes(Operator* op) {
  BinaryWriter w;
  Status st = op->SnapshotState(&w);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::string bytes = w.Release();
  if (op->SupportsIncrementalState()) {
    DeltaCapture delta;
    st = op->SnapshotDelta(&delta);
    EXPECT_TRUE(st.ok()) << st.ToString();
    bytes += "|" + delta.bytes;
  }
  return bytes;
}

std::vector<Record> ContractOutput(const ContractSubject& subject,
                                   std::vector<Record>* collected) {
  return subject.sink != nullptr ? subject.sink->records()
                                 : std::move(*collected);
}

// Drives one instance record-at-a-time and one over random batch splits
// (sizes 1 to 300, never across a watermark or an input switch), then
// compares the emitted records and, after every watermark and at the end,
// the state bytes (changelog recording on).
void ExpectBatchContract(const SubjectFn& make, const ContractInput& in,
                         uint32_t split_seed) {
  const std::string run = "split seed " + std::to_string(split_seed);
  ContractSubject ref = make();
  ContractSubject batched = make();
  for (ContractSubject* s : {&ref, &batched}) {
    ASSERT_TRUE(s->op->Open(OperatorContext{}).ok());
    s->op->EnableIncrementalState();
  }
  std::vector<Record> ref_records, batched_records;
  VectorCollector ref_out(&ref_records), batched_out(&batched_records);

  std::mt19937 rng(split_seed);
  std::uniform_int_distribution<size_t> small(1, 4);
  std::uniform_int_distribution<size_t> large(1, 300);
  size_t pos = 0;
  const auto drive_to = [&](size_t end) {
    for (size_t i = pos; i < end; ++i) {
      ref.op->ProcessRecord(in.inputs[i], Record(in.records[i]), &ref_out);
    }
    while (pos < end) {
      // One in four batches is tiny, so one-record batches are common.
      size_t cut = std::min(end, pos + (rng() % 4 == 0 ? small(rng)
                                                        : large(rng)));
      for (size_t i = pos + 1; i < cut; ++i) {
        if (in.inputs[i] != in.inputs[pos]) cut = i;
      }
      std::vector<Record> batch(in.records.begin() + pos,
                                in.records.begin() + cut);
      batched.op->ProcessBatch(in.inputs[pos], std::move(batch),
                               &batched_out);
      pos = cut;
    }
  };
  for (const auto& [at, wm] : in.watermarks) {
    drive_to(at);
    ref.op->ProcessWatermark(wm, &ref_out);
    batched.op->ProcessWatermark(wm, &batched_out);
    ASSERT_TRUE(StateBytes(ref.op.get()) == StateBytes(batched.op.get()))
        << "state differs: " << run << ", after watermark " << wm
        << " at record " << at;
  }
  drive_to(in.records.size());
  ref.op->ProcessWatermark(kMaxTimestamp, &ref_out);
  batched.op->ProcessWatermark(kMaxTimestamp, &batched_out);
  ref.op->OnEndOfInput(&ref_out);
  batched.op->OnEndOfInput(&batched_out);
  EXPECT_TRUE(StateBytes(ref.op.get()) == StateBytes(batched.op.get()))
      << "state differs: " << run << ", at end of input";
  const std::vector<Record> want = ContractOutput(ref, &ref_records);
  EXPECT_FALSE(want.empty()) << run;
  ExpectIdenticalOutput(want, ContractOutput(batched, &batched_records), run);
  for (ContractSubject* s : {&ref, &batched}) {
    ASSERT_TRUE(s->op->Close().ok());
  }
}

// Sweeps inputs and batch splits: four inputs, two split seeds each.
void ExpectBatchContract(const SubjectFn& make, int64_t num_keys = 16,
                         int num_inputs = 1) {
  for (uint32_t seed = 1; seed <= 4; ++seed) {
    const ContractInput in =
        MakeContractInput(3'000, num_keys, num_inputs, seed);
    for (uint32_t split = 0; split < 2; ++split) {
      ExpectBatchContract(make, in, 100 * seed + split);
    }
  }
}

SubjectFn OperatorSubject(std::function<std::unique_ptr<Operator>()> make) {
  return [make = std::move(make)] { return ContractSubject{make(), nullptr}; };
}

TEST(BatchContractTest, Map) {
  ExpectBatchContract(OperatorSubject([] {
    return std::make_unique<MapOperator>("map", [](Record&& r) {
      r.fields[1] = Value(r.field(1).AsInt64() * 3 + 1);
      return std::move(r);
    });
  }));
}

TEST(BatchContractTest, FlatMap) {
  ExpectBatchContract(OperatorSubject([] {
    return std::make_unique<FlatMapOperator>(
        "flatmap", [](Record&& r, Collector* out) {
          // 0, 1 or 2 outputs per input, derived from record content.
          const int64_t v = r.field(1).AsInt64();
          if (v % 5 == 0) return;
          if (v % 3 == 0) out->Emit(Record(r));
          out->Emit(std::move(r));
        });
  }));
}

TEST(BatchContractTest, Filter) {
  ExpectBatchContract(OperatorSubject([] {
    return std::make_unique<FilterOperator>("filter", [](const Record& r) {
      return r.field(1).AsInt64() % 3 != 0;
    });
  }));
}

std::unique_ptr<Operator> SumReduce() {
  return std::make_unique<KeyedReduceOperator>(
      "reduce", KeyField(0), [](const Record& acc, const Record& next) {
        return MakeRecord(acc.timestamp, acc.field(0),
                          Value(acc.field(1).AsInt64() +
                                next.field(1).AsInt64()));
      });
}

TEST(BatchContractTest, KeyedReduce) {
  ExpectBatchContract(OperatorSubject(SumReduce));
}

TEST(BatchContractTest, KeyedReduceHighCardinality) {
  // More keys than a batch holds: most records reach a key the batch has
  // not touched yet.
  ExpectBatchContract(OperatorSubject(SumReduce), /*num_keys=*/1'000);
}

TEST(BatchContractTest, UnionOfTwoInputs) {
  ExpectBatchContract(OperatorSubject([] {
                        return std::make_unique<UnionOperator>("union");
                      }),
                      /*num_keys=*/16, /*num_inputs=*/2);
}

TEST(BatchContractTest, SinkOverCollectSink) {
  ExpectBatchContract([] {
    auto sink = std::make_shared<CollectSink>();
    return ContractSubject{std::make_unique<SinkOperator>("sink", sink), sink};
  });
}

SubjectFn WindowSubject(WindowBackend backend, DynAggKind kind,
                        std::vector<std::shared_ptr<const WindowFunction>>
                            windows) {
  return OperatorSubject([=] {
    WindowAggSpec spec;
    spec.key = KeyField(0);
    spec.value_field = 1;
    spec.agg_kind = kind;
    spec.windows = windows;
    spec.backend = backend;
    return std::make_unique<WindowAggOperator>("window", spec);
  });
}

TEST(BatchContractTest, SharedWindowAggregates) {
  for (DynAggKind kind : {DynAggKind::kSum, DynAggKind::kMin,
                          DynAggKind::kAvg, DynAggKind::kLast}) {
    ExpectBatchContract(WindowSubject(
        WindowBackend::kShared, kind,
        {std::make_shared<TumblingWindowFn>(100),
         std::make_shared<SlidingWindowFn>(240, 80),
         std::make_shared<SessionWindowFn>(30),
         std::make_shared<CountWindowFn>(7)}));
  }
}

TEST(BatchContractTest, EagerWindowAggregates) {
  for (DynAggKind kind : {DynAggKind::kSum, DynAggKind::kMax}) {
    ExpectBatchContract(WindowSubject(
        WindowBackend::kEager, kind,
        {std::make_shared<TumblingWindowFn>(100),
         std::make_shared<SlidingWindowFn>(240, 80)}));
  }
}

}  // namespace
}  // namespace streamline
