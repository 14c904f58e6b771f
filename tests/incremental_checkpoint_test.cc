// Incremental (changelog-based) checkpoints:
//  - IncrementalSnapshotStore manifest chains, compaction, reopen, and
//    manifest-aware garbage collection;
//  - the byte-identity property: restoring a base snapshot and replaying
//    the changelog tail reproduces the exact bytes a full snapshot of the
//    live operator would write, for every keyed operator;
//  - end-to-end exactly-once restore through the executor, the >=5x byte
//    reduction at a 10% mutation rate, and a crash-point matrix over every
//    WAL/manifest fault-injection site under a supervisor.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/datastream.h"
#include "common/fault_injection.h"
#include "dataflow/executor.h"
#include "dataflow/operators.h"
#include "dataflow/query_registry.h"
#include "dataflow/snapshot.h"
#include "dataflow/supervisor.h"
#include "dataflow/temporal_join.h"
#include "dataflow/window_operator.h"
#include "window/window_fn.h"

namespace streamline {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& tag) {
  const std::string dir =
      (fs::temp_directory_path() / ("slss_inc_" + tag)).string();
  fs::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Store level: manifest chains, compaction decisions, reopen, GC.

class IncrementalStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = TempDir(::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name());
  }
  void TearDown() override { fs::remove_all(root_); }

  // Appends `records` to a fresh segment for (`cp`, `key`) and seals it
  // onto the chain parented at `parent`.
  Status WriteDelta(IncrementalSnapshotStore* store, uint64_t cp,
                    const std::string& key, uint64_t parent,
                    const std::vector<std::string>& records) {
    auto seg = store->OpenDeltaSegment(cp, key);
    if (!seg.ok()) return seg.status();
    for (const auto& r : records) {
      STREAMLINE_RETURN_IF_ERROR((*seg)->Append(r));
    }
    return store->SealDeltas(cp, key, parent, std::move(*seg));
  }

  std::string root_;
};

TEST_F(IncrementalStoreTest, BaseAndDeltaChainRoundTrip) {
  IncrementalSnapshotStore store(root_);
  const std::string key = "node3/0";

  EXPECT_TRUE(store.NeedsBase(key, 0));
  ASSERT_TRUE(store.PutBase(1, key, "BASE").ok());
  EXPECT_FALSE(store.NeedsBase(key, 1));
  EXPECT_GE(store.BytesWrittenFor(1), 4u);

  ASSERT_TRUE(WriteDelta(&store, 2, key, 1, {"d1", "d2"}).ok());
  ASSERT_TRUE(WriteDelta(&store, 3, key, 2, {"d3"}).ok());

  ASSERT_TRUE(store.HasIncremental(1, key));
  ASSERT_TRUE(store.HasIncremental(3, key));
  auto snap = store.GetIncremental(3, key);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->base, "BASE");
  ASSERT_EQ(snap->deltas.size(), 2u);
  EXPECT_EQ(snap->deltas[0], (std::vector<std::string>{"d1", "d2"}));
  EXPECT_EQ(snap->deltas[1], (std::vector<std::string>{"d3"}));

  // The mid-chain checkpoint sees only its own prefix.
  auto mid = store.GetIncremental(2, key);
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ(mid->deltas.size(), 1u);

  // A checkpoint that never happened has no chain to extend.
  EXPECT_TRUE(store.NeedsBase(key, 99));
}

TEST_F(IncrementalStoreTest, EmptySegmentRepublishesParentManifest) {
  IncrementalSnapshotStore store(root_);
  const std::string key = "node3/0";
  ASSERT_TRUE(store.PutBase(1, key, "BASE").ok());
  ASSERT_TRUE(WriteDelta(&store, 2, key, 1, {}).ok());

  ASSERT_TRUE(store.HasIncremental(2, key));
  auto snap = store.GetIncremental(2, key);
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->base, "BASE");
  EXPECT_TRUE(snap->deltas.empty());
  // The untouched group's empty segment was deleted, not sealed.
  EXPECT_FALSE(fs::exists(root_ + "/wal/node3_0/seg2"));
}

TEST_F(IncrementalStoreTest, SealWithoutParentChainIsRejected) {
  IncrementalSnapshotStore store(root_);
  const Status st = WriteDelta(&store, 1, "node0/0", 0, {"x"});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(IncrementalStoreTest, CompactionThresholdForcesBase) {
  IncrementalSnapshotStore store(root_);
  store.SetCompactionThreshold(64);
  const std::string key = "node1/0";
  ASSERT_TRUE(store.PutBase(1, key, "BASE").ok());
  ASSERT_TRUE(WriteDelta(&store, 2, key, 1, {std::string(16, 'a')}).ok());
  EXPECT_FALSE(store.NeedsBase(key, 2));
  ASSERT_TRUE(WriteDelta(&store, 3, key, 2, {std::string(64, 'b')}).ok());
  // Chain bytes crossed the threshold: the next barrier must compact.
  EXPECT_TRUE(store.NeedsBase(key, 3));
}

TEST_F(IncrementalStoreTest, ReopenedStoreReadsExistingChains) {
  const std::string key = "node2/1";
  {
    IncrementalSnapshotStore store(root_);
    ASSERT_TRUE(store.PutBase(1, key, "BASE").ok());
    ASSERT_TRUE(WriteDelta(&store, 2, key, 1, {"d1"}).ok());
    store.MarkComplete(1);
    store.MarkComplete(2);
  }
  // A new process: fresh store over the same root.
  IncrementalSnapshotStore store(root_);
  EXPECT_EQ(store.LatestComplete(), 2u);
  ASSERT_TRUE(store.HasIncremental(2, key));
  auto snap = store.GetIncremental(2, key);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->base, "BASE");
  ASSERT_EQ(snap->deltas.size(), 1u);
  EXPECT_EQ(snap->deltas[0], (std::vector<std::string>{"d1"}));
  EXPECT_FALSE(store.NeedsBase(key, 2));
}

TEST_F(IncrementalStoreTest, PruningNeverDropsReferencedWalFiles) {
  IncrementalSnapshotStore store(root_);
  store.RetainLast(1);
  const std::string key = "node0/0";
  ASSERT_TRUE(store.PutBase(1, key, "BASE").ok());
  store.MarkComplete(1);
  for (uint64_t cp = 2; cp <= 4; ++cp) {
    ASSERT_TRUE(
        WriteDelta(&store, cp, key, cp - 1, {"d" + std::to_string(cp)}).ok());
    store.MarkComplete(cp);
  }
  // Only checkpoint 4 survives retention, but its manifest references the
  // whole chain -- base1 and seg2..seg4 must all still be readable.
  EXPECT_EQ(store.CompletedCheckpoints(), (std::vector<uint64_t>{4}));
  EXPECT_TRUE(fs::exists(root_ + "/wal/node0_0/base1"));
  auto snap = store.GetIncremental(4, key);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->base, "BASE");
  ASSERT_EQ(snap->deltas.size(), 3u);

  // A new compacted base orphans the old chain; GC reclaims it.
  ASSERT_TRUE(store.PutBase(5, key, "BASE2").ok());
  store.MarkComplete(5);
  EXPECT_FALSE(fs::exists(root_ + "/wal/node0_0/base1"));
  EXPECT_FALSE(fs::exists(root_ + "/wal/node0_0/seg2"));
  EXPECT_FALSE(fs::exists(root_ + "/wal/node0_0/seg4"));
  EXPECT_TRUE(fs::exists(root_ + "/wal/node0_0/base5"));
  auto latest = store.GetIncremental(5, key);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->base, "BASE2");
}

// ---------------------------------------------------------------------------
// Operator level: the byte-identity property. Restoring the base snapshot
// and replaying every sealed changelog record must leave the operator in a
// state whose *full* snapshot is byte-for-byte the live operator's -- the
// invariant the whole incremental path rests on (FlatHashMap serializes in
// insertion order, so replay must reproduce the structural op sequence).

class CaptureSink : public ChangelogSink {
 public:
  Status Append(std::string_view record) override {
    records.emplace_back(record);
    return Status::Ok();
  }
  std::vector<std::string> records;
};

class CaptureCollector : public Collector {
 public:
  void Emit(Record&& r) override { records.push_back(std::move(r)); }
  std::vector<Record> records;
};

std::string SnapshotBytes(const Operator& op) {
  BinaryWriter w;
  EXPECT_TRUE(op.SnapshotState(&w).ok());
  return w.Release();
}

void RestoreAndReplay(const std::string& base,
                      const std::vector<std::vector<std::string>>& segments,
                      Operator* op) {
  BinaryReader r(base);
  ASSERT_TRUE(op->RestoreState(&r).ok());
  for (const auto& seg : segments) {
    for (const auto& rec : seg) {
      BinaryReader dr(rec);
      ASSERT_TRUE(op->ApplyDelta(&dr).ok()) << "replaying delta record";
    }
  }
  op->ResetDelta();
}

Record KV(Timestamp ts, int64_t key, int64_t value) {
  return MakeRecord(ts, Value(key), Value(value));
}

TEST(IncrementalByteIdentityTest, KeyedReduce) {
  auto make = []() {
    return std::make_unique<KeyedReduceOperator>(
        "r", [](const Record& r) { return r.field(0); },
        [](const Record& acc, const Record& in) {
          Record out = acc;
          out.fields[1] =
              Value(acc.field(1).AsInt64() + in.field(1).AsInt64());
          return out;
        });
  };
  auto live = make();
  ASSERT_TRUE(live->Open(OperatorContext{}).ok());
  ASSERT_TRUE(live->SupportsIncrementalState());
  live->EnableIncrementalState();

  CaptureCollector out;
  uint64_t i = 0;
  // Epoch 0 -> base snapshot (as a barrier with NeedsBase would take it).
  for (; i < 100; ++i) live->ProcessRecord(0, KV(i, i % 17, i), &out);
  const std::string base = SnapshotBytes(*live);
  live->ResetDelta();

  // Three delta epochs: updates of old keys interleaved with new keys.
  std::vector<std::vector<std::string>> segments;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (uint64_t n = 0; n < 60; ++n, ++i) {
      const int64_t key = (i % 2 == 0) ? static_cast<int64_t>(i % 17)
                                       : static_cast<int64_t>(17 + i % 23);
      live->ProcessRecord(0, KV(i, key, i), &out);
    }
    CaptureSink seg;
    ASSERT_TRUE(live->SnapshotDelta(&seg).ok());
    segments.push_back(std::move(seg.records));
  }

  auto recovered = make();
  ASSERT_TRUE(recovered->Open(OperatorContext{}).ok());
  RestoreAndReplay(base, segments, recovered.get());
  EXPECT_EQ(SnapshotBytes(*recovered), SnapshotBytes(*live));

  // The recovered operator behaves identically from here on.
  CaptureCollector live_out, rec_out;
  for (uint64_t n = 0; n < 40; ++n, ++i) {
    live->ProcessRecord(0, KV(i, i % 17, i), &live_out);
    recovered->ProcessRecord(0, KV(i, i % 17, i), &rec_out);
  }
  ASSERT_EQ(live_out.records.size(), rec_out.records.size());
  for (size_t k = 0; k < live_out.records.size(); ++k) {
    EXPECT_EQ(live_out.records[k], rec_out.records[k]);
  }
  EXPECT_EQ(SnapshotBytes(*recovered), SnapshotBytes(*live));
}

void RunWindowAggByteIdentity(WindowBackend backend) {
  auto make = [backend]() {
    WindowAggSpec spec;
    spec.key = [](const Record& r) { return r.field(0); };
    spec.value_field = 1;
    spec.agg_kind = DynAggKind::kSum;
    spec.windows = {std::make_shared<TumblingWindowFn>(10)};
    spec.backend = backend;
    return std::make_unique<WindowAggOperator>("w", std::move(spec));
  };
  auto live = make();
  ASSERT_TRUE(live->Open(OperatorContext{}).ok());
  ASSERT_TRUE(live->SupportsIncrementalState());
  live->EnableIncrementalState();

  CaptureCollector out;
  Timestamp ts = 0;
  // Epoch 0: records + a watermark that fires some windows, then the base.
  for (; ts < 95; ++ts) live->ProcessRecord(0, KV(ts, ts % 5, ts), &out);
  live->ProcessWatermark(80, &out);
  const std::string base = SnapshotBytes(*live);
  live->ResetDelta();

  // Delta epochs: more records, watermark advances (window fires and slice
  // eviction mutate key state without any ProcessRecord touching the key --
  // every key the watermark advances must be marked dirty), and records
  // left buffered in the reorder heap (meta record coverage).
  std::vector<std::vector<std::string>> segments;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int n = 0; n < 47; ++n, ++ts) {
      live->ProcessRecord(0, KV(ts, ts % 5, ts), &out);
    }
    live->ProcessWatermark(ts - 12, &out);
    CaptureSink seg;
    ASSERT_TRUE(live->SnapshotDelta(&seg).ok());
    segments.push_back(std::move(seg.records));
  }

  auto recovered = make();
  ASSERT_TRUE(recovered->Open(OperatorContext{}).ok());
  RestoreAndReplay(base, segments, recovered.get());
  EXPECT_EQ(SnapshotBytes(*recovered), SnapshotBytes(*live));

  // Both emit identical results for the rest of the stream.
  CaptureCollector live_out, rec_out;
  for (int n = 0; n < 50; ++n, ++ts) {
    live->ProcessRecord(0, KV(ts, ts % 5, ts), &live_out);
    recovered->ProcessRecord(0, KV(ts, ts % 5, ts), &rec_out);
  }
  live->ProcessWatermark(ts, &live_out);
  recovered->ProcessWatermark(ts, &rec_out);
  ASSERT_EQ(live_out.records.size(), rec_out.records.size());
  for (size_t k = 0; k < live_out.records.size(); ++k) {
    EXPECT_EQ(live_out.records[k], rec_out.records[k]);
  }
  EXPECT_EQ(SnapshotBytes(*recovered), SnapshotBytes(*live));
}

TEST(IncrementalByteIdentityTest, WindowAggSharedBackend) {
  RunWindowAggByteIdentity(WindowBackend::kShared);
}

TEST(IncrementalByteIdentityTest, WindowAggEagerBackend) {
  RunWindowAggByteIdentity(WindowBackend::kEager);
}

// With windows [b, b+40) every 10 and one element at ts 5, watermark 40
// fires the last non-empty window and watermark 60 passes the end of the
// empty window [10, 50) without firing anything or changing any slice
// count. A watermark that changes the key there (moving the window end it
// waits for from 50 to 70) must put it in the delta; one that leaves it
// alone keeps recovery trivially exact. Either way the recovered bytes must
// be the live ones.
TEST(IncrementalByteIdentityTest, SilentSlidingAdvanceIsInDelta) {
  auto make = []() {
    WindowAggSpec spec;
    spec.key = [](const Record& r) { return r.field(0); };
    spec.value_field = 1;
    spec.windows = {std::make_shared<SlidingWindowFn>(40, 10)};
    return std::make_unique<WindowAggOperator>("w", std::move(spec));
  };
  auto live = make();
  ASSERT_TRUE(live->Open(OperatorContext{}).ok());
  live->EnableIncrementalState();

  CaptureCollector out;
  live->ProcessRecord(0, KV(5, 1, 1), &out);
  live->ProcessWatermark(6, &out);
  const std::string base = SnapshotBytes(*live);
  live->ResetDelta();

  std::vector<std::vector<std::string>> segments;
  for (Timestamp wm : {40, 60}) {
    live->ProcessWatermark(wm, &out);
    CaptureSink seg;
    ASSERT_TRUE(live->SnapshotDelta(&seg).ok());
    segments.push_back(std::move(seg.records));
  }
  EXPECT_EQ(out.records.size(), 4u);  // the windows ending 10, 20, 30, 40

  auto recovered = make();
  ASSERT_TRUE(recovered->Open(OperatorContext{}).ok());
  RestoreAndReplay(base, segments, recovered.get());
  EXPECT_EQ(SnapshotBytes(*recovered), SnapshotBytes(*live));
}

TEST(IncrementalByteIdentityTest, IntervalJoinWithErasesAndPhantoms) {
  auto make = []() {
    return std::make_unique<IntervalJoinOperator>(
        "j", [](const Record& r) { return r.field(0); },
        [](const Record& r) { return r.field(0); },
        /*lower=*/-5, /*upper=*/5);
  };
  auto live = make();
  ASSERT_TRUE(live->Open(OperatorContext{}).ok());
  live->EnableIncrementalState();

  CaptureCollector out;
  Timestamp ts = 0;
  for (; ts < 60; ++ts) {
    live->ProcessRecord(static_cast<int>(ts % 2), KV(ts, ts % 7, ts), &out);
  }
  live->ProcessWatermark(40, &out);  // evicts: upserts + erases
  const std::string base = SnapshotBytes(*live);
  live->ResetDelta();

  std::vector<std::vector<std::string>> segments;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int n = 0; n < 30; ++n, ++ts) {
      // A one-off key per epoch that the watermark below fully evicts
      // again: inserted and erased within the epoch -> phantom upsert.
      const int64_t key = (n == 0) ? 1000 + epoch : static_cast<int64_t>(ts % 7);
      live->ProcessRecord(static_cast<int>(ts % 2), KV(ts, key, ts), &out);
    }
    live->ProcessWatermark(ts - 8, &out);
    CaptureSink seg;
    ASSERT_TRUE(live->SnapshotDelta(&seg).ok());
    segments.push_back(std::move(seg.records));
  }

  auto recovered = make();
  ASSERT_TRUE(recovered->Open(OperatorContext{}).ok());
  RestoreAndReplay(base, segments, recovered.get());
  EXPECT_EQ(SnapshotBytes(*recovered), SnapshotBytes(*live));
}

TEST(IncrementalByteIdentityTest, TemporalJoinDimensionTable) {
  auto make = []() {
    TemporalJoinOperator::Spec spec;
    spec.fact_key = [](const Record& r) { return r.field(0); };
    spec.table_key = [](const Record& r) { return r.field(0); };
    return std::make_unique<TemporalJoinOperator>("t", std::move(spec));
  };
  auto live = make();
  ASSERT_TRUE(live->Open(OperatorContext{}).ok());
  live->EnableIncrementalState();

  CaptureCollector out;
  uint64_t i = 0;
  for (; i < 50; ++i) live->ProcessRecord(1, KV(i, i % 13, i), &out);
  const std::string base = SnapshotBytes(*live);
  live->ResetDelta();

  std::vector<std::vector<std::string>> segments;
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (int n = 0; n < 25; ++n, ++i) {
      live->ProcessRecord(1, KV(i, (i * 3) % 19, i), &out);
    }
    CaptureSink seg;
    ASSERT_TRUE(live->SnapshotDelta(&seg).ok());
    segments.push_back(std::move(seg.records));
  }

  auto recovered = make();
  ASSERT_TRUE(recovered->Open(OperatorContext{}).ok());
  RestoreAndReplay(base, segments, recovered.get());
  EXPECT_EQ(SnapshotBytes(*recovered), SnapshotBytes(*live));
}

// Malformed checkpoint bytes surface as a non-OK Status (so a supervisor
// can fall back to an older checkpoint) instead of aborting the process.
TEST(IncrementalByteIdentityTest, MalformedDynTableIsRejectedNotFatal) {
  auto registry = std::make_shared<QueryRegistry>();
  auto make = [&registry]() {
    WindowAggSpec spec;
    spec.key = [](const Record& r) { return r.field(0); };
    spec.value_field = 1;
    spec.windows = {std::make_shared<TumblingWindowFn>(10)};
    spec.registry = registry;
    return std::make_unique<WindowAggOperator>("w", std::move(spec));
  };
  auto live = make();
  ASSERT_TRUE(live->Open(OperatorContext{}).ok());
  CaptureCollector out;
  for (Timestamp ts = 0; ts < 20; ++ts) {
    live->ProcessRecord(0, KV(ts, ts % 3, ts), &out);
  }
  const uint64_t id = registry->AttachSliding(30, 10);
  live->ProcessWatermark(15, &out);  // drains the attach: one dyn entry
  const std::string base = SnapshotBytes(*live);

  // A meta delta record carrying the given dyn-query table.
  struct Entry {
    uint64_t id;
    uint8_t placement;
  };
  auto meta = [](const std::vector<Entry>& table) {
    BinaryWriter w;
    w.WriteU8(0);    // meta tag
    w.WriteI64(15);  // watermark
    w.WriteU64(20);  // arrival sequence
    w.WriteU64(table.size());  // applied command sequence
    w.WriteU64(table.size());
    for (const Entry& e : table) {
      w.WriteU64(e.id);
      w.WriteI64(30);
      w.WriteI64(10);
      w.WriteI64(0);
      w.WriteU8(e.placement);
      w.WriteBool(true);
      w.WriteI64(15);
    }
    w.WriteU64(0);  // empty reorder buffer
    return w.Release();
  };
  const uint8_t kShared = static_cast<uint8_t>(QueryPlacement::kShared);
  const std::vector<std::vector<Entry>> bad_tables = {
      {},                     // the table shrank
      {{id + 1, kShared}},    // the entry's id changed
      {{id, 7}},              // not a placement
  };
  for (const auto& table : bad_tables) {
    auto recovered = make();
    ASSERT_TRUE(recovered->Open(OperatorContext{}).ok());
    BinaryReader r(base);
    ASSERT_TRUE(recovered->RestoreState(&r).ok());
    const std::string rec = meta(table);
    BinaryReader dr(rec);
    EXPECT_FALSE(recovered->ApplyDelta(&dr).ok()) << table.size();
  }
  // A well-formed table with the same single entry still applies.
  auto recovered = make();
  ASSERT_TRUE(recovered->Open(OperatorContext{}).ok());
  BinaryReader r(base);
  ASSERT_TRUE(recovered->RestoreState(&r).ok());
  const std::string rec = meta({{id, kShared}});
  BinaryReader dr(rec);
  EXPECT_TRUE(recovered->ApplyDelta(&dr).ok());
}

// ---------------------------------------------------------------------------
// End-to-end: the executor wiring. Gated source (from checkpoint_test) so
// checkpoints land at deterministic stream positions.

struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t allowed = 0;
  bool abort = false;

  void Allow(uint64_t upto) {
    {
      std::lock_guard<std::mutex> lock(mu);
      allowed = std::max(allowed, upto);
    }
    cv.notify_all();
  }
  void Abort() {
    {
      std::lock_guard<std::mutex> lock(mu);
      abort = true;
    }
    cv.notify_all();
  }
};

class GatedSource : public SourceFunction {
 public:
  GatedSource(Gate* gate, uint64_t total, std::function<Record(uint64_t)> make)
      : gate_(gate), total_(total), make_(std::move(make)) {}

  Result<SourcePoll> Poll(SourceContext* ctx) override {
    if (pos_ >= total_) return SourcePoll::kExhausted;
    {
      std::lock_guard<std::mutex> lock(gate_->mu);
      if (gate_->abort) return SourcePoll::kExhausted;
      if (gate_->allowed <= pos_) return SourcePoll::kIdle;
    }
    Record r = make_(pos_);
    const Timestamp ts = r.timestamp;
    if (!ctx->Emit(std::move(r))) return SourcePoll::kExhausted;
    ++pos_;
    ctx->EmitWatermark(ts);
    return SourcePoll::kHasMore;
  }

  Status SnapshotState(BinaryWriter* w) const override {
    w->WriteU64(pos_);
    return Status::Ok();
  }
  Status RestoreState(BinaryReader* r) override {
    auto pos = r->ReadU64();
    if (!pos.ok()) return pos.status();
    pos_ = *pos;
    return Status::Ok();
  }
  std::string Name() const override { return "gated"; }

 private:
  Gate* gate_;
  uint64_t total_;
  std::function<Record(uint64_t)> make_;
  uint64_t pos_ = 0;
};

Record KeyedValue(uint64_t i) {
  return MakeRecord(static_cast<Timestamp>(i),
                    Value(static_cast<int64_t>(i % 7)),
                    Value(static_cast<int64_t>(i)));
}

std::shared_ptr<CollectSink> BuildReduceJob(
    Environment* env, Gate* gate, uint64_t total,
    std::function<Record(uint64_t)> make = KeyedValue) {
  auto src = env->FromSource(
      "gated",
      [gate, total, make](int, int) -> std::unique_ptr<SourceFunction> {
        return std::make_unique<GatedSource>(gate, total, make);
      },
      1);
  return src.KeyBy(0)
      .Reduce([](const Record& acc, const Record& in) {
        Record out = acc;
        out.fields[1] = Value(acc.field(1).AsInt64() + in.field(1).AsInt64());
        return out;
      })
      .Collect();
}

size_t CountFiles(const std::string& dir, const std::string& substr) {
  size_t n = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file() &&
        e.path().filename().string().find(substr) != std::string::npos) {
      ++n;
    }
  }
  return n;
}

TEST(IncrementalCheckpointE2ETest, RequiresIncrementalStore) {
  {
    Gate gate;
    Environment env;
    BuildReduceJob(&env, &gate, 10);
    JobOptions opts;
    opts.incremental_checkpoints = true;
    opts.snapshot_store = std::make_shared<SnapshotStore>();
    auto job = env.CreateJob(opts);
    ASSERT_FALSE(job.ok());
    EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument);
  }
  {
    Gate gate;
    Environment env;
    BuildReduceJob(&env, &gate, 10);
    JobOptions opts;
    opts.incremental_checkpoints = true;  // no store, no interval
    auto job = env.CreateJob(opts);
    ASSERT_FALSE(job.ok());
    EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(IncrementalCheckpointE2ETest, ExactlyOnceRestoreFromDeltaChain) {
  constexpr uint64_t kTotal = 500;
  const std::string dir = TempDir("e2e_restore");

  // Reference: uninterrupted run.
  std::vector<Record> reference;
  {
    Gate gate;
    gate.Allow(kTotal);
    Environment env;
    auto sink = BuildReduceJob(&env, &gate, kTotal);
    ASSERT_TRUE(env.Execute().ok());
    reference = sink->records();
    ASSERT_EQ(reference.size(), kTotal);
  }

  auto store = std::make_shared<IncrementalSnapshotStore>(dir);
  uint64_t cp1 = 0, cp2 = 0;

  // Run 1: base checkpoint at 150, delta checkpoint at 300, crash at 380.
  std::vector<Record> first_outputs;
  {
    Gate gate;
    Environment env;
    auto sink = BuildReduceJob(&env, &gate, kTotal);
    JobOptions opts;
    opts.snapshot_store = store;
    opts.incremental_checkpoints = true;
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    ASSERT_TRUE((*job)->Start().ok());

    gate.Allow(150);
    while (sink->size() < 150) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cp1 = (*job)->TriggerCheckpoint();
    gate.Allow(300);
    ASSERT_TRUE((*job)->AwaitCheckpoint(cp1, 10.0));
    while (sink->size() < 300) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cp2 = (*job)->TriggerCheckpoint();
    gate.Allow(380);
    ASSERT_TRUE((*job)->AwaitCheckpoint(cp2, 10.0));
    while (sink->size() < 380) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    gate.Abort();
    ASSERT_TRUE((*job)->AwaitCompletion().ok());

    const int64_t offset = sink->BarrierOffset(cp2);
    ASSERT_EQ(offset, 300);
    auto all = sink->records();
    first_outputs.assign(all.begin(), all.begin() + offset);
  }

  // The keyed reduce wrote a manifest-backed checkpoint: cp1 carries a
  // base, cp2 extends the chain with a sealed segment.
  EXPECT_GE(CountFiles(dir + "/chk" + std::to_string(cp2), ".manifest"), 1u);
  EXPECT_GE(CountFiles(dir + "/wal", "base"), 1u);
  EXPECT_GE(CountFiles(dir + "/wal", "seg"), 1u);
  EXPECT_GT(store->BytesWrittenFor(cp2), 0u);

  // Run 2: restore from the delta chain and finish the stream.
  std::vector<Record> second_outputs;
  {
    Gate gate;
    gate.Allow(kTotal);
    Environment env;
    auto sink = BuildReduceJob(&env, &gate, kTotal);
    JobOptions opts;
    opts.snapshot_store = store;
    opts.incremental_checkpoints = true;
    opts.restore_from_checkpoint = cp2;
    auto job = env.CreateJob(opts);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    ASSERT_TRUE((*job)->Run().ok());
    second_outputs = sink->records();
  }

  ASSERT_EQ(first_outputs.size() + second_outputs.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    const Record& got = i < first_outputs.size()
                            ? first_outputs[i]
                            : second_outputs[i - first_outputs.size()];
    EXPECT_EQ(got, reference[i]) << "at index " << i;
  }
  fs::remove_all(dir);
}

TEST(IncrementalCheckpointE2ETest, FiveFoldByteReductionAtTenPercentMutation) {
  // 100k-key state; the second epoch touches 10% of the keys. The delta
  // checkpoint must cost at least 5x less than the base (it is ~10x less
  // in practice, plus segment/manifest overhead).
  constexpr uint64_t kKeys = 100000;
  constexpr uint64_t kMutations = 10000;
  // Tail records keep the source alive (idle at the gate) while the delta
  // checkpoint's barrier is injected.
  constexpr uint64_t kTotal = kKeys + kMutations + 10;
  const std::string dir = TempDir("bytes");

  auto make = [](uint64_t i) {
    const int64_t key = i < kKeys
                            ? static_cast<int64_t>(i)
                            : static_cast<int64_t>(((i - kKeys) * 7) % kKeys);
    return MakeRecord(static_cast<Timestamp>(i), Value(key),
                      Value(static_cast<int64_t>(i)));
  };

  Gate gate;
  Environment env;
  auto sink = BuildReduceJob(&env, &gate, kTotal, make);
  JobOptions opts;
  auto store = std::make_shared<IncrementalSnapshotStore>(dir);
  opts.snapshot_store = store;
  opts.incremental_checkpoints = true;
  opts.changelog_compaction_bytes = 256u << 20;  // keep cp2 a delta
  auto job = env.CreateJob(opts);
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Start().ok());

  gate.Allow(kKeys);
  while (sink->size() < kKeys) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t cp_base = (*job)->TriggerCheckpoint();
  gate.Allow(kKeys + kMutations);
  ASSERT_TRUE((*job)->AwaitCheckpoint(cp_base, 30.0));
  while (sink->size() < kKeys + kMutations) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t cp_delta = (*job)->TriggerCheckpoint();
  gate.Allow(kTotal);
  ASSERT_TRUE((*job)->AwaitCheckpoint(cp_delta, 30.0));
  ASSERT_TRUE((*job)->AwaitCompletion().ok());

  const size_t base_bytes = store->BytesWrittenFor(cp_base);
  const size_t delta_bytes = store->BytesWrittenFor(cp_delta);
  ASSERT_GT(base_bytes, 0u);
  ASSERT_GT(delta_bytes, 0u);
  EXPECT_GE(base_bytes, 5 * delta_bytes)
      << "base=" << base_bytes << " delta=" << delta_bytes;
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash-point matrix: a one-shot fault at every WAL / manifest site of the
// durability protocol; the supervised job must recover from the last
// complete checkpoint and commit exactly the fault-free output.

constexpr uint64_t kChaosTotal = 2000;
constexpr int64_t kChaosKeys = 7;
constexpr int64_t kChaosWindow = 50;

class ChaosSource : public SourceFunction {
 public:
  explicit ChaosSource(uint64_t total) : total_(total) {}

  Result<SourcePoll> Poll(SourceContext* ctx) override {
    if (pos_ >= total_) return SourcePoll::kExhausted;
    Record r = MakeRecord(static_cast<Timestamp>(pos_),
                          Value(static_cast<int64_t>(pos_ % kChaosKeys)),
                          Value(static_cast<int64_t>(pos_)));
    const Timestamp ts = r.timestamp;
    if (!ctx->Emit(std::move(r))) return SourcePoll::kExhausted;
    ++pos_;
    ctx->EmitWatermark(ts);
    if (pos_ % 100 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return pos_ < total_ ? SourcePoll::kHasMore : SourcePoll::kExhausted;
  }

  Status SnapshotState(BinaryWriter* w) const override {
    w->WriteU64(pos_);
    return Status::Ok();
  }
  Status RestoreState(BinaryReader* r) override {
    auto pos = r->ReadU64();
    if (!pos.ok()) return pos.status();
    pos_ = *pos;
    return Status::Ok();
  }
  std::string Name() const override { return "chaos"; }

 private:
  uint64_t total_;
  uint64_t pos_ = 0;
};

std::shared_ptr<TransactionalCollectSink> BuildWindowJob(Environment* env) {
  auto sink = std::make_shared<TransactionalCollectSink>();
  env->FromSource("gen",
                  [](int, int) -> std::unique_ptr<SourceFunction> {
                    return std::make_unique<ChaosSource>(kChaosTotal);
                  },
                  1)
      .KeyBy(0)
      .Window(std::make_shared<TumblingWindowFn>(kChaosWindow))
      .Aggregate(DynAggKind::kSum, 1, WindowBackend::kShared, "agg")
      .Sink(sink, "sink");
  return sink;
}

using WindowKey = std::tuple<int64_t, int64_t, int64_t, int64_t>;
std::map<WindowKey, std::pair<double, int>> Summarize(
    const std::vector<Record>& records) {
  std::map<WindowKey, std::pair<double, int>> out;
  for (const Record& r : records) {
    WindowKey k{r.field(0).AsInt64(), r.field(1).AsInt64(),
                r.field(2).AsInt64(), r.field(3).AsInt64()};
    auto [it, inserted] = out.try_emplace(k, r.field(4).AsDouble(), 1);
    if (!inserted) ++it->second.second;
  }
  return out;
}

std::map<WindowKey, std::pair<double, int>> FaultFreeReference() {
  Environment env;
  auto sink = BuildWindowJob(&env);
  EXPECT_TRUE(env.Execute().ok());
  sink->OnBarrier(9999);
  auto ref = Summarize(sink->committed());
  EXPECT_EQ(ref.size(),
            static_cast<size_t>(kChaosKeys * (kChaosTotal / kChaosWindow)));
  return ref;
}

/// One-shot `rule` into the incremental durability protocol; the
/// supervised job must still commit exactly the fault-free output.
void RunIncrementalChaosVariant(FaultInjector::Rule rule) {
  static const auto kReference = FaultFreeReference();
  const std::string dir = TempDir("chaos_" + rule.site);

  auto injector = std::make_shared<FaultInjector>();
  injector->AddRule(std::move(rule));

  Environment env;
  auto sink = BuildWindowJob(&env);
  JobOptions opts;
  opts.checkpoint_interval_ms = 2;
  opts.fault_injector = injector;
  opts.incremental_checkpoints = true;
  opts.snapshot_store = std::make_shared<IncrementalSnapshotStore>(dir);
  RestartPolicy policy;
  policy.max_restarts = 5;
  policy.initial_backoff_ms = 1;
  SupervisionStats stats;
  const Status st = env.ExecuteSupervised(opts, policy, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_GE(stats.restarts, 1) << "fault never fired";
  EXPECT_EQ(injector->fires(), 1u);

  sink->OnBarrier(9999);
  const auto got = Summarize(sink->committed());
  ASSERT_EQ(got.size(), kReference.size());
  for (const auto& [k, v] : kReference) {
    auto it = got.find(k);
    ASSERT_NE(it, got.end())
        << "missing window (key=" << std::get<0>(k)
        << ", start=" << std::get<1>(k) << ")";
    EXPECT_EQ(it->second.first, v.first)
        << "wrong sum for key " << std::get<0>(k)
        << ", start=" << std::get<1>(k);
    EXPECT_EQ(it->second.second, 1)
        << "duplicate committed window (key=" << std::get<0>(k)
        << ", start=" << std::get<1>(k) << ")";
  }
  fs::remove_all(dir);
}

TEST(IncrementalChaosTest, CrashAtWalAppendRecovers) {
  RunIncrementalChaosVariant(FaultInjector::FailAtHit("wal:append", 1));
}

TEST(IncrementalChaosTest, CrashAtTornWalAppendRecovers) {
  // Fires mid-write: half a frame lands in the segment, modeling a real
  // crash between write() and completion.
  RunIncrementalChaosVariant(FaultInjector::FailAtHit("wal:append_torn", 2));
}

TEST(IncrementalChaosTest, CrashAtWalSyncRecovers) {
  RunIncrementalChaosVariant(FaultInjector::FailAtHit("wal:sync", 1));
}

TEST(IncrementalChaosTest, CrashAtSealRecovers) {
  RunIncrementalChaosVariant(FaultInjector::FailAtHit("wal:seal", 1));
}

TEST(IncrementalChaosTest, CrashAtCompactionRecovers) {
  RunIncrementalChaosVariant(FaultInjector::FailAtHit("wal:compact", 1));
}

TEST(IncrementalChaosTest, CrashAtManifestPublishRecovers) {
  RunIncrementalChaosVariant(FaultInjector::FailAtHit("manifest:publish", 1));
}

}  // namespace
}  // namespace streamline
