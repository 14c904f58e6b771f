// Property tests for the pre-hashed keyed-state backend: operator results
// must match an std::unordered_map reference model under random keyed
// workloads, snapshots must be byte-deterministic across rehash histories,
// and keyed operators must never recompute a hash the shuffle computed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/datastream.h"
#include "common/random.h"
#include "common/serde.h"
#include "dataflow/keyed_state.h"
#include "dataflow/query_registry.h"

namespace streamline {
namespace {

struct VecCollector : public Collector {
  void Emit(Record&& r) override { records.push_back(std::move(r)); }
  std::vector<Record> records;
};

std::vector<Record> RandomKeyedWorkload(uint64_t seed, int n, int key_space) {
  Rng rng(seed);
  std::vector<Record> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(MakeRecord(
        i, Value(static_cast<int64_t>(rng.NextBelow(key_space))),
        Value(static_cast<double>(rng.NextBelow(1000)))));
  }
  return out;
}

// --- equivalence vs. the unordered_map reference model ---------------------

TEST(KeyedStatePropertyTest, ReduceMatchesReferenceModel) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const auto workload = RandomKeyedWorkload(seed, 2000, 97);
    // Reference: per-key running sum in an unordered_map.
    std::unordered_map<int64_t, double> ref;
    for (const Record& r : workload) {
      ref[r.field(0).AsInt64()] += r.field(1).AsDouble();
    }

    Environment env(2);
    auto sink =
        env.FromRecords(workload)
            .KeyBy(0)
            .Reduce([](const Record& acc, const Record& in) {
              return MakeRecord(0, acc.field(0),
                                Value(acc.field(1).AsDouble() +
                                      in.field(1).AsDouble()));
            })
            .Collect();
    ASSERT_TRUE(env.Execute().ok());
    // The last emission per key carries the final accumulator.
    std::unordered_map<int64_t, double> got;
    for (const Record& r : sink->records()) {
      got[r.field(0).AsInt64()] = r.field(1).AsDouble();
    }
    ASSERT_EQ(got.size(), ref.size()) << "seed " << seed;
    for (const auto& [k, v] : ref) {
      ASSERT_TRUE(got.count(k)) << "seed " << seed << " key " << k;
      EXPECT_DOUBLE_EQ(got[k], v) << "seed " << seed << " key " << k;
    }
  }
}

TEST(KeyedStatePropertyTest, WindowAggMatchesReferenceModel) {
  for (uint64_t seed : {11u, 12u}) {
    const auto workload = RandomKeyedWorkload(seed, 3000, 64);
    const int64_t range = 100;
    // Reference: per (key, tumbling window) sum.
    std::map<std::pair<int64_t, int64_t>, double> ref;
    for (const Record& r : workload) {
      const int64_t wstart = (r.timestamp / range) * range;
      ref[{r.field(0).AsInt64(), wstart}] += r.field(1).AsDouble();
    }

    Environment env(2);
    auto sink = env.FromRecords(workload)
                    .KeyBy(0)
                    .Window(std::make_shared<TumblingWindowFn>(range))
                    .Aggregate(DynAggKind::kSum, 1)
                    .Collect();
    ASSERT_TRUE(env.Execute().ok());
    std::map<std::pair<int64_t, int64_t>, double> got;
    for (const Record& r : sink->records()) {
      got[{r.field(0).AsInt64(), r.field(1).AsInt64()}] =
          r.field(4).AsDouble();
    }
    ASSERT_EQ(got.size(), ref.size()) << "seed " << seed;
    for (const auto& [kw, v] : ref) {
      ASSERT_TRUE(got.count(kw)) << "seed " << seed;
      EXPECT_DOUBLE_EQ(got[kw], v) << "seed " << seed;
    }
  }
}

// --- snapshot determinism --------------------------------------------------

// Drives `make_op()` instances through snapshot -> restore -> snapshot and
// expects byte-identical buffers. The restored map has a different rehash
// history (one presized Reserve instead of incremental growth), so equality
// proves serialization order is independent of capacity history.
template <typename MakeOp, typename Feed>
void ExpectSnapshotRoundTripStable(MakeOp make_op, Feed feed) {
  auto op = make_op();
  VecCollector out;
  feed(op.get(), &out);
  BinaryWriter w1;
  ASSERT_TRUE(op->SnapshotState(&w1).ok());

  auto restored = make_op();
  BinaryReader r(w1.buffer());
  ASSERT_TRUE(restored->RestoreState(&r).ok());
  BinaryWriter w2;
  ASSERT_TRUE(restored->SnapshotState(&w2).ok());
  ASSERT_EQ(w1.buffer().size(), w2.buffer().size());
  EXPECT_TRUE(w1.buffer() == w2.buffer());

  // Second hop: restore the restored snapshot; still byte-stable.
  auto restored2 = make_op();
  BinaryReader r2(w2.buffer());
  ASSERT_TRUE(restored2->RestoreState(&r2).ok());
  BinaryWriter w3;
  ASSERT_TRUE(restored2->SnapshotState(&w3).ok());
  EXPECT_TRUE(w1.buffer() == w3.buffer());
}

KeySelector Key0() { return KeyField(0); }

TEST(KeyedStatePropertyTest, ReduceSnapshotByteStableAcrossRestore) {
  ExpectSnapshotRoundTripStable(
      [] {
        return std::make_unique<KeyedReduceOperator>(
            "reduce", Key0(), [](const Record& a, const Record& b) {
              return MakeRecord(0, a.field(0),
                                Value(a.field(1).AsDouble() +
                                      b.field(1).AsDouble()));
            });
      },
      [](KeyedReduceOperator* op, Collector* out) {
        // Interleaved inserts + churn force several rehashes.
        for (const Record& r : RandomKeyedWorkload(7, 4000, 1500)) {
          op->ProcessRecord(0, Record(r), out);
        }
      });
}

TEST(KeyedStatePropertyTest, IntervalJoinSnapshotByteStableAcrossRestore) {
  ExpectSnapshotRoundTripStable(
      [] {
        return std::make_unique<IntervalJoinOperator>("ij", Key0(), Key0(),
                                                      -10, 10);
      },
      [](IntervalJoinOperator* op, Collector* out) {
        const auto lefts = RandomKeyedWorkload(21, 1500, 400);
        const auto rights = RandomKeyedWorkload(22, 1500, 400);
        for (size_t i = 0; i < lefts.size(); ++i) {
          op->ProcessRecord(0, Record(lefts[i]), out);
          op->ProcessRecord(1, Record(rights[i]), out);
          // Periodic eviction mixes Erase into the history.
          if (i % 500 == 499) {
            op->ProcessWatermark(static_cast<Timestamp>(i) - 400, out);
          }
        }
      });
}

TEST(KeyedStatePropertyTest, WindowAggSnapshotByteStableAcrossRestore) {
  for (WindowBackend backend :
       {WindowBackend::kShared, WindowBackend::kEager}) {
    ExpectSnapshotRoundTripStable(
        [backend] {
          WindowAggSpec spec;
          spec.key = Key0();
          spec.value_field = 1;
          spec.agg_kind = DynAggKind::kSum;
          spec.windows = {std::make_shared<SlidingWindowFn>(100, 25)};
          spec.backend = backend;
          auto op = std::make_unique<WindowAggOperator>("wagg", spec);
          EXPECT_TRUE(op->Open(OperatorContext{}).ok());
          return op;
        },
        [](WindowAggOperator* op, Collector* out) {
          for (const Record& r : RandomKeyedWorkload(31, 3000, 800)) {
            op->ProcessRecord(0, Record(r), out);
          }
          // Partially advance so per-key window state is non-trivial but
          // plenty of keys/windows stay open in the snapshot.
          op->ProcessWatermark(1500, out);
        });
  }
}

TEST(KeyedStatePropertyTest, TemporalJoinSnapshotByteStableAcrossRestore) {
  ExpectSnapshotRoundTripStable(
      [] {
        TemporalJoinOperator::Spec spec;
        spec.fact_key = Key0();
        spec.table_key = Key0();
        spec.table_width = 2;
        return std::make_unique<TemporalJoinOperator>("tj", spec);
      },
      [](TemporalJoinOperator* op, Collector* out) {
        for (const Record& r : RandomKeyedWorkload(41, 3000, 900)) {
          op->ProcessRecord(1, Record(r), out);
        }
      });
}

// --- hash-once contract ----------------------------------------------------

// Counts every Value::Hash() call during a keyed end-to-end run. The hash
// shuffle computes exactly one hash per routed record; the keyed operators
// must consume the carried hash and add zero.
TEST(KeyedStatePropertyTest, OperatorsNeverRehashShuffledRecords) {
  const int n = 1000;
  const auto workload = RandomKeyedWorkload(51, n, 128);

  Environment env(2);
  auto sink = env.FromRecords(workload)
                  .KeyBy(0)
                  .Window(std::make_shared<TumblingWindowFn>(50))
                  .Aggregate(DynAggKind::kSum, 1)
                  .Collect();

  std::atomic<uint64_t> calls{0};
  internal::value_hash_calls = &calls;
  const Status st = env.Execute();
  internal::value_hash_calls = nullptr;
  ASSERT_TRUE(st.ok());
  ASSERT_FALSE(sink->records().empty());
  // One hash per record crossing the single hash edge, none elsewhere.
  EXPECT_EQ(calls.load(), static_cast<uint64_t>(n));
}

// Same contract for the running reduce (state lookup per record, so a
// re-hashing backend would double the count).
TEST(KeyedStatePropertyTest, ReduceNeverRehashesShuffledRecords) {
  const int n = 1000;
  const auto workload = RandomKeyedWorkload(52, n, 64);

  Environment env(2);
  auto sink = env.FromRecords(workload)
                  .KeyBy(0)
                  .Reduce([](const Record& a, const Record& b) {
                    return MakeRecord(0, a.field(0),
                                      Value(a.field(1).AsDouble() +
                                            b.field(1).AsDouble()));
                  })
                  .Collect();

  std::atomic<uint64_t> calls{0};
  internal::value_hash_calls = &calls;
  const Status st = env.Execute();
  internal::value_hash_calls = nullptr;
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(sink->records().size(), static_cast<size_t>(n));
  EXPECT_EQ(calls.load(), static_cast<uint64_t>(n));
}

// A generic (lambda) key with a caller-supplied hash-only selector: the
// shuffle must route through it without materializing key Values, and the
// keyed operator must still consume the carried hash.
TEST(KeyedStatePropertyTest, GenericKeyHashOnlySelectorRoutes) {
  const int n = 500;
  const auto workload = RandomKeyedWorkload(53, n, 32);

  std::unordered_map<int64_t, double> ref;
  for (const Record& r : workload) {
    ref[r.field(0).AsInt64() % 8] += r.field(1).AsDouble();
  }

  Environment env(2);
  KeySelector key = [](const Record& r) {
    return Value(r.field(0).AsInt64() % 8);
  };
  KeyHashFn key_hash = [](const Record& r) {
    return KeyHashOf(Value(r.field(0).AsInt64() % 8));
  };
  auto sink = env.FromRecords(workload)
                  .KeyBy(key, key_hash)
                  .Reduce([](const Record& a, const Record& b) {
                    return MakeRecord(0, a.field(0),
                                      Value(a.field(1).AsDouble() +
                                            b.field(1).AsDouble()));
                  })
                  .Collect();

  std::atomic<uint64_t> calls{0};
  internal::value_hash_calls = &calls;
  const Status st = env.Execute();
  internal::value_hash_calls = nullptr;
  ASSERT_TRUE(st.ok());

  // The accumulator's field 0 is the first raw key of its group; map it
  // back to the group id the reference model uses.
  std::unordered_map<int64_t, double> got;
  for (const Record& r : sink->records()) {
    got[r.field(0).AsInt64() % 8] = r.field(1).AsDouble();
  }
  ASSERT_EQ(got.size(), ref.size());
  for (const auto& [k, v] : ref) EXPECT_DOUBLE_EQ(got[k], v) << k;
  // Router: one hash per record through key_hash; operator: zero.
  EXPECT_EQ(calls.load(), static_cast<uint64_t>(n));
}


// --- on-disk format pin ----------------------------------------------------

class CaptureChangelog : public ChangelogSink {
 public:
  Status Append(std::string_view record) override {
    records.emplace_back(record);
    return Status::Ok();
  }
  std::vector<std::string> records;
};

// Feeds `op` one base epoch and three delta epochs (feed(op, epoch, out)
// with epoch 0..3) and digests every byte the checkpoint path writes: the
// base snapshot, each delta record, and the final full snapshot.
template <typename Feed>
uint32_t CheckpointDigest(Operator* op, Feed feed) {
  VecCollector out;
  EXPECT_TRUE(op->Open(OperatorContext{}).ok());
  op->EnableIncrementalState();
  feed(0, &out);
  BinaryWriter digest;
  BinaryWriter base;
  EXPECT_TRUE(op->SnapshotState(&base).ok());
  digest.WriteString(base.buffer());
  op->ResetDelta();
  for (int epoch = 1; epoch <= 3; ++epoch) {
    feed(epoch, &out);
    CaptureChangelog seg;
    EXPECT_TRUE(op->SnapshotDelta(&seg).ok());
    digest.WriteU64(seg.records.size());
    for (const std::string& rec : seg.records) digest.WriteString(rec);
  }
  BinaryWriter final_snapshot;
  EXPECT_TRUE(op->SnapshotState(&final_snapshot).ok());
  digest.WriteString(final_snapshot.buffer());
  return Crc32(digest.buffer());
}

Record PinKV(Timestamp ts, int64_t key, int64_t value) {
  return MakeRecord(ts, Value(key), Value(value));
}

// Checkpoints written by earlier builds must keep restoring, so the full
// snapshot and delta bytes of every keyed operator are pinned to digests
// recorded before the keyed-state protocol was factored out of the
// operators. A mismatch means the on-disk format changed.
TEST(KeyedStatePropertyTest, CheckpointBytesMatchPinnedFormat) {
  {
    KeyedReduceOperator op(
        "reduce", Key0(), [](const Record& acc, const Record& in) {
          Record out = acc;
          out.fields[1] = Value(acc.field(1).AsInt64() + in.field(1).AsInt64());
          return out;
        });
    const uint32_t d = CheckpointDigest(&op, [&](int epoch, Collector* out) {
      for (int64_t i = 0; i < 60; ++i) {
        const int64_t ts = epoch * 60 + i;
        const int64_t key = (i % 2 == 0) ? ts % 17 : 17 + epoch * 5 + i % 7;
        op.ProcessRecord(0, PinKV(ts, key, ts), out);
      }
    });
    EXPECT_EQ(d, 1942938470u) << "KeyedReduce";
  }
  {
    IntervalJoinOperator op("join", Key0(), Key0(), -5, 5);
    const uint32_t d = CheckpointDigest(&op, [&](int epoch, Collector* out) {
      for (int64_t i = 0; i < 40; ++i) {
        const int64_t ts = epoch * 40 + i;
        // A one-off key per epoch that the watermark evicts again within
        // the epoch: a phantom upsert followed by an erase.
        const int64_t key = (i == 0) ? 1000 + epoch : ts % 7;
        op.ProcessRecord(static_cast<int>(ts % 2), PinKV(ts, key, ts), out);
      }
      op.ProcessWatermark(epoch * 40 + 30, out);
    });
    EXPECT_EQ(d, 1692210716u) << "IntervalJoin";
  }
  {
    TemporalJoinOperator::Spec spec;
    spec.fact_key = Key0();
    spec.table_key = Key0();
    spec.table_width = 1;
    TemporalJoinOperator op("temporal", spec);
    const uint32_t d = CheckpointDigest(&op, [&](int epoch, Collector* out) {
      for (int64_t i = 0; i < 30; ++i) {
        const int64_t ts = epoch * 30 + i;
        op.ProcessRecord(1, PinKV(ts, (ts * 3) % 19, ts), out);
        op.ProcessRecord(0, PinKV(ts, ts % 23, ts), out);
      }
    });
    EXPECT_EQ(d, 2593073911u) << "TemporalJoin";
  }
  for (WindowBackend backend :
       {WindowBackend::kShared, WindowBackend::kEager}) {
    const bool shared = backend == WindowBackend::kShared;
    auto registry = std::make_shared<QueryRegistry>();
    WindowAggSpec spec;
    spec.key = Key0();
    spec.value_field = 1;
    spec.agg_kind = DynAggKind::kSum;
    spec.windows = {std::make_shared<SlidingWindowFn>(20, 5),
                    std::make_shared<TumblingWindowFn>(10)};
    spec.backend = backend;
    // The shared backend also pins the dyn-query table and the per-key
    // layout of attached (and detached) standing queries.
    if (shared) spec.registry = registry;
    WindowAggOperator op("wagg", spec);
    uint64_t attached = 0;
    const uint32_t d = CheckpointDigest(&op, [&](int epoch, Collector* out) {
      if (shared && epoch == 1) {
        attached = registry->AttachSliding(30, 10);
        const uint64_t q2 = registry->AttachSliding(2, 1);
        EXPECT_EQ(registry->PlacementOf(attached), QueryPlacement::kShared);
        EXPECT_EQ(registry->PlacementOf(q2), QueryPlacement::kStandalone);
      }
      if (shared && epoch == 2) {
        EXPECT_TRUE(registry->Detach(attached).ok());
      }
      for (int64_t i = 0; i < 50; ++i) {
        const int64_t ts = epoch * 50 + i;
        op.ProcessRecord(0, PinKV(ts, ts % 6, ts), out);
      }
      // Leaves the newest records in the reorder heap (meta record).
      op.ProcessWatermark(epoch * 50 + 38, out);
    });
    EXPECT_EQ(d, shared ? 1498351609u : 120826995u)
        << "WindowAgg shared=" << shared;
  }
}

// --- KeyedState delta replay ----------------------------------------------

struct I64Codec {
  void Write(const int64_t& v, BinaryWriter* w) const { w->WriteI64(v); }
  Status Read(int64_t* v, BinaryReader* r) const {
    auto read = r->ReadI64();
    if (!read.ok()) return read.status();
    *v = *read;
    return Status::Ok();
  }
};
using I64State = KeyedState<int64_t, I64Codec>;

std::string FullSnapshot(const I64State& state) {
  BinaryWriter w;
  EXPECT_TRUE(state.SnapshotState(&w).ok());
  return w.Release();
}

// Random upsert/erase/touch histories -- including keys inserted and erased
// again within one epoch (phantoms), erase-then-reinsert, and swap-removal
// of the last dense entry -- replayed as base + deltas into a fresh
// instance must reproduce the live map byte for byte and match a std::map
// reference model.
TEST(KeyedStatePropertyTest, RandomizedDeltaReplayReproducesState) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    I64State live("random", I64Codec{});
    live.EnableIncremental();
    std::map<int64_t, int64_t> model;
    int64_t next_fresh = 1000;

    auto upsert = [&](int64_t k, int64_t v) {
      const Value key(k);
      live.Emplace(key, KeyHashOf(key)).first->second = v;
      model[k] = v;
    };
    auto erase_at = [&](size_t index) {
      auto it = live.begin() + index;
      model.erase(it->first.AsInt64());
      live.Erase(it);
    };
    auto run_epoch = [&]() {
      const uint64_t ops = 50 + rng.NextBelow(200);
      for (uint64_t op = 0; op < ops; ++op) {
        const uint64_t dice = rng.NextBelow(100);
        const auto v = static_cast<int64_t>(rng.NextBelow(1 << 20));
        if (live.size() == 0 || dice < 45) {
          upsert(static_cast<int64_t>(rng.NextBelow(64)), v);
        } else if (dice < 60) {
          erase_at(rng.NextBelow(live.size()));
        } else if (dice < 70) {
          erase_at(live.size() - 1);  // swap-remove of the last entry
        } else if (dice < 78) {
          // Phantom: a fresh key inserted and erased within the epoch.
          const int64_t k = next_fresh++;
          upsert(k, v);
          erase_at(live.size() - 1);
          if (rng.NextBelow(2) == 0) upsert(k, v + 1);
        } else if (dice < 88) {
          // Erase then reinsert an existing key within the epoch.
          auto it = live.begin() + rng.NextBelow(live.size());
          const int64_t k = it->first.AsInt64();
          erase_at(static_cast<size_t>(it - live.begin()));
          upsert(k, v);
        } else {
          // In-place mutation reported through Touch.
          auto it = live.begin() + rng.NextBelow(live.size());
          it->second += 1;
          model[it->first.AsInt64()] = it->second;
          live.Touch(*it);
        }
      }
    };

    run_epoch();
    const std::string base = FullSnapshot(live);
    live.ResetDelta();
    std::vector<std::string> deltas;
    for (int epoch = 0; epoch < 4; ++epoch) {
      run_epoch();
      CaptureChangelog seg;
      ASSERT_TRUE(live.SnapshotDelta(&seg).ok());
      deltas.insert(deltas.end(), seg.records.begin(), seg.records.end());
    }

    I64State replayed("random", I64Codec{});
    replayed.EnableIncremental();
    BinaryReader r(base);
    ASSERT_TRUE(replayed.RestoreState(&r).ok()) << "seed " << seed;
    for (const std::string& rec : deltas) {
      BinaryReader dr(rec);
      ASSERT_TRUE(replayed.ApplyDelta(&dr).ok()) << "seed " << seed;
    }
    EXPECT_EQ(FullSnapshot(replayed), FullSnapshot(live)) << "seed " << seed;
    std::map<int64_t, int64_t> got;
    for (const auto& [key, value] : replayed) got[key.AsInt64()] = value;
    EXPECT_EQ(got, model) << "seed " << seed;
    // Restore and replay rebuild checkpointed state: they record nothing.
    CaptureChangelog after;
    ASSERT_TRUE(replayed.SnapshotDelta(&after).ok());
    EXPECT_TRUE(after.records.empty()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace streamline
