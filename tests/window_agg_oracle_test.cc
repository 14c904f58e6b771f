// WindowAggOperator against a plain-C++ oracle: the watermark walk the
// operator's timer index replaced. The reference keeps one slicer (or one
// set of eager windows) per key in insertion order and advances *every* key
// on *every* watermark; the operator advances only the keys that received
// records or are due. Both must emit the same record sequence and write the
// same snapshot bytes -- over both backends, periodic+session, count and
// punctuation windows, allowed lateness, three watermark cadences, a
// standing-query registry that attaches a shared and a standalone query
// mid-stream (and detaches one), windows with gaps (slide > range) in both
// places, and a restore from base + delta midway.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "dataflow/query_registry.h"
#include "dataflow/window_operator.h"
#include "window/window_fn.h"

namespace streamline {
namespace {

using OpenWindows = std::vector<std::pair<Window, DynPartial>>;

// Folds `lifted` into every window [b, b + range) on the (origin, slide)
// grid that contains `ts` and begins at or after `min_begin`; `open` stays
// sorted by Window::operator<.
void FoldIntoWindows(const DynAggAdapter& adapter, Duration range,
                     Duration slide, Timestamp origin, Timestamp ts,
                     Timestamp min_begin, const DynPartial& lifted,
                     OpenWindows* open) {
  const Timestamp d = ts - origin;
  Timestamp b = origin + (d >= 0 ? d / slide : (d - slide + 1) / slide) * slide;
  for (; b > ts - range; b -= slide) {
    if (b > ts || b < min_begin) continue;
    const Window w{b, b + range};
    auto it = std::lower_bound(
        open->begin(), open->end(), w,
        [](const auto& e, const Window& win) { return e.first < win; });
    if (it == open->end() || it->first != w) {
      it = open->insert(it, {w, adapter.Identity()});
    }
    it->second = adapter.Combine(it->second, lifted);
  }
}

void WriteWindows(const OpenWindows& open, BinaryWriter* w) {
  w->WriteU64(open.size());
  for (const auto& [window, partial] : open) {
    w->WriteI64(window.start);
    w->WriteI64(window.end);
    DynAggregate::SerializePartial(partial, w);
  }
}

/// The reference: same reorder buffer, same per-key state and snapshot
/// layout as WindowAggOperator, but every watermark advances every key.
class ReferenceWindowAgg {
 public:
  explicit ReferenceWindowAgg(const WindowAggSpec& spec)
      : spec_(spec), adapter_(spec.agg_kind) {}

  void Add(Record record) {
    if (record.timestamp < wm_) return;  // late: dropped
    pending_.emplace_back(std::move(record), seq_++);
    std::push_heap(pending_.begin(), pending_.end(), After);
  }

  void Watermark(Timestamp wm, std::vector<Record>* out) {
    out_ = out;
    if (wm != kMaxTimestamp && spec_.allowed_lateness > 0) {
      wm -= spec_.allowed_lateness;
      if (wm <= wm_) return;
    }
    wm_ = std::max(wm_, wm);
    while (!pending_.empty() &&
           (wm == kMaxTimestamp || pending_.front().first.timestamp < wm)) {
      std::pop_heap(pending_.begin(), pending_.end(), After);
      const Record record = std::move(pending_.back().first);
      pending_.pop_back();
      Apply(KeyFor(spec_.key(record)), record);
    }
    for (Key& k : keys_) Advance(&k, wm);
    DrainRegistry();
  }

  std::string Snapshot() const {
    BinaryWriter w;
    w.WriteI64(wm_);
    w.WriteU64(seq_);
    w.WriteU64(applied_seq_);
    w.WriteU64(dyn_.size());
    for (const Dyn& dq : dyn_) {
      w.WriteU64(dq.id);
      w.WriteI64(dq.desc.range);
      w.WriteI64(dq.desc.slide);
      w.WriteI64(dq.desc.origin);
      w.WriteU8(static_cast<uint8_t>(dq.placement));
      w.WriteBool(dq.active);
      w.WriteI64(dq.attach_wm);
    }
    w.WriteU64(pending_.size());
    for (const auto& [record, seq] : pending_) {
      w.WriteRecord(record);
      w.WriteU64(seq);
    }
    w.WriteU64(keys_.size());
    for (const Key& k : keys_) {
      w.WriteValue(k.key);
      if (k.shared) {
        k.shared->Snapshot(&w, DynAggregate::SerializePartial);
        w.WriteU64(k.standalone.size());
        w.WriteU64(k.standalone_fires);
        for (const OpenWindows& open : k.standalone) WriteWindows(open, &w);
      } else {
        w.WriteU64(k.eager.size());
        for (size_t q = 0; q < k.eager.size(); ++q) {
          spec_.windows[q]->Clone()->SnapshotState(&w);  // never advanced
          WriteWindows(k.eager[q], &w);
        }
      }
    }
    return w.Release();
  }

 private:
  using SharedAgg =
      SlicingAggregator<DynAggAdapter, FlatFatStore<DynAggAdapter>>;
  using Pending = std::pair<Record, uint64_t>;

  struct Key {
    Value key;
    std::unique_ptr<SharedAgg> shared;
    std::vector<OpenWindows> standalone;
    uint64_t standalone_fires = 0;
    std::vector<OpenWindows> eager;
  };

  struct Dyn {
    uint64_t id;
    QueryDescriptor desc;
    QueryPlacement placement;
    bool active;
    Timestamp attach_wm;
  };

  static bool After(const Pending& a, const Pending& b) {
    if (a.first.timestamp != b.first.timestamp) {
      return a.first.timestamp > b.first.timestamp;
    }
    return a.second > b.second;
  }

  SharedAgg::ResultCallback Callback(const Value& key, int64_t id) {
    return [this, key, id](size_t query, const Window& w, const Value& v) {
      Emit(key, id < 0 ? static_cast<int64_t>(query) : id, w, v);
    };
  }

  void Emit(const Value& key, int64_t query, const Window& w, const Value& v) {
    Record out;
    out.timestamp = w.end - 1;
    out.fields = {key, Value(w.start), Value(w.end), Value(query), v};
    out_->push_back(std::move(out));
  }

  Key* KeyFor(const Value& key) {
    for (Key& k : keys_) {
      if (k.key == key) return &k;
    }
    Key k;
    k.key = key;
    if (spec_.backend == WindowBackend::kShared) {
      k.shared = std::make_unique<SharedAgg>(adapter_);
      for (const auto& proto : spec_.windows) {
        k.shared->AddQuery(proto->Clone(), Callback(key, -1));
      }
      for (const Dyn& dq : dyn_) {
        if (dq.placement == QueryPlacement::kShared) {
          const size_t slot = k.shared->AddQuery(
              std::make_unique<SlidingWindowFn>(dq.desc.range, dq.desc.slide,
                                                dq.desc.origin),
              Callback(key, static_cast<int64_t>(dq.id)));
          if (!dq.active) k.shared->DetachQuery(slot);
        } else {
          k.standalone.emplace_back();
        }
      }
    } else {
      k.eager.resize(spec_.windows.size());
    }
    keys_.push_back(std::move(k));
    return &keys_.back();
  }

  void Apply(Key* k, const Record& record) {
    const Value& value = record.field(spec_.value_field);
    const DynPartial lifted = adapter_.dyn.Lift(value, record.timestamp);
    if (!k->shared) {
      for (size_t q = 0; q < spec_.windows.size(); ++q) {
        const auto& wf =
            dynamic_cast<const SlidingWindowFn&>(*spec_.windows[q]);
        FoldIntoWindows(adapter_, wf.range(), wf.slide(), wf.origin(),
                        record.timestamp, kMinTimestamp, lifted,
                        &k->eager[q]);
      }
      return;
    }
    k->shared->OnElement(record.timestamp,
                         DynAggAdapter::Input{value, record.timestamp},
                         spec_.payload ? spec_.payload(record) : Value());
    size_t sidx = 0;
    for (const Dyn& dq : dyn_) {
      if (dq.placement != QueryPlacement::kStandalone) continue;
      OpenWindows& open = k->standalone[sidx++];
      if (!dq.active) continue;
      FoldIntoWindows(adapter_, dq.desc.range, dq.desc.slide, dq.desc.origin,
                      record.timestamp, dq.attach_wm, lifted, &open);
    }
  }

  // Fires the prefix of `open` the watermark covers.
  void FireWindows(const Value& key, int64_t query, Timestamp wm,
                   OpenWindows* open, uint64_t* fires) {
    size_t fired = 0;
    while (fired < open->size() && (*open)[fired].first.end <= wm) {
      Emit(key, query, (*open)[fired].first,
           adapter_.Lower((*open)[fired].second));
      ++fired;
    }
    open->erase(open->begin(), open->begin() + static_cast<ptrdiff_t>(fired));
    *fires += fired;
  }

  void Advance(Key* k, Timestamp wm) {
    uint64_t ignored = 0;
    if (!k->shared) {
      for (size_t q = 0; q < k->eager.size(); ++q) {
        FireWindows(k->key, static_cast<int64_t>(q), wm, &k->eager[q],
                    &ignored);
      }
      return;
    }
    k->shared->OnWatermark(wm);
    size_t sidx = 0;
    for (const Dyn& dq : dyn_) {
      if (dq.placement != QueryPlacement::kStandalone) continue;
      FireWindows(k->key, static_cast<int64_t>(dq.id), wm,
                  &k->standalone[sidx++], &k->standalone_fires);
    }
  }

  void DrainRegistry() {
    if (spec_.registry == nullptr) return;
    for (const QueryCommand& cmd :
         spec_.registry->CommandsAfter(applied_seq_)) {
      size_t shared_slot = spec_.windows.size();
      size_t standalone_idx = 0;
      if (cmd.kind == QueryCommand::Kind::kAttach) {
        for (const Dyn& dq : dyn_) {
          (dq.placement == QueryPlacement::kShared ? shared_slot
                                                   : standalone_idx)++;
        }
        dyn_.push_back(Dyn{cmd.query_id, cmd.desc, cmd.placement, true, wm_});
        for (Key& k : keys_) {
          if (cmd.placement == QueryPlacement::kShared) {
            EXPECT_EQ(k.shared->AttachQuery(
                          std::make_unique<SlidingWindowFn>(
                              cmd.desc.range, cmd.desc.slide, cmd.desc.origin),
                          Callback(k.key, static_cast<int64_t>(cmd.query_id))),
                      shared_slot);
          } else {
            k.standalone.emplace_back();
          }
        }
      } else {
        for (Dyn& dq : dyn_) {
          if (dq.id == cmd.query_id && dq.active) {
            dq.active = false;
            for (Key& k : keys_) {
              if (dq.placement == QueryPlacement::kShared) {
                k.shared->DetachQuery(shared_slot);
              } else {
                k.standalone[standalone_idx].clear();
                k.standalone[standalone_idx].shrink_to_fit();
              }
            }
            break;
          }
          (dq.placement == QueryPlacement::kShared ? shared_slot
                                                   : standalone_idx)++;
        }
      }
      applied_seq_ = cmd.seq;
    }
  }

  WindowAggSpec spec_;
  DynAggAdapter adapter_;
  std::vector<Pending> pending_;
  uint64_t seq_ = 0;
  Timestamp wm_ = kMinTimestamp;
  std::vector<Key> keys_;  // insertion order
  std::vector<Dyn> dyn_;
  uint64_t applied_seq_ = 0;
  std::vector<Record>* out_ = nullptr;
};

class CaptureSink : public ChangelogSink {
 public:
  Status Append(std::string_view record) override {
    records.emplace_back(record);
    return Status::Ok();
  }
  std::vector<std::string> records;
};

std::string SnapshotBytes(const Operator& op) {
  BinaryWriter w;
  EXPECT_TRUE(op.SnapshotState(&w).ok());
  return w.Release();
}

enum class Windows { kSlidingSession, kCount, kPunctuation, kPeriodicEager };

struct OracleParams {
  Windows windows;
  Duration lateness;
  int wm_every;  // records per watermark
  bool registry;
};

std::string Name(const ::testing::TestParamInfo<OracleParams>& info) {
  const OracleParams& p = info.param;
  static const char* kWindows[] = {"sliding_session", "count", "punctuation",
                                   "eager_periodic"};
  return std::string(kWindows[static_cast<int>(p.windows)]) + "_late" +
         std::to_string(p.lateness) + "_wm" + std::to_string(p.wm_every) +
         (p.registry ? "_registry" : "");
}

WindowAggSpec MakeSpec(const OracleParams& p,
                       std::shared_ptr<QueryRegistry> registry) {
  WindowAggSpec spec;
  spec.key = [](const Record& r) { return r.field(0); };
  spec.value_field = 1;
  spec.allowed_lateness = p.lateness;
  spec.registry = std::move(registry);
  switch (p.windows) {
    case Windows::kSlidingSession:
      spec.windows = {std::make_shared<SlidingWindowFn>(40, 10),
                      std::make_shared<SessionWindowFn>(15)};
      break;
    case Windows::kCount:
      spec.windows = {std::make_shared<CountWindowFn>(5, 2)};
      break;
    case Windows::kPunctuation:
      spec.windows = {std::make_shared<PunctuationWindowFn>(
          [](Timestamp, const Value& v) { return v.AsInt64() % 5 == 0; })};
      spec.payload = [](const Record& r) { return r.field(1); };
      break;
    case Windows::kPeriodicEager:
      spec.windows = {std::make_shared<SlidingWindowFn>(40, 10),
                      std::make_shared<TumblingWindowFn>(25),
                      std::make_shared<SlidingWindowFn>(10, 25)};
      spec.backend = WindowBackend::kEager;
      break;
  }
  return spec;
}

class WindowAggOracleTest : public ::testing::TestWithParam<OracleParams> {};

TEST_P(WindowAggOracleTest, SameOutputAndSnapshotAsEveryKeyWalk) {
  const OracleParams p = GetParam();
  auto registry = p.registry ? std::make_shared<QueryRegistry>() : nullptr;
  const WindowAggSpec spec = MakeSpec(p, registry);
  ReferenceWindowAgg reference(spec);
  auto op = std::make_unique<WindowAggOperator>("w", spec);
  ASSERT_TRUE(op->Open(OperatorContext{}).ok());
  op->EnableIncrementalState();

  // 12 skewed keys; timestamps advance 0..3 per record with up to 6 units
  // of disorder (some records fall behind the watermark and are dropped),
  // and occasional long gaps that close sessions and skip empty windows.
  constexpr int kRecords = 700;
  Rng rng(static_cast<uint64_t>(p.wm_every) * 31 + p.lateness);
  std::vector<Record> expected;
  std::vector<Record> actual;
  VectorCollector out(&actual);
  std::string base;
  std::vector<std::vector<std::string>> segments;
  Timestamp clock = 0;
  Timestamp max_ts = kMinTimestamp;
  Timestamp last_wm = kMinTimestamp;
  int watermarks = 0;
  for (int i = 0; i < kRecords; ++i) {
    clock += static_cast<Timestamp>(rng.NextBelow(4));
    if (rng.NextBelow(60) == 0) clock += 50;
    const Timestamp ts = clock - static_cast<Timestamp>(rng.NextBelow(7));
    const int64_t key = static_cast<int64_t>(rng.NextBelow(4) == 0
                                                 ? rng.NextBelow(12)
                                                 : rng.NextBelow(3));
    const Record record = MakeRecord(
        ts, Value(key), Value(static_cast<int64_t>(rng.NextBelow(10))));
    reference.Add(record);
    op->ProcessRecord(0, Record(record), &out);
    max_ts = std::max(max_ts, ts);

    if (registry != nullptr) {
      if (i == kRecords / 4) {
        const uint64_t id = registry->AttachSliding(40, 20);
        ASSERT_EQ(registry->PlacementOf(id), QueryPlacement::kShared);
      } else if (i == kRecords / 3) {
        const uint64_t id = registry->AttachTumbling(5);
        ASSERT_EQ(registry->PlacementOf(id), QueryPlacement::kStandalone);
      } else if (i == 2 * kRecords / 5) {
        // Gaps: every 8 units a window of 3.
        const uint64_t id = registry->AttachSliding(3, 8);
        ASSERT_EQ(registry->PlacementOf(id), QueryPlacement::kStandalone);
      } else if (i == 3 * kRecords / 4) {
        ASSERT_TRUE(registry->Detach(kFirstDynamicQueryId).ok());
      }
    }
    if ((i + 1) % p.wm_every != 0 || max_ts - 2 <= last_wm) continue;
    last_wm = max_ts - 2;
    reference.Watermark(last_wm, &expected);
    op->ProcessWatermark(last_wm, &out);
    ++watermarks;
    // Each watermark emits what the walk emits, not just eventually.
    ASSERT_EQ(actual.size(), expected.size()) << "watermark " << last_wm;

    // A checkpoint base a third in, a delta at the middle, then recovery:
    // the rest of the stream runs on an operator restored from both.
    if (base.empty() && i >= kRecords / 3) {
      base = SnapshotBytes(*op);
      op->ResetDelta();
    } else if (!base.empty() && segments.empty() && i >= kRecords / 2) {
      CaptureSink seg;
      ASSERT_TRUE(op->SnapshotDelta(&seg).ok());
      segments.push_back(std::move(seg.records));
      auto restored = std::make_unique<WindowAggOperator>("w", spec);
      ASSERT_TRUE(restored->Open(OperatorContext{}).ok());
      BinaryReader r(base);
      ASSERT_TRUE(restored->RestoreState(&r).ok());
      for (const std::string& rec : segments.front()) {
        BinaryReader dr(rec);
        ASSERT_TRUE(restored->ApplyDelta(&dr).ok());
      }
      ASSERT_EQ(SnapshotBytes(*restored), SnapshotBytes(*op));
      op = std::move(restored);
      op->EnableIncrementalState();
    }
  }
  ASSERT_FALSE(segments.empty()) << "the stream never reached the restore";
  ASSERT_GT(watermarks, 5);
  ASSERT_GT(expected.size(), 0u);
  if (registry != nullptr) {
    // Every attached query served results.
    for (uint64_t id : {kFirstDynamicQueryId, kFirstDynamicQueryId + 1,
                        kFirstDynamicQueryId + 2}) {
      const Value query(static_cast<int64_t>(id));
      EXPECT_TRUE(std::any_of(
          expected.begin(), expected.end(),
          [&query](const Record& r) { return r.field(3) == query; }))
          << "query " << id << " never fired";
    }
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(SnapshotBytes(*op), reference.Snapshot());

  // End of stream flushes every key.
  reference.Watermark(kMaxTimestamp, &expected);
  op->ProcessWatermark(kMaxTimestamp, &out);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(SnapshotBytes(*op), reference.Snapshot());
}

std::vector<OracleParams> Sweep() {
  std::vector<OracleParams> out;
  for (Windows windows : {Windows::kSlidingSession, Windows::kCount,
                          Windows::kPunctuation, Windows::kPeriodicEager}) {
    for (Duration lateness : {0, 5}) {
      for (int wm_every : {1, 7, 64}) {
        out.push_back(OracleParams{windows, lateness, wm_every, false});
        // The registry serves the shared backend only.
        if (windows != Windows::kPeriodicEager) {
          out.push_back(OracleParams{windows, lateness, wm_every, true});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, WindowAggOracleTest,
                         ::testing::ValuesIn(Sweep()), Name);

}  // namespace
}  // namespace streamline
