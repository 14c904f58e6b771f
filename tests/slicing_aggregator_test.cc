#include "agg/slicing_aggregator.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "agg/techniques.h"
#include "common/random.h"
#include "window/aggregate_fn.h"

namespace streamline {
namespace {

using Result = std::tuple<size_t, Window, double>;

template <typename AggregatorT>
std::vector<Result>* Collect(AggregatorT* agg, std::vector<Result>* out) {
  (void)agg;
  return out;
}

TEST(SlicingAggregatorTest, TumblingSum) {
  SlicingAggregator<SumAgg<double>> agg;
  std::vector<Result> results;
  agg.AddQuery(std::make_unique<TumblingWindowFn>(10),
               [&](size_t q, const Window& w, const double& v) {
                 results.emplace_back(q, w, v);
               });
  for (Timestamp t = 0; t < 30; ++t) agg.OnElement(t, 1.0);
  agg.OnWatermark(kMaxTimestamp);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(std::get<1>(results[0]), (Window{0, 10}));
  EXPECT_DOUBLE_EQ(std::get<2>(results[0]), 10.0);
  EXPECT_EQ(std::get<1>(results[2]), (Window{20, 30}));
  EXPECT_DOUBLE_EQ(std::get<2>(results[2]), 10.0);
}

TEST(SlicingAggregatorTest, SlidingSumOverlap) {
  SlicingAggregator<SumAgg<double>> agg;
  std::vector<Result> results;
  agg.AddQuery(std::make_unique<SlidingWindowFn>(10, 5),
               [&](size_t q, const Window& w, const double& v) {
                 results.emplace_back(q, w, v);
               });
  for (Timestamp t = 0; t < 20; ++t) agg.OnElement(t, 1.0);
  agg.OnWatermark(kMaxTimestamp);
  // Windows: [-5,5)=5, [0,10)=10, [5,15)=10, [10,20)=10, [15,25)=5.
  ASSERT_EQ(results.size(), 5u);
  EXPECT_DOUBLE_EQ(std::get<2>(results[0]), 5.0);
  EXPECT_DOUBLE_EQ(std::get<2>(results[1]), 10.0);
  EXPECT_DOUBLE_EQ(std::get<2>(results[2]), 10.0);
  EXPECT_DOUBLE_EQ(std::get<2>(results[3]), 10.0);
  EXPECT_DOUBLE_EQ(std::get<2>(results[4]), 5.0);
}

TEST(SlicingAggregatorTest, OnePartialUpdatePerRecord) {
  // The headline Cutty property: per-record aggregation work is constant in
  // the number of overlapping windows and registered queries.
  SlicingAggregator<SumAgg<double>> agg;
  for (int q = 0; q < 16; ++q) {
    agg.AddQuery(std::make_unique<SlidingWindowFn>(100 + 10 * q, 10),
                 nullptr);
  }
  for (Timestamp t = 0; t < 1000; ++t) agg.OnElement(t, 1.0);
  EXPECT_EQ(agg.stats().partial_updates, agg.stats().elements);
}

TEST(SlicingAggregatorTest, MultiQuerySharedSlices) {
  SlicingAggregator<SumAgg<double>> agg;
  std::map<size_t, std::vector<std::pair<Window, double>>> per_query;
  auto cb = [&](size_t q, const Window& w, const double& v) {
    per_query[q].emplace_back(w, v);
  };
  const size_t q0 = agg.AddQuery(std::make_unique<TumblingWindowFn>(10), cb);
  const size_t q1 = agg.AddQuery(std::make_unique<TumblingWindowFn>(20), cb);
  for (Timestamp t = 0; t < 40; ++t) agg.OnElement(t, 1.0);
  agg.OnWatermark(kMaxTimestamp);
  ASSERT_EQ(per_query[q0].size(), 4u);
  ASSERT_EQ(per_query[q1].size(), 2u);
  for (const auto& [w, v] : per_query[q0]) EXPECT_DOUBLE_EQ(v, 10.0);
  for (const auto& [w, v] : per_query[q1]) EXPECT_DOUBLE_EQ(v, 20.0);
}

TEST(SlicingAggregatorTest, SessionWindowsSingleSliceEach) {
  SlicingAggregator<SumAgg<double>> agg;
  std::vector<Result> results;
  agg.AddQuery(std::make_unique<SessionWindowFn>(10),
               [&](size_t q, const Window& w, const double& v) {
                 results.emplace_back(q, w, v);
               });
  // Two sessions: {0, 3, 6} and {50, 52}.
  for (Timestamp t : {0, 3, 6}) agg.OnElement(t, 1.0);
  for (Timestamp t : {50, 52}) agg.OnElement(t, 1.0);
  agg.OnWatermark(kMaxTimestamp);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(std::get<1>(results[0]), (Window{0, 16}));
  EXPECT_DOUBLE_EQ(std::get<2>(results[0]), 3.0);
  EXPECT_EQ(std::get<1>(results[1]), (Window{50, 62}));
  EXPECT_DOUBLE_EQ(std::get<2>(results[1]), 2.0);
}

TEST(SlicingAggregatorTest, CountWindowsIncludeClosingElement) {
  SlicingAggregator<SumAgg<double>> agg;
  std::vector<Result> results;
  agg.AddQuery(std::make_unique<CountWindowFn>(3),
               [&](size_t q, const Window& w, const double& v) {
                 results.emplace_back(q, w, v);
               });
  for (Timestamp t = 1; t <= 7; ++t) {
    agg.OnElement(t * 10, static_cast<double>(t));
  }
  agg.OnWatermark(kMaxTimestamp);
  // Windows of 3 elements: {1,2,3} -> 6, {4,5,6} -> 15; trailing dropped.
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(std::get<2>(results[0]), 6.0);
  EXPECT_DOUBLE_EQ(std::get<2>(results[1]), 15.0);
}

TEST(SlicingAggregatorTest, PunctuationWindowsUsePayload) {
  SlicingAggregator<SumAgg<double>> agg;
  std::vector<Result> results;
  agg.AddQuery(
      std::make_unique<PunctuationWindowFn>(
          [](Timestamp, const Value& v) { return v.AsBool(); }),
      [&](size_t q, const Window& w, const double& v) {
        results.emplace_back(q, w, v);
      });
  agg.OnElement(1, 1.0, Value(false));
  agg.OnElement(2, 2.0, Value(false));
  agg.OnElement(3, 4.0, Value(true));  // closes [1, 3)
  agg.OnElement(4, 8.0, Value(false));
  agg.OnWatermark(kMaxTimestamp);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_DOUBLE_EQ(std::get<2>(results[0]), 3.0);   // 1 + 2
  EXPECT_DOUBLE_EQ(std::get<2>(results[1]), 12.0);  // 4 + 8
}

TEST(SlicingAggregatorTest, EvictionBoundsStoredSlices) {
  SlicingAggregator<SumAgg<double>> agg;
  agg.AddQuery(std::make_unique<SlidingWindowFn>(100, 10), nullptr);
  for (Timestamp t = 0; t < 100000; t += 1) agg.OnElement(t, 1.0);
  // A window spans at most range/slide = 10 slices; with bounded eviction
  // lag the store must stay small instead of growing with the stream.
  EXPECT_LE(agg.stats().peak_stored, 64u);
  EXPECT_LE(agg.stored_slices(), 64u);
}

TEST(SlicingAggregatorTest, NonInvertibleMaxWithFlatFat) {
  SlicingAggregator<MaxAgg<double>> agg;
  std::vector<std::pair<Window, double>> results;
  agg.AddQuery(std::make_unique<SlidingWindowFn>(20, 10),
               [&](size_t, const Window& w, const double& v) {
                 results.emplace_back(w, v);
               });
  const double xs[] = {5, 1, 9, 2, 8, 3, 7, 4};
  for (int i = 0; i < 8; ++i) {
    agg.OnElement(i * 5, xs[i]);  // ts: 0,5,...,35
  }
  agg.OnWatermark(kMaxTimestamp);
  // [−10,10): max(5,1)=5; [0,20): max(5,1,9,2)=9; [10,30): max(9,2,8,3)=9;
  // [20,40): max(8,3,7,4)=8; [30, 50): max(7,4)=7.
  ASSERT_EQ(results.size(), 5u);
  EXPECT_DOUBLE_EQ(results[0].second, 5.0);
  EXPECT_DOUBLE_EQ(results[1].second, 9.0);
  EXPECT_DOUBLE_EQ(results[2].second, 9.0);
  EXPECT_DOUBLE_EQ(results[3].second, 8.0);
  EXPECT_DOUBLE_EQ(results[4].second, 7.0);
}

TEST(SlicingAggregatorTest, LazyAndPrefixStoresAgree) {
  std::vector<double> lazy_out;
  std::vector<double> prefix_out;
  SlicingAggregator<SumAgg<double>, LinearStore<SumAgg<double>>> lazy;
  SlicingAggregator<SumAgg<double>, PrefixStore<SumAgg<double>>> prefix;
  lazy.AddQuery(std::make_unique<SlidingWindowFn>(30, 10),
                [&](size_t, const Window&, const double& v) {
                  lazy_out.push_back(v);
                });
  prefix.AddQuery(std::make_unique<SlidingWindowFn>(30, 10),
                  [&](size_t, const Window&, const double& v) {
                    prefix_out.push_back(v);
                  });
  for (Timestamp t = 0; t < 200; ++t) {
    lazy.OnElement(t, static_cast<double>(t % 7));
    prefix.OnElement(t, static_cast<double>(t % 7));
  }
  lazy.OnWatermark(kMaxTimestamp);
  prefix.OnWatermark(kMaxTimestamp);
  ASSERT_EQ(lazy_out.size(), prefix_out.size());
  for (size_t i = 0; i < lazy_out.size(); ++i) {
    EXPECT_NEAR(lazy_out[i], prefix_out[i], 1e-9);
  }
}

TEST(SlicingAggregatorTest, QueriesAfterElementsRejected) {
  SlicingAggregator<SumAgg<double>> agg;
  agg.AddQuery(std::make_unique<TumblingWindowFn>(10), nullptr);
  agg.OnElement(0, 1.0);
  EXPECT_DEATH(agg.AddQuery(std::make_unique<TumblingWindowFn>(5), nullptr),
               "AttachQuery");
}

TEST(SlicingAggregatorTest, AttachedLateQueryMatchesFromStart) {
  // Reference: the query runs from the start of the stream.
  SlicingAggregator<SumAgg<double>> ref;
  std::map<Timestamp, std::pair<Window, double>> ref_by_start;
  ref.AddQuery(std::make_unique<SlidingWindowFn>(20, 5),
               [&](size_t, const Window& w, const double& v) {
                 ref_by_start[w.start] = {w, v};
               });
  // Live job: a tumbling-10 query keeps the shared store cut at multiples
  // of 10; the sliding query attaches only after t = 60.
  SlicingAggregator<SumAgg<double>> agg;
  agg.AddQuery(std::make_unique<TumblingWindowFn>(10), nullptr);
  std::vector<std::pair<Window, double>> late;
  constexpr Timestamp kAttach = 60;
  for (Timestamp t = 0; t < 200; ++t) {
    const double v = static_cast<double>(t % 7);  // integer-valued: exact FP
    ref.OnElement(t, v);
    agg.OnElement(t, v);
    if (t == kAttach) {
      agg.AttachQuery(std::make_unique<SlidingWindowFn>(20, 5),
                      [&](size_t, const Window& w, const double& x) {
                        late.emplace_back(w, x);
                      });
      // Grid point 60 is an intact cut (open slice start), so the attach
      // backfills one pre-attach window begin.
      EXPECT_TRUE(agg.last_attach_backfilled());
    }
  }
  ref.OnWatermark(kMaxTimestamp);
  agg.OnWatermark(kMaxTimestamp);
  // Every window the late query fires (including backfilled ones) must be
  // byte-identical to the from-start run; windows past the first full
  // window boundary must all be present.
  ASSERT_FALSE(late.empty());
  EXPECT_EQ(late.front().first.start, kAttach);  // backfilled window
  for (const auto& [w, v] : late) {
    auto it = ref_by_start.find(w.start);
    ASSERT_NE(it, ref_by_start.end()) << w.ToString();
    EXPECT_EQ(it->second.first, w);
    EXPECT_EQ(it->second.second, v) << w.ToString();  // exact, not NEAR
  }
  size_t expected = 0;
  for (const auto& [start, wv] : ref_by_start) {
    if (start >= kAttach) ++expected;
  }
  EXPECT_EQ(late.size(), expected);
}

TEST(SlicingAggregatorTest, AttachWithoutIntactCutsStartsFresh) {
  SlicingAggregator<SumAgg<double>> agg;
  agg.AddQuery(std::make_unique<TumblingWindowFn>(100), nullptr);
  std::vector<std::pair<Window, double>> out;
  for (Timestamp t = 0; t < 150; ++t) agg.OnElement(t, 1.0);
  // Slide-7 begin grid shares no cut point with the tumbling-100 slices, so
  // no backfill: the first window starts strictly after the attach point.
  agg.AttachQuery(std::make_unique<SlidingWindowFn>(30, 7),
                  [&](size_t, const Window& w, const double& v) {
                    out.emplace_back(w, v);
                  });
  EXPECT_FALSE(agg.last_attach_backfilled());
  for (Timestamp t = 150; t < 250; ++t) agg.OnElement(t, 1.0);
  agg.OnWatermark(kMaxTimestamp);
  ASSERT_FALSE(out.empty());
  for (const auto& [w, v] : out) {
    EXPECT_GT(w.start, 149);
    // All-ones input: a window's sum is the number of fed elements in it.
    const Timestamp hi = std::min<Timestamp>(w.end, 250);
    EXPECT_DOUBLE_EQ(v, static_cast<double>(hi - w.start));
  }
}

TEST(SlicingAggregatorTest, DetachFreesSlices) {
  SlicingAggregator<SumAgg<double>> agg;
  const size_t long_q =
      agg.AddQuery(std::make_unique<SlidingWindowFn>(200, 10), nullptr);
  std::vector<std::pair<Window, double>> out;
  agg.AddQuery(std::make_unique<TumblingWindowFn>(10),
               [&](size_t, const Window& w, const double& v) {
                 out.emplace_back(w, v);
               });
  for (Timestamp t = 0; t < 1000; ++t) agg.OnElement(t, 1.0);
  // The 200/10 sliding query pins ~20 slices; the tumbling query alone
  // needs at most its open window.
  const size_t before = agg.stored_slices();
  EXPECT_GE(before, 15u);
  const size_t freed = agg.DetachQuery(long_q);
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(agg.stored_slices(), before - freed);
  EXPECT_LE(agg.stored_slices(), 2u);
  EXPECT_EQ(agg.active_queries(), 1u);
  EXPECT_EQ(agg.num_slots(), 2u);
  // The remaining query keeps producing correct results.
  out.clear();
  for (Timestamp t = 1000; t < 1100; ++t) agg.OnElement(t, 1.0);
  agg.OnWatermark(kMaxTimestamp);
  // [990,1000) fires on the t=1000 element, then [1000,1010)..[1090,1100).
  ASSERT_EQ(out.size(), 11u);
  for (const auto& [w, v] : out) EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST(SlicingAggregatorTest, AttachBeforeFirstElementIsFromStart) {
  SlicingAggregator<SumAgg<double>> agg;
  std::vector<std::pair<Window, double>> out;
  agg.AttachQuery(std::make_unique<TumblingWindowFn>(10),
                  [&](size_t, const Window& w, const double& v) {
                    out.emplace_back(w, v);
                  });
  for (Timestamp t = 0; t < 30; ++t) agg.OnElement(t, 1.0);
  agg.OnWatermark(kMaxTimestamp);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].first, (Window{0, 10}));
  for (const auto& [w, v] : out) EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST(PairsAggregatorTest, AddsEndBoundaries) {
  PairsAggregator<SumAgg<double>> agg;
  std::vector<double> out;
  agg.AddQuery(std::make_unique<SlidingWindowFn>(15, 10),
               [&](size_t, const Window&, const double& v) {
                 out.push_back(v);
               });
  for (Timestamp t = 0; t < 60; ++t) agg.OnElement(t, 1.0);
  agg.OnWatermark(kMaxTimestamp);
  // Every full window holds 15 elements.
  ASSERT_GE(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[2], 15.0);
  EXPECT_DOUBLE_EQ(out[3], 15.0);
}

TEST(PanesAggregatorTest, GcdGridCorrectness) {
  PanesAggregator<SumAgg<double>> agg;
  std::vector<double> out;
  agg.AddQuery(std::make_unique<SlidingWindowFn>(15, 10),
               [&](size_t, const Window&, const double& v) {
                 out.push_back(v);
               });
  for (Timestamp t = 0; t < 60; ++t) agg.OnElement(t, 1.0);
  agg.OnWatermark(kMaxTimestamp);
  ASSERT_GE(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[2], 15.0);
  // gcd(15, 10) = 5: panes creates ~3x the slices Cutty would.
  EXPECT_GT(agg.stats().slices_created, 8u);
}

TEST(BIntAggregatorTest, PerTupleLeaves) {
  BIntAggregator<SumAgg<double>> agg;
  std::vector<double> out;
  agg.AddQuery(std::make_unique<TumblingWindowFn>(10),
               [&](size_t, const Window&, const double& v) {
                 out.push_back(v);
               });
  for (Timestamp t = 0; t < 30; ++t) agg.OnElement(t, 1.0);
  agg.OnWatermark(kMaxTimestamp);
  ASSERT_EQ(out.size(), 3u);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 10.0);
  // One slice per tuple (modulo the final open slice).
  EXPECT_GE(agg.stats().slices_created, 29u);
}


// One context, many keys: 64 key slicers share one SlicerContext (slot
// table, callbacks and per-call scratch) and are driven interleaved, one key
// at a time, the way WindowAggOperator drives them. Each must emit exactly
// the results, and snapshot exactly the bytes, of a standalone
// SlicingAggregator fed the same input, so nothing in the shared scratch
// carries over from one key to the next. Mid-stream one query attaches and
// one detaches; the last 16 keys are created only after that, laid out
// from the slot table with its detached hole.
TEST(SlicerContextTest, SixtyFourKeysMatchStandaloneAggregators) {
  using Agg = SumAgg<double>;
  constexpr size_t kKeys = 64;
  constexpr size_t kEarlyKeys = 48;
  constexpr size_t kDetached = 1;  // the session window
  const auto query = [](size_t q) -> std::unique_ptr<WindowFunction> {
    switch (q) {
      case 0:
        return std::make_unique<CountWindowFn>(5, 2);  // AfterElement path
      case 1:
        return std::make_unique<SessionWindowFn>(40);
      case 2:
        return std::make_unique<SlidingWindowFn>(60, 20);
      case 3:
        return std::make_unique<PunctuationWindowFn>(
            [](Timestamp, const Value& v) { return v.AsBool(); });
      default:
        return std::make_unique<SlidingWindowFn>(100, 20);  // attached late
    }
  };
  const auto ser = [](const double& p, BinaryWriter* w) { w->WriteDouble(p); };

  std::vector<std::vector<Result>> shared_out(kKeys);
  std::vector<std::vector<Result>> standalone_out(kKeys);
  size_t current = 0;  // the key being driven: shared callbacks hold no key
  const auto shared_cb = [&](size_t q, const Window& w, const double& v) {
    shared_out[current].emplace_back(q, w, v);
  };
  const auto standalone_cb = [&](size_t k) {
    return [&standalone_out, k](size_t q, const Window& w, const double& v) {
      standalone_out[k].emplace_back(q, w, v);
    };
  };

  SlicerContext<Agg> ctx;
  for (size_t q = 0; q < 4; ++q) ctx.AddSlot(query(q), shared_cb);
  std::vector<std::unique_ptr<KeySlicer<Agg>>> keys(kKeys);
  std::vector<std::unique_ptr<SlicingAggregator<Agg>>> standalone(kKeys);
  const auto add_key = [&](size_t k, size_t num_queries) {
    keys[k] = std::make_unique<KeySlicer<Agg>>(ctx);
    standalone[k] = std::make_unique<SlicingAggregator<Agg>>();
    for (size_t q = 0; q < num_queries; ++q) {
      standalone[k]->AddQuery(query(q), standalone_cb(k));
    }
  };
  for (size_t k = 0; k < kEarlyKeys; ++k) add_key(k, 4);

  Rng rng(21);
  std::vector<Timestamp> clock(kKeys, 0);
  const auto drive = [&](size_t steps, size_t live_keys) {
    for (size_t i = 0; i < steps; ++i) {
      const size_t k = rng.NextBelow(live_keys);
      current = k;
      if (rng.NextBelow(8) == 0) {
        // Runs ahead of the key's last element, so sessions and sliding
        // windows also fire on the watermark path.
        clock[k] += rng.NextBelow(60);
        keys[k]->OnWatermark(&ctx, clock[k]);
        standalone[k]->OnWatermark(clock[k]);
        continue;
      }
      clock[k] += rng.NextBelow(40) == 0 ? 50 : rng.NextBelow(4);
      const double v = rng.NextDouble(-5, 5);
      const Value payload(rng.NextBelow(10) == 0);
      keys[k]->OnElement(&ctx, clock[k], v, payload);
      standalone[k]->OnElement(clock[k], v, payload);
    }
  };
  const auto expect_same_state = [&](const char* when) {
    for (size_t k = 0; k < kKeys; ++k) {
      if (!keys[k]) continue;
      BinaryWriter a;
      BinaryWriter b;
      keys[k]->Snapshot(&a, ser);
      standalone[k]->Snapshot(&b, ser);
      EXPECT_EQ(a.Release(), b.Release()) << when << ", key " << k;
      EXPECT_EQ(keys[k]->stats().ToString(), standalone[k]->stats().ToString())
          << when << ", key " << k;
      EXPECT_TRUE(shared_out[k] == standalone_out[k])
          << when << ", key " << k << ": " << shared_out[k].size() << " vs "
          << standalone_out[k].size() << " results";
    }
  };

  drive(8000, kEarlyKeys);
  expect_same_state("before attach");

  const size_t slot = ctx.AddSlot(query(4), shared_cb);
  ASSERT_EQ(slot, 4u);
  ctx.DetachSlot(kDetached);
  for (size_t k = 0; k < kEarlyKeys; ++k) {
    current = k;
    keys[k]->Attach(&ctx, slot);
    EXPECT_EQ(standalone[k]->AttachQuery(query(4), standalone_cb(k)), slot);
    EXPECT_EQ(keys[k]->Detach(ctx, kDetached),
              standalone[k]->DetachQuery(kDetached))
        << "key " << k;
  }
  for (size_t k = kEarlyKeys; k < kKeys; ++k) {
    add_key(k, 5);
    standalone[k]->DetachQuery(kDetached);
  }
  expect_same_state("after attach and detach");

  drive(8000, kKeys);
  for (size_t k = 0; k < kKeys; ++k) {
    current = k;
    keys[k]->OnWatermark(&ctx, kMaxTimestamp);
    standalone[k]->OnWatermark(kMaxTimestamp);
  }
  expect_same_state("end of stream");

  // Every window kind fired somewhere, before and after the layout change.
  std::map<size_t, size_t> fires_per_slot;
  for (const auto& out : shared_out) {
    for (const Result& r : out) ++fires_per_slot[std::get<0>(r)];
  }
  for (size_t q = 0; q < 5; ++q) {
    EXPECT_GT(fires_per_slot[q], 0u) << "slot " << q;
  }
}

}  // namespace
}  // namespace streamline
