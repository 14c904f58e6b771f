#include "agg/slice_store.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "window/aggregate_fn.h"

namespace streamline {
namespace {

// ---------------------------------------------------------------------------
// Typed tests shared by all store implementations (with SumAgg).

template <typename StoreT>
class SliceStoreTest : public ::testing::Test {};

using SumStores =
    ::testing::Types<LinearStore<SumAgg<double>>, FlatFatStore<SumAgg<double>>,
                     PrefixStore<SumAgg<double>>>;
TYPED_TEST_SUITE(SliceStoreTest, SumStores);

TYPED_TEST(SliceStoreTest, EmptyRangeIsIdentity) {
  TypeParam store;
  EXPECT_DOUBLE_EQ(store.RangeCombine(0, 0), 0.0);
  store.Append(10, 1.0);
  EXPECT_DOUBLE_EQ(store.RangeCombine(1, 1), 0.0);
}

TYPED_TEST(SliceStoreTest, AppendAndFullCombine) {
  TypeParam store;
  store.Append(0, 1.0);
  store.Append(10, 2.0);
  store.Append(20, 4.0);
  EXPECT_EQ(store.BeginIndex(), 0u);
  EXPECT_EQ(store.EndIndex(), 3u);
  EXPECT_DOUBLE_EQ(store.RangeCombine(0, 3), 7.0);
}

TYPED_TEST(SliceStoreTest, SubrangeCombines) {
  TypeParam store;
  for (int i = 0; i < 10; ++i) {
    store.Append(i * 10, static_cast<double>(1 << i));
  }
  EXPECT_DOUBLE_EQ(store.RangeCombine(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(store.RangeCombine(3, 6), 8.0 + 16.0 + 32.0);
  EXPECT_DOUBLE_EQ(store.RangeCombine(9, 10), 512.0);
}

TYPED_TEST(SliceStoreTest, LowerBoundByTimestamp) {
  TypeParam store;
  store.Append(5, 1.0);
  store.Append(15, 1.0);
  store.Append(25, 1.0);
  EXPECT_EQ(store.LowerBound(0), 0u);
  EXPECT_EQ(store.LowerBound(5), 0u);
  EXPECT_EQ(store.LowerBound(6), 1u);
  EXPECT_EQ(store.LowerBound(15), 1u);
  EXPECT_EQ(store.LowerBound(25), 2u);
  EXPECT_EQ(store.LowerBound(26), 3u);
}

TYPED_TEST(SliceStoreTest, EvictionKeepsLogicalIndices) {
  TypeParam store;
  for (int i = 0; i < 8; ++i) store.Append(i * 10, static_cast<double>(i));
  store.EvictBefore(3);
  EXPECT_EQ(store.BeginIndex(), 3u);
  EXPECT_EQ(store.EndIndex(), 8u);
  EXPECT_EQ(store.size(), 5u);
  EXPECT_DOUBLE_EQ(store.RangeCombine(3, 8), 3 + 4 + 5 + 6 + 7.0);
  EXPECT_EQ(store.LowerBound(30), 3u);
  EXPECT_EQ(store.LowerBound(75), 8u);
}

TYPED_TEST(SliceStoreTest, InterleavedAppendEvictQuery) {
  TypeParam store;
  Rng rng(99);
  double window[5] = {0, 0, 0, 0, 0};
  size_t appended = 0;
  for (int round = 0; round < 500; ++round) {
    const double v = rng.NextDouble();
    window[appended % 5] = v;
    store.Append(static_cast<Timestamp>(round * 7), v);
    ++appended;
    if (appended >= 5) {
      store.EvictBefore(appended - 5);
      double expect = 0;
      for (double x : window) expect += x;
      EXPECT_NEAR(store.RangeCombine(appended - 5, appended), expect, 1e-9);
    }
  }
}

// ---------------------------------------------------------------------------
// FlatFat specifics.

TEST(FlatFatStoreTest, GrowsBeyondInitialCapacity) {
  FlatFatStore<SumAgg<double>> store(SumAgg<double>(), 4);
  double total = 0;
  for (int i = 0; i < 100; ++i) {
    store.Append(i, 1.0);
    total += 1.0;
  }
  EXPECT_GE(store.capacity(), 100u);
  EXPECT_DOUBLE_EQ(store.RangeCombine(0, 100), total);
}

TEST(FlatFatStoreTest, RingWrapAroundCorrect) {
  FlatFatStore<SumAgg<double>> store(SumAgg<double>(), 8);
  // Fill, evict half, append more so the ring wraps.
  for (int i = 0; i < 8; ++i) store.Append(i, static_cast<double>(i));
  store.EvictBefore(5);
  for (int i = 8; i < 12; ++i) store.Append(i, static_cast<double>(i));
  // Live: indices 5..11, values 5..11.
  EXPECT_DOUBLE_EQ(store.RangeCombine(5, 12), 5 + 6 + 7 + 8 + 9 + 10 + 11.0);
  EXPECT_DOUBLE_EQ(store.RangeCombine(7, 10), 7 + 8 + 9.0);
}

TEST(FlatFatStoreTest, NonCommutativeOrderPreserved) {
  FlatFatStore<CollectAgg<int>> store(CollectAgg<int>(), 4);
  for (int i = 0; i < 10; ++i) store.Append(i, {i});
  auto r = store.RangeCombine(2, 7);
  EXPECT_EQ(r, (std::vector<int>{2, 3, 4, 5, 6}));
  store.EvictBefore(4);
  for (int i = 10; i < 13; ++i) store.Append(i, {i});
  auto r2 = store.RangeCombine(4, 13);
  EXPECT_EQ(r2, (std::vector<int>{4, 5, 6, 7, 8, 9, 10, 11, 12}));
}

TEST(FlatFatStoreTest, NonInvertibleMaxQueries) {
  FlatFatStore<MaxAgg<double>> store;
  const double xs[] = {3, 9, 1, 7, 5, 2, 8};
  for (int i = 0; i < 7; ++i) store.Append(i, xs[i]);
  EXPECT_DOUBLE_EQ(store.RangeCombine(0, 7), 9.0);
  EXPECT_DOUBLE_EQ(store.RangeCombine(2, 5), 7.0);
  EXPECT_DOUBLE_EQ(store.RangeCombine(4, 7), 8.0);
  store.EvictBefore(2);
  EXPECT_DOUBLE_EQ(store.RangeCombine(2, 7), 8.0);
}

TEST(FlatFatStoreTest, RandomizedAgainstLinearOracle) {
  FlatFatStore<MaxAgg<double>> fat(MaxAgg<double>(), 4);
  LinearStore<MaxAgg<double>> oracle;
  Rng rng(7);
  size_t appended = 0;
  size_t evicted = 0;
  for (int step = 0; step < 3000; ++step) {
    const double action = rng.NextDouble();
    if (action < 0.6 || appended == evicted) {
      const double v = rng.NextDouble(-100, 100);
      fat.Append(static_cast<Timestamp>(appended), v);
      oracle.Append(static_cast<Timestamp>(appended), v);
      ++appended;
    } else if (action < 0.75) {
      const size_t target =
          evicted + rng.NextBelow(appended - evicted + 1);
      fat.EvictBefore(target);
      oracle.EvictBefore(target);
      evicted = target > evicted ? target : evicted;
    } else {
      const size_t live = appended - evicted;
      const size_t i = evicted + rng.NextBelow(live + 1);
      const size_t j = i + rng.NextBelow(appended - i + 1);
      EXPECT_DOUBLE_EQ(fat.RangeCombine(i, j), oracle.RangeCombine(i, j))
          << "range [" << i << ", " << j << ")";
    }
  }
}

// A default store starts at one leaf and doubles only when an append finds
// it full: its capacity is always the smallest power of two >= its peak
// live slice count.
TEST(FlatFatStoreTest, CapacityFollowsLiveSlices) {
  FlatFatStore<SumAgg<double>> store;
  EXPECT_EQ(store.capacity(), 1u);
  Rng rng(3);
  size_t appended = 0;
  size_t peak = 0;
  for (int step = 0; step < 2000; ++step) {
    if (rng.NextDouble() < 0.7 || store.size() == 0) {
      store.Append(static_cast<Timestamp>(appended), 1.0);
      ++appended;
    } else {
      store.EvictBefore(store.BeginIndex() + 1 + rng.NextBelow(2));
    }
    peak = std::max(peak, store.size());
    size_t want = 1;
    while (want < peak) want <<= 1;
    ASSERT_EQ(store.capacity(), want) << "step " << step << ", peak " << peak;
  }
  EXPECT_GE(peak, 256u);
}

// Growth relinearizes the ring: leaves and slice starts must both move so
// the oldest slice lands at position 0, also when evictions left the
// oldest slice mid-ring. Non-commutative CollectAgg makes any reordering
// visible; equal starts exercise the LowerBound/HasCutAt tie rules.
TEST(FlatFatStoreTest, GrowWhileWrappedMatchesLinearOracle) {
  FlatFatStore<CollectAgg<int>> fat;
  LinearStore<CollectAgg<int>> oracle;
  Rng rng(11);
  Timestamp ts = 0;
  size_t capacity = fat.capacity();
  // Slices evicted since the last growth; nonzero mod the old capacity
  // means the oldest leaf was not at position 0 when the ring doubled.
  size_t evicted_since_grow = 0;
  int wrapped_grows = 0;
  for (int step = 0; step < 3000; ++step) {
    if (rng.NextDouble() < 0.7 || fat.size() == 0) {
      ts += static_cast<Timestamp>(rng.NextBelow(2));
      fat.Append(ts, {step});
      oracle.Append(ts, {step});
    } else {
      const size_t target = fat.BeginIndex() + 1 + rng.NextBelow(2);
      evicted_since_grow += std::min(target, fat.EndIndex()) -
                            fat.BeginIndex();
      fat.EvictBefore(target);
      oracle.EvictBefore(target);
    }
    if (fat.capacity() != capacity) {
      if (evicted_since_grow % capacity != 0) ++wrapped_grows;
      capacity = fat.capacity();
      evicted_since_grow = 0;
    }
    ASSERT_EQ(fat.BeginIndex(), oracle.BeginIndex());
    ASSERT_EQ(fat.EndIndex(), oracle.EndIndex());
    const size_t i = fat.BeginIndex() + rng.NextBelow(fat.size() + 1);
    const size_t j = i + rng.NextBelow(fat.EndIndex() - i + 1);
    ASSERT_EQ(fat.RangeCombine(i, j), oracle.RangeCombine(i, j))
        << "step " << step << ", range [" << i << ", " << j << ")";
    ASSERT_EQ(fat.RangeCombine(fat.BeginIndex(), fat.EndIndex()),
              oracle.RangeCombine(oracle.BeginIndex(), oracle.EndIndex()))
        << "step " << step;
    for (Timestamp t = ts - 40; t <= ts + 1; ++t) {
      ASSERT_EQ(fat.LowerBound(t), oracle.LowerBound(t))
          << "step " << step << ", t " << t;
      ASSERT_EQ(fat.HasCutAt(t), oracle.HasCutAt(t))
          << "step " << step << ", t " << t;
    }
  }
  EXPECT_GE(wrapped_grows, 3);
}

// ---------------------------------------------------------------------------
// PrefixStore specifics.

TEST(PrefixStoreTest, ConstantTimeQueriesCountOneCombine) {
  PrefixStore<SumAgg<double>> store;
  for (int i = 0; i < 1000; ++i) store.Append(i, 1.0);
  const uint64_t before = store.combine_ops();
  EXPECT_DOUBLE_EQ(store.RangeCombine(100, 900), 800.0);
  // O(1): a single invert op regardless of range width.
  EXPECT_EQ(store.combine_ops() - before, 1u);
}

TEST(PrefixStoreTest, QueriesRemainValidAfterEviction) {
  PrefixStore<SumAgg<double>> store;
  for (int i = 0; i < 100; ++i) store.Append(i, static_cast<double>(i));
  store.EvictBefore(50);
  // 50 + 51 + ... + 99
  EXPECT_DOUBLE_EQ(store.RangeCombine(50, 100), (50 + 99) * 50 / 2.0);
  EXPECT_DOUBLE_EQ(store.RangeCombine(60, 61), 60.0);
}

TEST(LinearStoreTest, CombineOpsGrowWithRange) {
  LinearStore<SumAgg<double>> store;
  for (int i = 0; i < 100; ++i) store.Append(i, 1.0);
  const uint64_t before = store.combine_ops();
  store.RangeCombine(0, 100);
  EXPECT_EQ(store.combine_ops() - before, 100u);
}

}  // namespace
}  // namespace streamline
