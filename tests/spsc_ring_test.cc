#include "common/spsc_ring.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

namespace streamline {
namespace {

TEST(SpscRingTest, PushPopFifo) {
  SpscRing<int> ring(4);
  int out = 0;
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(0).capacity(), 1u);
}

TEST(SpscRingTest, PushFailsWhenFull) {
  SpscRing<int> ring(2);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_FALSE(ring.TryPush(3));
  EXPECT_TRUE(ring.Full());
  int out = 0;
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_TRUE(ring.TryPush(3));  // slot freed
}

TEST(SpscRingTest, FailedPushDoesNotConsumeTheItem) {
  SpscRing<std::unique_ptr<int>> ring(1);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(1)));
  auto item = std::make_unique<int>(2);
  EXPECT_FALSE(ring.TryPush(std::move(item)));
  // A rejected push must leave the item intact for a retry.
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(*item, 2);
}

TEST(SpscRingTest, WrapsAroundManyTimes) {
  SpscRing<uint64_t> ring(8);
  uint64_t out = 0;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.TryPush(uint64_t{i}));
    ASSERT_TRUE(ring.TryPop(&out));
    ASSERT_EQ(out, i);
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRingTest, MoveOnlyElements) {
  SpscRing<std::unique_ptr<std::string>> ring(4);
  EXPECT_TRUE(ring.TryPush(std::make_unique<std::string>("a")));
  EXPECT_TRUE(ring.TryPush(std::make_unique<std::string>("b")));
  std::unique_ptr<std::string> out;
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(*out, "a");
  EXPECT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(*out, "b");
}

TEST(SpscRingTest, SizeTracksOccupancy) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.Empty());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.TryPush(int{i}));
  EXPECT_EQ(ring.size(), 5u);
  int out = 0;
  ring.TryPop(&out);
  EXPECT_EQ(ring.size(), 4u);
}

// Two-thread stress: every element arrives exactly once, in order. This is
// the test the thread-sanitizer CI job leans on.
TEST(SpscRingTest, ThreadedFifoStress) {
  constexpr uint64_t kItems = 200'000;
  SpscRing<uint64_t> ring(64);
  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems; ++i) {
      while (!ring.TryPush(uint64_t{i})) std::this_thread::yield();
    }
  });
  uint64_t expected = 0;
  uint64_t item = 0;
  while (expected < kItems) {
    if (ring.TryPop(&item)) {
      ASSERT_EQ(item, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ring.Empty());
}

}  // namespace
}  // namespace streamline
