#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"

namespace streamline {
namespace {

TEST(FaultInjectorTest, NoRulesNeverFires) {
  FaultInjector fi;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(fi.OnHit("op:map").ok());
  }
  EXPECT_EQ(fi.fires(), 0u);
  EXPECT_EQ(fi.hits("op:map"), 100u);
  EXPECT_EQ(fi.hits("op:other"), 0u);
}

TEST(FaultInjectorTest, FailAtNthHitFiresExactlyOnce) {
  FaultInjector fi;
  fi.AddRule(FaultInjector::FailAtHit("op:agg", 3));
  EXPECT_TRUE(fi.OnHit("op:agg").ok());
  EXPECT_TRUE(fi.OnHit("op:agg").ok());
  const Status st = fi.OnHit("op:agg");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("op:agg"), std::string::npos);
  // max_fires defaults to 1: the site keeps working afterwards (models a
  // crash that a restarted job must not hit again).
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(fi.OnHit("op:agg").ok());
  }
  EXPECT_EQ(fi.fires(), 1u);
}

TEST(FaultInjectorTest, OtherSitesUnaffected) {
  FaultInjector fi;
  fi.AddRule(FaultInjector::FailAtHit("op:agg", 1));
  EXPECT_TRUE(fi.OnHit("source:gen").ok());
  EXPECT_TRUE(fi.OnHit("op:sink").ok());
  EXPECT_FALSE(fi.OnHit("op:agg").ok());
}

TEST(FaultInjectorTest, WildcardMatchesEverySite) {
  FaultInjector fi;
  fi.AddRule(FaultInjector::FailAtHit("*", 2));
  EXPECT_TRUE(fi.OnHit("a").ok());
  EXPECT_FALSE(fi.OnHit("b").ok());  // second hit across all sites
}

TEST(FaultInjectorTest, ThrowKindThrows) {
  FaultInjector fi;
  fi.AddRule(
      FaultInjector::FailAtHit("op:agg", 1, FaultInjector::FaultKind::kThrow));
  EXPECT_THROW((void)fi.OnHit("op:agg"), std::runtime_error);
  EXPECT_EQ(fi.fires(), 1u);
}

TEST(FaultInjectorTest, CheckpointRuleFiresOnMatchingIdOnly) {
  FaultInjector fi;
  fi.AddRule(FaultInjector::FailOnCheckpoint("op:agg", 2));
  // Checkpoint rules never fire on the record path.
  EXPECT_TRUE(fi.OnHit("op:agg").ok());
  EXPECT_TRUE(fi.OnCheckpoint("op:agg", 1).ok());
  EXPECT_TRUE(fi.OnCheckpoint("source:gen", 2).ok());
  EXPECT_FALSE(fi.OnCheckpoint("op:agg", 2).ok());
  // One-shot by default.
  EXPECT_TRUE(fi.OnCheckpoint("op:agg", 2).ok());
}

TEST(FaultInjectorTest, ProbabilityIsDeterministicUnderSeed) {
  auto count_fires = [](uint64_t seed) {
    FaultInjector fi(seed);
    auto rule = FaultInjector::FailWithProbability("op:x", 0.1);
    rule.max_fires = 0;  // unlimited
    fi.AddRule(rule);
    uint64_t failures = 0;
    uint64_t first_failure_hit = 0;
    for (uint64_t i = 1; i <= 1000; ++i) {
      if (!fi.OnHit("op:x").ok()) {
        ++failures;
        if (first_failure_hit == 0) first_failure_hit = i;
      }
    }
    return std::make_pair(failures, first_failure_hit);
  };
  const auto a = count_fires(7);
  const auto b = count_fires(7);
  EXPECT_EQ(a, b);  // same seed, same fault schedule
  // ~10% of 1000, loosely bounded.
  EXPECT_GT(a.first, 50u);
  EXPECT_LT(a.first, 200u);
  const auto c = count_fires(8);
  EXPECT_NE(a.second, c.second);  // different seed, different schedule
}

TEST(FaultInjectorTest, MaxFiresBoundsProbabilityRule) {
  FaultInjector fi(3);
  fi.AddRule(FaultInjector::FailWithProbability(
      "op:x", 1.0, FaultInjector::FaultKind::kStatus, 2));
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (!fi.OnHit("op:x").ok()) ++failures;
  }
  EXPECT_EQ(failures, 2);
}

TEST(FaultInjectorTest, MultipleRulesIndependentCounters) {
  FaultInjector fi;
  fi.AddRule(FaultInjector::FailAtHit("op:a", 2));
  fi.AddRule(FaultInjector::FailAtHit("op:b", 1));
  EXPECT_FALSE(fi.OnHit("op:b").ok());
  EXPECT_TRUE(fi.OnHit("op:a").ok());
  EXPECT_FALSE(fi.OnHit("op:a").ok());
  EXPECT_EQ(fi.fires(), 2u);
}

// OnSpan(site, n) is the batch path's stand-in for n OnHit calls: it must
// fire the same rules, at the same hits, with the same messages, and leave
// the same counters behind, however the hit stream is cut into spans.
TEST(FaultInjectorTest, SpanMatchesRepeatedHits) {
  using Kind = FaultInjector::FaultKind;
  auto add_rules = [](FaultInjector* fi) {
    auto at_hit = FaultInjector::FailAtHit("op:a", 40, Kind::kThrow);
    at_hit.max_fires = 3;  // broken from hit 40 on, three times
    fi->AddRule(at_hit);
    fi->AddRule(
        FaultInjector::FailWithProbability("op:b", 0.02, Kind::kStatus, 5));
    auto wildcard = FaultInjector::FailAtHit("*", 300, Kind::kThrow);
    wildcard.max_fires = 2;
    fi->AddRule(wildcard);
  };
  // (position in the stream, kind, message) of every fault.
  using Fault = std::tuple<size_t, Kind, std::string>;
  const std::vector<std::string> sites = {"op:a", "op:b", "op:c"};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Runs of one site, as a channel batch would deliver them.
    std::vector<std::string> stream;
    while (stream.size() < 2000) {
      const std::string& site = sites[rng.NextBelow(sites.size())];
      stream.insert(stream.end(), 1 + rng.NextBelow(40), site);
    }

    FaultInjector per_hit(seed);
    add_rules(&per_hit);
    std::vector<Fault> hit_faults;
    for (size_t i = 0; i < stream.size(); ++i) {
      try {
        const Status st = per_hit.OnHit(stream[i]);
        if (!st.ok()) hit_faults.emplace_back(i, Kind::kStatus, st.message());
      } catch (const std::runtime_error& e) {
        hit_faults.emplace_back(i, Kind::kThrow, e.what());
      }
    }

    FaultInjector spans(seed);
    add_rules(&spans);
    std::vector<Fault> span_faults;
    size_t i = 0;
    while (i < stream.size()) {
      // A random span that stays within one run of the same site.
      size_t n = 1;
      const size_t want = 1 + rng.NextBelow(64);
      while (n < want && i + n < stream.size() && stream[i + n] == stream[i]) {
        ++n;
      }
      const FaultInjector::SpanFault f = spans.OnSpan(stream[i], n);
      if (!f.fired) {
        EXPECT_EQ(f.passed, n);
        i += n;
        continue;
      }
      ASSERT_LT(f.passed, n);
      if (f.kind == Kind::kStatus) {
        EXPECT_EQ(f.status.message(), f.message);
      } else {
        EXPECT_TRUE(f.status.ok());
      }
      span_faults.emplace_back(i + f.passed, f.kind, f.message);
      i += f.passed + 1;  // the faulted hit was counted; delivery resumes
    }

    EXPECT_EQ(span_faults, hit_faults);
    EXPECT_EQ(spans.fires(), per_hit.fires());
    for (const std::string& site : sites) {
      EXPECT_EQ(spans.hits(site), per_hit.hits(site)) << site;
    }
    // Every rule fired: the three at-hit faults, the two wildcard faults
    // and at least one probabilistic one.
    EXPECT_GE(hit_faults.size(), 6u);
  }
}

}  // namespace
}  // namespace streamline
