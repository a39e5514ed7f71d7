#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <set>

namespace hmpi::support {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.next() != b.next()) ++differing;
  }
  EXPECT_GT(differing, 30);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(10), 10u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextInSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.next_in(4, 4), 4);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 4000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 4000.0, 0.5, 0.05);  // rough uniformity
}

TEST(Rng, NextDoubleInRange) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const double v = rng.next_double_in(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, DiscardSkipsExactlyNDraws) {
  for (const std::uint64_t n : {0ULL, 1ULL, 2ULL, 37ULL, 100000ULL}) {
    Rng stepped(0x5eed);
    for (std::uint64_t i = 0; i < n; ++i) stepped.next();
    Rng skipped(0x5eed);
    skipped.discard(n);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(stepped.next(), skipped.next()) << "n = " << n;
    }
  }
}

TEST(Rng, DiscardsCompose) {
  const std::uint64_t pairs[][2] = {
      {0, 0}, {3, 5}, {37, 100000}, {1ULL << 63, 1ULL << 63},
      {~0ULL, 2}, {0xfedcba9876543210ULL, 0x123456789abcdef0ULL}};
  for (const auto& [a, b] : pairs) {
    Rng twice(99);
    twice.discard(a);
    twice.discard(b);
    Rng once(99);
    once.discard(a + b);  // wraps past 2^64 for the last three pairs
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(twice.next(), once.next()) << a << " + " << b;
    }
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  Rng b(42);
  Rng child2 = b.split();
  // Split is deterministic...
  for (int i = 0; i < 10; ++i) EXPECT_EQ(child.next(), child2.next());
  // ...and differs from the parent stream.
  Rng c(42);
  c.next();  // parent consumed one value creating the child
  EXPECT_NE(child.next(), c.next());
}

}  // namespace
}  // namespace hmpi::support
