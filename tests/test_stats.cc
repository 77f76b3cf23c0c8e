/** @file Unit tests for statistics primitives. */

#include <gtest/gtest.h>

#include "sim/random.hh"
#include "sim/stats.hh"

namespace flashsim
{
namespace
{

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
}

TEST(Distribution, TracksMoments)
{
    Distribution d;
    d.sample(10);
    d.sample(20);
    d.sample(30);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 20.0);
    EXPECT_DOUBLE_EQ(d.min(), 10.0);
    EXPECT_DOUBLE_EQ(d.max(), 30.0);
    EXPECT_DOUBLE_EQ(d.last(), 30.0);
}

TEST(Distribution, ResetClears)
{
    Distribution d;
    d.sample(5);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.sum(), 0.0);
}

TEST(Distribution, ResetClearsLastSample)
{
    // Regression: reset() used to leave last_ stale, so a reused
    // distribution reported the previous run's final sample.
    Distribution d;
    d.sample(42);
    d.reset();
    EXPECT_EQ(d.last(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
    d.sample(7);
    EXPECT_DOUBLE_EQ(d.last(), 7.0);
    EXPECT_DOUBLE_EQ(d.min(), 7.0);
    EXPECT_DOUBLE_EQ(d.max(), 7.0);
}

TEST(Occupancy, FractionOfInterval)
{
    Occupancy o;
    o.addBusy(25);
    o.addBusy(25);
    EXPECT_DOUBLE_EQ(o.fraction(100), 0.5);
    EXPECT_DOUBLE_EQ(o.fraction(0), 0.0);
    EXPECT_EQ(o.busyCycles(), 50u);
    o.reset();
    EXPECT_EQ(o.busyCycles(), 0u);
}

TEST(Helpers, PctAndRatio)
{
    EXPECT_DOUBLE_EQ(pct(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(pct(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
    EXPECT_DOUBLE_EQ(ratio(3, 0), 0.0);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Rng c(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(c.below(17), 17u);
        double u = c.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

// Golden draws for the widening-multiply (Lemire) reduction. These pin
// the cross-platform sequence: workload address streams are derived
// from these draws, so a change here silently changes every seeded
// simulation. Update deliberately, never to paper over a regression.
TEST(Rng, BelowGoldenSequence)
{
    Rng r(42);
    const std::uint64_t expected[] = {2, 5, 5, 6, 5, 5, 1, 3, 2, 4};
    for (std::uint64_t e : expected)
        EXPECT_EQ(r.below(7), e);
    Rng s(42);
    const std::uint64_t expected1000[] = {339, 782, 790, 944, 764,
                                          835, 204, 439, 302, 673};
    for (std::uint64_t e : expected1000)
        EXPECT_EQ(s.below(1000), e);
}

// below() must consume exactly one next() per call regardless of the
// bound, so mixed-draw replay sequences stay aligned.
TEST(Rng, BelowConsumesOneDrawPerCall)
{
    Rng a(9), b(9);
    a.below(3);
    a.below(1000000007ull);
    a.below(2);
    b.next();
    b.next();
    b.next();
    EXPECT_EQ(a.next(), b.next());
}

// The widening multiply maps the full 64-bit draw onto [0, bound), so
// small bounds must still reach every value (the old modulo reduction
// did too, but with a low-value skew this distribution check would
// flag if the reduction regressed to e.g. taking only high bits of a
// narrow draw).
TEST(Rng, BelowCoversRangeUniformly)
{
    Rng r(1234);
    constexpr std::uint64_t kBound = 8;
    constexpr int kDraws = 8000;
    int counts[kBound] = {};
    for (int i = 0; i < kDraws; ++i)
        ++counts[r.below(kBound)];
    for (std::uint64_t v = 0; v < kBound; ++v) {
        EXPECT_GT(counts[v], kDraws / static_cast<int>(kBound) / 2)
            << "value " << v << " drawn too rarely";
        EXPECT_LT(counts[v], kDraws * 2 / static_cast<int>(kBound))
            << "value " << v << " drawn too often";
    }
}

TEST(RngDeathTest, BelowZeroBoundAsserts)
{
    EXPECT_DEATH(
        {
            Rng r(5);
            (void)r.below(0);
        },
        "nonzero bound");
}

} // namespace
} // namespace flashsim
