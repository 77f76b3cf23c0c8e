/**
 * @file
 * Edge cases for the flat open-addressing tables (sim/flat_table.hh).
 *
 * The slot encodings make three classes of bugs easy to introduce and
 * hard to notice: key 0 colliding with the default-initialized (empty)
 * slot key, off-by-one errors at the grow-at-half-full boundary, and
 * ScratchWordMap's generation stamp resurrecting stale entries across
 * reset cycles. Each gets a dedicated test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/flat_table.hh"

namespace flashsim
{
namespace
{

// ---------------------------------------------------------------------
// FlatCounterMap: key 0 vs the empty-slot sentinel.
// ---------------------------------------------------------------------

TEST(FlatCounterMap, KeyZeroIsARealKey)
{
    FlatCounterMap m;
    // Empty slots also carry key == 0; only the used flag may
    // distinguish them.
    EXPECT_EQ(m.find(0), nullptr);
    EXPECT_EQ(m.count(0), 0u);

    m[0] = 41;
    ++m[0];
    EXPECT_EQ(m.size(), 1u);
    ASSERT_NE(m.find(0), nullptr);
    EXPECT_EQ(*m.find(0), 42u);
    EXPECT_EQ(m.count(0), 1u);

    // Key 0 must survive iteration and a rehash among other keys.
    for (std::uint64_t k = 1; k <= 100; ++k)
        m[k] = k;
    EXPECT_EQ(m.size(), 101u);
    ASSERT_NE(m.find(0), nullptr);
    EXPECT_EQ(*m.find(0), 42u);

    bool saw_zero = false;
    std::size_t seen = 0;
    for (const auto &[key, value] : m) {
        ++seen;
        if (key == 0) {
            saw_zero = true;
            EXPECT_EQ(value, 42u);
        }
    }
    EXPECT_EQ(seen, 101u);
    EXPECT_TRUE(saw_zero);
}

TEST(FlatCounterMap, FindOnEmptyMapIsSafe)
{
    FlatCounterMap m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(12345), nullptr);
    EXPECT_EQ(m.count(12345), 0u);
    EXPECT_EQ(m.begin(), m.end());
}

// ---------------------------------------------------------------------
// FlatCounterMap: growth exactly at the half-full boundary.
// ---------------------------------------------------------------------

TEST(FlatCounterMap, GrowthAtHalfFullPreservesEveryEntry)
{
    // First table is 16 slots; operator[] grows when 2 * (live + 1)
    // would exceed the slot count, i.e. on the insertion that would
    // make it more than half full. Cross several doublings and verify
    // nothing is lost or corrupted at any boundary.
    FlatCounterMap m;
    constexpr std::uint64_t kKeys = 300; // 16 -> 32 -> ... -> 1024 slots
    for (std::uint64_t k = 0; k < kKeys; ++k) {
        m[k * 0x10001ull] = k + 1;
        ASSERT_EQ(m.size(), k + 1);
        // Every previously inserted key must still be present with its
        // value — a bad rehash shows up immediately at the boundary.
        if (k == 7 || k == 8 || k == 15 || k == 16 || k == 127 ||
            k == 128 || k == kKeys - 1) {
            for (std::uint64_t j = 0; j <= k; ++j) {
                const Counter *v = m.find(j * 0x10001ull);
                ASSERT_NE(v, nullptr) << "lost key " << j << " at " << k;
                EXPECT_EQ(*v, j + 1);
            }
        }
    }
    EXPECT_EQ(m.size(), kKeys);

    // Iteration visits each entry exactly once after all the rehashes.
    std::vector<std::uint64_t> keys;
    for (const auto &[key, value] : m)
        keys.push_back(key);
    EXPECT_EQ(keys.size(), kKeys);
    std::sort(keys.begin(), keys.end());
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
}

TEST(FlatCounterMap, CollidingKeysProbeCorrectly)
{
    // Keys crafted to land in few distinct buckets exercise the linear
    // probe chain across a grow.
    FlatCounterMap m;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 0; keys.size() < 24; ++k)
        if ((flatTableHash(k) & 15) < 2)
            keys.push_back(k);
    for (std::size_t i = 0; i < keys.size(); ++i)
        m[keys[i]] = i + 1;
    EXPECT_EQ(m.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const Counter *v = m.find(keys[i]);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, i + 1);
    }
}

TEST(FlatCounterMap, ReserveThenFillDoesNotLoseEntries)
{
    FlatCounterMap m;
    m.reserve(100);
    for (std::uint64_t k = 0; k < 100; ++k)
        m[k] = k;
    EXPECT_EQ(m.size(), 100u);
    for (std::uint64_t k = 0; k < 100; ++k) {
        ASSERT_NE(m.find(k), nullptr);
        EXPECT_EQ(*m.find(k), k);
    }
}

TEST(FlatCounterMap, ClearEmptiesAndReusesCleanly)
{
    FlatCounterMap m;
    for (std::uint64_t k = 0; k < 50; ++k)
        m[k] = 1;
    m.clear();
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0u);
    EXPECT_EQ(m.find(10), nullptr);
    m[10] = 7;
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(*m.find(10), 7u);
}

// ---------------------------------------------------------------------
// ScratchWordMap: generation stamp across many reset cycles.
// ---------------------------------------------------------------------

TEST(ScratchWordMap, KeyZeroDistinctFromNeverUsedSlot)
{
    // A fresh slot has key == 0 and gen == 0; the first generation is
    // 1, so find(0) must miss until key 0 is genuinely inserted.
    ScratchWordMap m;
    EXPECT_EQ(m.find(0), nullptr);
    m.put(0, 99);
    ASSERT_NE(m.find(0), nullptr);
    EXPECT_EQ(*m.find(0), 99u);
    m.reset();
    EXPECT_EQ(m.find(0), nullptr);
}

TEST(ScratchWordMap, ResetForgetsInConstantTime)
{
    ScratchWordMap m;
    for (std::uint64_t k = 0; k < 20; ++k)
        m.put(k, k * 10);
    EXPECT_EQ(m.size(), 20u);
    m.reset();
    EXPECT_EQ(m.size(), 0u);
    for (std::uint64_t k = 0; k < 20; ++k)
        EXPECT_EQ(m.find(k), nullptr) << "stale key " << k;
}

TEST(ScratchWordMap, ManyResetCyclesNeverResurrectStaleEntries)
{
    // The MDC shadow tracker resets once per handler invocation —
    // millions of times per simulation. Each generation writes a
    // distinguishable value; any stale read from an earlier generation
    // (or a stamp collision) is caught immediately.
    ScratchWordMap m(16);
    for (std::uint64_t gen = 0; gen < 10000; ++gen) {
        // Overlapping key sets between generations so stale slots are
        // frequently re-probed.
        const std::uint64_t base = gen % 7;
        m.put(base, gen);
        m.put(base + 1, gen + 1);
        ASSERT_EQ(m.size(), 2u) << "generation " << gen;
        const std::uint64_t *a = m.find(base);
        const std::uint64_t *b = m.find(base + 1);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(*a, gen);
        EXPECT_EQ(*b, gen + 1);
        // A key from the previous generation that is not in this one
        // must read as absent even though its slot bytes are intact.
        if (gen > 0 && (gen - 1) % 7 != base && (gen - 1) % 7 != base + 1) {
            EXPECT_EQ(m.find((gen - 1) % 7), nullptr)
                << "generation " << gen;
        }
        m.reset();
    }
}

TEST(ScratchWordMap, OverwriteWithinGenerationKeepsSizeStable)
{
    ScratchWordMap m;
    m.put(5, 1);
    m.put(5, 2);
    m.put(5, 3);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(*m.find(5), 3u);
}

TEST(ScratchWordMap, GrowthMidGenerationKeepsLiveEntriesOnly)
{
    // Fill past the half-full boundary of the initial 16-slot table in
    // one generation, with stale garbage from a previous generation
    // occupying many slots: grow() must carry live entries and drop the
    // stale ones.
    ScratchWordMap m(16);
    for (std::uint64_t k = 100; k < 108; ++k)
        m.put(k, 0xdead);
    m.reset();
    constexpr std::uint64_t kLive = 40; // forces 16 -> 32 -> ... growth
    for (std::uint64_t k = 0; k < kLive; ++k) {
        m.put(k, k + 1000);
        ASSERT_EQ(m.size(), k + 1);
    }
    for (std::uint64_t k = 0; k < kLive; ++k) {
        const std::uint64_t *v = m.find(k);
        ASSERT_NE(v, nullptr) << "lost key " << k << " across grow";
        EXPECT_EQ(*v, k + 1000);
    }
    for (std::uint64_t k = 100; k < 108; ++k)
        EXPECT_EQ(m.find(k), nullptr) << "stale key " << k << " revived";
}

} // namespace
} // namespace flashsim
