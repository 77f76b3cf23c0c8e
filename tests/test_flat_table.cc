/**
 * @file
 * Edge cases for the flat open-addressing table (sim/flat_table.hh).
 *
 * The slot encoding makes two classes of bugs easy to introduce and
 * hard to notice: key 0 colliding with the default-initialized (empty)
 * slot key, and off-by-one errors at the grow-at-half-full boundary.
 * Each gets a dedicated test.
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

} // namespace
} // namespace flashsim
