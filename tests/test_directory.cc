/** @file Unit tests for the dynamic pointer allocation directory. */

#include <algorithm>
#include <random>
#include <unordered_map>

#include <gtest/gtest.h>

#include "protocol/directory.hh"

namespace flashsim::protocol
{
namespace
{

constexpr Addr kLine = 0x4000;

/**
 * The historical map-backed word store, with the typed directory
 * operations layered purely on loadWord/storeWord: the conformance
 * oracle the paged flat store must match bit for bit. Kept deliberately
 * naive — every access is a map probe — so its correctness is obvious
 * by inspection.
 */
class LegacyMapStore
{
  public:
    LegacyMapStore() { storeWord(linkAddr(0), freeHead_); }

    std::uint64_t
    loadWord(Addr a) const
    {
        auto it = words_.find(a);
        return it == words_.end() ? 0 : it->second;
    }
    void storeWord(Addr a, std::uint64_t v) { words_[a] = v; }

    DirHeader
    header(Addr line) const
    {
        return DirHeader::unpack(loadWord(headerAddr(line)));
    }
    void
    setHeader(Addr line, const DirHeader &h)
    {
        storeWord(headerAddr(line), h.pack());
    }
    LinkEntry
    link(std::uint32_t idx) const
    {
        return LinkEntry::unpack(loadWord(linkAddr(idx)));
    }
    void
    setLink(std::uint32_t idx, const LinkEntry &e)
    {
        storeWord(linkAddr(idx), e.pack());
    }

    void
    addSharer(Addr line, NodeId node)
    {
        DirHeader h = header(line);
        std::uint32_t idx = allocLink();
        setLink(idx, LinkEntry{node, h.head});
        h.head = idx;
        setHeader(line, h);
    }

    int
    removeSharer(Addr line, NodeId node)
    {
        DirHeader h = header(line);
        std::uint32_t idx = h.head;
        std::uint32_t prev = 0;
        int pos = 0;
        while (idx != 0) {
            LinkEntry e = link(idx);
            if (e.node == node) {
                if (prev == 0) {
                    h.head = e.next;
                    setHeader(line, h);
                } else {
                    LinkEntry pe = link(prev);
                    pe.next = e.next;
                    setLink(prev, pe);
                }
                freeLink(idx);
                return pos;
            }
            prev = idx;
            idx = e.next;
            ++pos;
        }
        return -1;
    }

    void
    clearSharers(Addr line)
    {
        DirHeader h = header(line);
        std::uint32_t idx = h.head;
        while (idx != 0) {
            std::uint32_t next = link(idx).next;
            freeLink(idx);
            idx = next;
        }
        h.head = 0;
        setHeader(line, h);
    }

    std::vector<NodeId>
    sharers(Addr line) const
    {
        std::vector<NodeId> out;
        std::uint32_t idx = header(line).head;
        while (idx != 0) {
            LinkEntry e = link(idx);
            out.push_back(e.node);
            idx = e.next;
        }
        return out;
    }

    bool
    isSharer(Addr line, NodeId node) const
    {
        std::uint32_t idx = header(line).head;
        while (idx != 0) {
            LinkEntry e = link(idx);
            if (e.node == node)
                return true;
            idx = e.next;
        }
        return false;
    }

    /** Highest link index ever written (for word-range comparison). */
    std::uint32_t maxLinkIndex() const { return nextUnused_; }

  private:
    std::uint32_t
    allocLink()
    {
        std::uint32_t idx = freeHead_;
        std::uint32_t next = link(idx).next;
        if (next == 0) {
            next = nextUnused_++;
            setLink(next, LinkEntry{0, 0});
        }
        freeHead_ = next;
        storeWord(linkAddr(0), freeHead_);
        return idx;
    }
    void
    freeLink(std::uint32_t idx)
    {
        setLink(idx, LinkEntry{0, freeHead_});
        freeHead_ = idx;
        storeWord(linkAddr(0), freeHead_);
    }

    std::unordered_map<Addr, std::uint64_t> words_;
    std::uint32_t freeHead_ = 1;
    std::uint32_t nextUnused_ = 2;
};

TEST(DirHeader, PackUnpackRoundtrip)
{
    DirHeader h;
    h.dirty = true;
    h.head = 0x1234;
    h.owner = 42;
    DirHeader r = DirHeader::unpack(h.pack());
    EXPECT_EQ(r.dirty, h.dirty);
    EXPECT_EQ(r.head, h.head);
    EXPECT_EQ(r.owner, h.owner);
}

TEST(LinkEntry, PackUnpackRoundtrip)
{
    LinkEntry e{55, 0xbeef};
    LinkEntry r = LinkEntry::unpack(e.pack());
    EXPECT_EQ(r.node, e.node);
    EXPECT_EQ(r.next, e.next);
}

TEST(DirectoryStore, EmptyLineHasNoSharers)
{
    DirectoryStore d;
    EXPECT_EQ(d.countSharers(kLine), 0);
    EXPECT_TRUE(d.sharers(kLine).empty());
    EXPECT_FALSE(d.isSharer(kLine, 3));
    DirHeader h = d.header(kLine);
    EXPECT_FALSE(h.dirty);
    EXPECT_EQ(h.head, 0u);
}

TEST(DirectoryStore, AddSharersPrepends)
{
    DirectoryStore d;
    d.addSharer(kLine, 1);
    d.addSharer(kLine, 2);
    d.addSharer(kLine, 3);
    EXPECT_EQ(d.countSharers(kLine), 3);
    EXPECT_EQ(d.sharers(kLine), (std::vector<NodeId>{3, 2, 1}));
    EXPECT_TRUE(d.isSharer(kLine, 2));
    EXPECT_FALSE(d.isSharer(kLine, 9));
    EXPECT_EQ(d.liveLinks(), 3u);
}

TEST(DirectoryStore, RemoveSharerReportsPosition)
{
    DirectoryStore d;
    d.addSharer(kLine, 1);
    d.addSharer(kLine, 2);
    d.addSharer(kLine, 3); // list: 3, 2, 1
    EXPECT_EQ(d.removeSharer(kLine, 3), 0);
    EXPECT_EQ(d.removeSharer(kLine, 1), 1);
    EXPECT_EQ(d.removeSharer(kLine, 7), -1);
    EXPECT_EQ(d.sharers(kLine), (std::vector<NodeId>{2}));
    EXPECT_EQ(d.liveLinks(), 1u);
}

TEST(DirectoryStore, RemoveMiddleRelinksList)
{
    DirectoryStore d;
    for (NodeId n = 1; n <= 5; ++n)
        d.addSharer(kLine, n); // 5 4 3 2 1
    EXPECT_EQ(d.removeSharer(kLine, 3), 2);
    EXPECT_EQ(d.sharers(kLine), (std::vector<NodeId>{5, 4, 2, 1}));
}

TEST(DirectoryStore, ClearSharersFreesEverything)
{
    DirectoryStore d;
    for (NodeId n = 0; n < 16; ++n)
        d.addSharer(kLine, n);
    d.clearSharers(kLine);
    EXPECT_EQ(d.countSharers(kLine), 0);
    EXPECT_EQ(d.liveLinks(), 0u);
}

TEST(DirectoryStore, FreeListRecyclesEntries)
{
    DirectoryStore d;
    d.addSharer(kLine, 1);
    std::uint32_t first = d.header(kLine).head;
    EXPECT_EQ(d.removeSharer(kLine, 1), 0);
    d.addSharer(kLine, 2);
    EXPECT_EQ(d.header(kLine).head, first); // same slot reused
}

TEST(DirectoryStore, TwoLinesIndependent)
{
    DirectoryStore d;
    constexpr Addr other = kLine + kLineSize;
    d.addSharer(kLine, 1);
    d.addSharer(other, 2);
    EXPECT_EQ(d.sharers(kLine), (std::vector<NodeId>{1}));
    EXPECT_EQ(d.sharers(other), (std::vector<NodeId>{2}));
}

TEST(DirectoryStore, HeaderBitsIndependentOfList)
{
    DirectoryStore d;
    d.addSharer(kLine, 4);
    DirHeader h = d.header(kLine);
    h.dirty = true;
    h.owner = 4;
    d.setHeader(kLine, h);
    EXPECT_EQ(d.sharers(kLine), (std::vector<NodeId>{4}));
    EXPECT_TRUE(d.header(kLine).dirty);
}

TEST(DirectoryStore, WordViewMatchesTypedView)
{
    DirectoryStore d;
    d.addSharer(kLine, 9);
    std::uint64_t w = d.loadWord(headerAddr(kLine));
    DirHeader h = DirHeader::unpack(w);
    EXPECT_EQ(h.head, d.header(kLine).head);
    LinkEntry e = LinkEntry::unpack(d.loadWord(linkAddr(h.head)));
    EXPECT_EQ(e.node, 9u);
    EXPECT_EQ(e.next, 0u);
}

TEST(DirectoryStore, FreeHeadWordMirrored)
{
    DirectoryStore d;
    // The word at link index 0 always holds the current free head.
    std::uint64_t fh0 = d.loadWord(linkAddr(0));
    EXPECT_NE(fh0, 0u);
    d.addSharer(kLine, 1);
    std::uint64_t fh1 = d.loadWord(linkAddr(0));
    EXPECT_NE(fh0, fh1);
}

TEST(DirectoryStore, PoolExhaustionIsFatal)
{
    DirectoryStore d(4);
    d.addSharer(kLine, 1);
    d.addSharer(kLine, 2);
    EXPECT_DEATH(
        {
            for (NodeId n = 3; n < 10; ++n)
                d.addSharer(kLine, n);
        },
        "pool exhausted");
}

TEST(DirectoryStore, HeaderAddrGeometry)
{
    // 16 directory headers (8 bytes each) share one 128-byte MDC line,
    // so headers for 2 KB of contiguous data live on one MDC line
    // (Section 5.2).
    Addr a0 = headerAddr(0);
    Addr a1 = headerAddr(15 * kLineSize);
    Addr a2 = headerAddr(16 * kLineSize);
    EXPECT_EQ(a1 - a0, 15u * 8u);
    EXPECT_EQ(a2 - a0, 16u * 8u);
    EXPECT_EQ(a0 / 128, a1 / 128);
    EXPECT_NE(a0 / 128, a2 / 128);
}

TEST(DirectoryStore, StressManyLinesAndSharers)
{
    DirectoryStore d;
    for (int l = 0; l < 64; ++l) {
        Addr line = static_cast<Addr>(l) * kLineSize;
        for (NodeId n = 0; n < 16; ++n)
            d.addSharer(line, n);
    }
    EXPECT_EQ(d.liveLinks(), 64u * 16u);
    for (int l = 0; l < 64; ++l) {
        Addr line = static_cast<Addr>(l) * kLineSize;
        EXPECT_EQ(d.countSharers(line), 16);
        for (NodeId n = 0; n < 16; ++n)
            EXPECT_GE(d.removeSharer(line, n), 0);
    }
    EXPECT_EQ(d.liveLinks(), 0u);
}

TEST(DirectoryOracle, RandomizedSequencesMatchLegacyMapStore)
{
    // Drive the flat store and the historical map-backed oracle through
    // the same randomized add/remove/clear/header-poke sequence. The
    // allocation discipline is deterministic, so not just the typed
    // results but the raw word view must stay bit-identical throughout.
    std::mt19937 rng(0xf1a54u);
    DirectoryStore d;
    LegacyMapStore o;
    constexpr int kLines = 12;
    constexpr NodeId kNodes = 16;
    constexpr int kOps = 4000;

    auto line_of = [](int i) { return static_cast<Addr>(i) * kLineSize; };

    for (int i = 0; i < kOps; ++i) {
        Addr line = line_of(static_cast<int>(rng() % kLines));
        NodeId node = static_cast<NodeId>(rng() % kNodes);
        switch (rng() % 8) {
        case 0:
        case 1:
        case 2:
        case 3:
            // The protocol never double-adds a sharer; mirror that.
            if (!d.isSharer(line, node)) {
                d.addSharer(line, node);
                o.addSharer(line, node);
            }
            break;
        case 4:
        case 5:
            ASSERT_EQ(d.removeSharer(line, node),
                      o.removeSharer(line, node));
            break;
        case 6:
            d.clearSharers(line);
            o.clearSharers(line);
            break;
        case 7: {
            // Flip dirty/owner through the raw word view, the way a PP
            // handler program would.
            std::uint64_t w = d.loadWord(headerAddr(line));
            ASSERT_EQ(w, o.loadWord(headerAddr(line)));
            DirHeader h = DirHeader::unpack(w);
            h.dirty = !h.dirty;
            h.owner = node;
            d.storeWord(headerAddr(line), h.pack());
            o.storeWord(headerAddr(line), h.pack());
            break;
        }
        }
        ASSERT_EQ(d.isSharer(line, node), o.isSharer(line, node));
    }

    for (int l = 0; l < kLines; ++l) {
        Addr line = line_of(l);
        EXPECT_EQ(d.sharers(line), o.sharers(line)) << "line " << l;
        EXPECT_EQ(d.loadWord(headerAddr(line)), o.loadWord(headerAddr(line)))
            << "header word, line " << l;
    }
    // Whole link-pool region, including the mirrored free head at index
    // 0 and every slot the sequence ever touched.
    for (std::uint32_t idx = 0; idx <= o.maxLinkIndex(); ++idx)
        EXPECT_EQ(d.loadWord(linkAddr(idx)), o.loadWord(linkAddr(idx)))
            << "link word " << idx;
}

TEST(DirectoryDeathTest, WordViewPanicsOutsideDecodedRegions)
{
    // Every PP program address decodes to a header, link or ack-table
    // word; a misaligned or out-of-region address is a bug.
    DirectoryStore d;
    const Addr addrs[] = {
        headerAddr(kLine) + 1,              // misaligned header
        linkAddr(7) + 3,                    // misaligned link
        Addr{0x1234},                       // below every region
        kAckTableBase + kAckTableEntries * 8, // past the ack table
    };
    for (Addr a : addrs) {
        EXPECT_DEATH(d.loadWord(a), "DirectoryStore::loadWord: address");
        EXPECT_DEATH(d.storeWord(a, 1), "DirectoryStore::storeWord: address");
    }
    // A line past the decoded headers has no header word either.
    const Addr past = DirectoryStore::kMaxHeaderWords * kLineSize;
    EXPECT_DEATH(d.header(past), "past the [0-9]+ directory headers");
    EXPECT_DEATH(d.setHeader(past, DirHeader{}),
                 "past the [0-9]+ directory headers");
}

TEST(DirectoryStore, FreeListReusedAfterClearSharers)
{
    DirectoryStore d;
    constexpr NodeId kSharerCount = 8;
    for (NodeId n = 0; n < kSharerCount; ++n)
        d.addSharer(kLine, n);
    // Record the pool high-water mark: the largest link index on the
    // list after the first fill.
    std::uint32_t high = 0;
    for (std::uint32_t idx = d.header(kLine).head; idx != 0;
         idx = d.link(idx).next)
        high = std::max(high, idx);

    d.clearSharers(kLine);
    EXPECT_EQ(d.liveLinks(), 0u);

    for (NodeId n = 0; n < kSharerCount; ++n)
        d.addSharer(kLine, n);
    EXPECT_EQ(d.liveLinks(), kSharerCount);
    // Refilling must recycle the freed slots, never grow the pool.
    for (std::uint32_t idx = d.header(kLine).head; idx != 0;
         idx = d.link(idx).next)
        EXPECT_LE(idx, high);
}

} // namespace
} // namespace flashsim::protocol
