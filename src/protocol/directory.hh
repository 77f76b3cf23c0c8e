/**
 * @file
 * Dynamic pointer allocation directory storage.
 *
 * The paper's initial protocol (Simoni's dynamic pointer allocation)
 * keeps one 8-byte directory header per 128-byte memory line, holding
 * state bits and a link into a linked list of sharers allocated from a
 * free pool. All of it lives in main memory and is accessed by the PP
 * through the MAGIC data cache; this class is that memory region.
 *
 * The store is word-addressable (loadWord/storeWord) so PP handler
 * programs can execute against it through a PpMemory adapter, and also
 * exposes typed helpers used by the authoritative C++ handlers. Both
 * views manipulate the same packed words.
 *
 * Address map (per node; nodes never touch each other's region):
 *   headerAddr(line)  = kDirHeaderBase + lineNumber(line) * 8
 *   linkAddr(idx)     = kLinkPoolBase + idx * 8
 *   free-list head    = linkAddr(0)  (link index 0 is the null index)
 *
 * Header word: bit 0 dirty, bits [16,32) head link index, bits [32,48)
 * owner node. Link word: bits [0,16) node, bits [16,32) next link
 * index.
 *
 * Storage is a paged flat store rather than a hash map: a region
 * decoder maps each word address onto one of three index-addressed
 * backings — fixed-size zero-filled header pages indexed by line
 * number, a flat link-pool vector, and the fixed ack-table array — so
 * the word-level view PP programs execute through costs a couple of
 * compares and an array index instead of a hash probe. A word address
 * outside the decoded regions, or a misaligned one, is a bug and
 * panics.
 */

#ifndef FLASHSIM_PROTOCOL_DIRECTORY_HH_
#define FLASHSIM_PROTOCOL_DIRECTORY_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace flashsim::protocol
{

/** Base of the directory header region in the protocol address space. */
inline constexpr Addr kDirHeaderBase = Addr{1} << 44;
/**
 * Base of the sharer-link pool region. The region bases are staggered
 * by a quarter of the MAGIC data cache's sets so the header, link and
 * ack-table words of one memory line do not systematically alias into
 * the same MDC set (a real machine gets this for free from physical
 * allocation).
 */
inline constexpr Addr kLinkPoolBase = (Addr{1} << 45) + 64 * 128;

/** Base of the per-line invalidation-ack counting table (staggered by
 *  half the MDC sets; see kLinkPoolBase). */
inline constexpr Addr kAckTableBase = (Addr{1} << 46) + 128 * 128;

/** Entries in the direct-mapped ack table. */
inline constexpr std::uint32_t kAckTableEntries = 1024;

/** Ack-table entry address for a line (direct-mapped, 1024 entries). */
constexpr Addr
ackAddr(Addr addr)
{
    return kAckTableBase + (lineNumber(addr) % kAckTableEntries) * 8;
}

/** Header field bit positions (shared with the PP handler programs). */
namespace dirfield
{
inline constexpr unsigned kDirtyBit = 0;
inline constexpr unsigned kHeadLo = 16;
inline constexpr unsigned kHeadWidth = 16;
inline constexpr unsigned kOwnerLo = 32;
inline constexpr unsigned kOwnerWidth = 16;
} // namespace dirfield

/** Address of the directory header word for @p addr's line. */
constexpr Addr
headerAddr(Addr addr)
{
    return kDirHeaderBase + lineNumber(addr) * 8;
}

/** Address of link-pool entry @p idx. */
constexpr Addr
linkAddr(std::uint32_t idx)
{
    return kLinkPoolBase + static_cast<Addr>(idx) * 8;
}

/** Decoded directory header. */
struct DirHeader
{
    bool dirty = false;
    std::uint32_t head = 0;  ///< first sharer link index (0 = empty)
    NodeId owner = 0;        ///< owning node when dirty

    static DirHeader unpack(std::uint64_t w);
    std::uint64_t pack() const;
};

/** Decoded sharer-list link entry. */
struct LinkEntry
{
    NodeId node = 0;
    std::uint32_t next = 0;

    static LinkEntry unpack(std::uint64_t w);
    std::uint64_t pack() const;
};

/**
 * The per-node protocol data store: directory headers plus the sharer
 * link pool with an embedded free list.
 */
class DirectoryStore
{
  public:
    /** Words per header page (one page covers this many memory lines). */
    static constexpr std::uint32_t kPageWords = 4096;
    /** Header words decoded (lines past this panic). */
    static constexpr std::uint64_t kMaxHeaderWords = std::uint64_t{1}
                                                     << 26;
    /** Link words decoded (indices past this panic). */
    static constexpr std::uint64_t kMaxLinkWords = std::uint64_t{1} << 26;

    /** @param pool_limit maximum live link entries (fatal if exceeded). */
    explicit DirectoryStore(std::uint32_t pool_limit = 1u << 22);

    // -- Word-level access (PP handler programs / MDC path) ---------------
    std::uint64_t loadWord(Addr a) const;
    void storeWord(Addr a, std::uint64_t v);

    // -- Typed access (authoritative C++ handlers) -------------------------
    DirHeader header(Addr line) const;
    void setHeader(Addr line, const DirHeader &h);

    LinkEntry link(std::uint32_t idx) const;
    void setLink(std::uint32_t idx, const LinkEntry &e);

    /** Prepend @p node to @p line's sharer list. */
    void addSharer(Addr line, NodeId node);

    /**
     * Remove @p node from @p line's sharer list.
     * @return zero-based position the node was found at, or -1.
     */
    int removeSharer(Addr line, NodeId node);

    /** All sharers of @p line, head first. */
    std::vector<NodeId> sharers(Addr line) const;

    bool isSharer(Addr line, NodeId node) const;
    int countSharers(Addr line) const;

    /** Free the whole sharer list (used after invalidating all). */
    void clearSharers(Addr line);

    /** Live (allocated, in-use) link entries. */
    std::uint32_t liveLinks() const { return liveLinks_; }

  private:
    /** One zero-filled header page. */
    using Page = std::unique_ptr<std::uint64_t[]>;

    /** lineNumber(@p line); panics past kMaxHeaderWords. */
    static std::uint64_t headerIndex(Addr line);
    std::uint32_t allocLink();
    void freeLink(std::uint32_t idx);
    /** Keep the free-list head word readable by PP programs. */
    void mirrorFreeHead();

    // Direct region accessors used by both the word-level decoder and
    // the typed fast paths.
    std::uint64_t
    headerWord(std::uint64_t w) const
    {
        std::uint64_t page = w / kPageWords;
        if (page >= headerPages_.size() || !headerPages_[page])
            return 0;
        return headerPages_[page][w % kPageWords];
    }
    void setHeaderWord(std::uint64_t w, std::uint64_t v);

    std::uint64_t
    linkWord(std::uint64_t idx) const
    {
        return idx < links_.size() ? links_[idx] : 0;
    }
    void setLinkWord(std::uint64_t idx, std::uint64_t v);

    std::vector<Page> headerPages_;
    std::vector<std::uint64_t> links_;
    std::vector<std::uint64_t> ackTable_;

    std::uint32_t freeHead_ = 1;
    std::uint32_t nextUnused_ = 2;
    std::uint32_t poolLimit_;
    std::uint32_t liveLinks_ = 0;
};

} // namespace flashsim::protocol

#endif // FLASHSIM_PROTOCOL_DIRECTORY_HH_
