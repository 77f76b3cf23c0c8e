/**
 * @file
 * Handler timing.
 *
 * MAGIC charges the PP one occupancy per handler invocation, from one
 * of two sources:
 *
 *  - PpTimingModel: executes the compiled PP handler program (PPsim)
 *    against a shadow view of the live directory, with every load/store
 *    filtered through the MAGIC data cache model. Yields dynamic cycle
 *    counts, MDC miss traffic, and the Table 5.2 instruction statistics.
 *
 *  - tableCost(): the per-operation occupancies of Table 3.4, for the
 *    ideal machine's handler accounting and `--table-timing`.
 */

#ifndef FLASHSIM_MAGIC_TIMING_MODEL_HH_
#define FLASHSIM_MAGIC_TIMING_MODEL_HH_

#include <utility>
#include <vector>

#include "magic/magic_cache.hh"
#include "magic/params.hh"
#include "ppisa/ppsim.hh"
#include "protocol/directory.hh"
#include "protocol/handlers.hh"
#include "protocol/message.hh"
#include "protocol/pp_programs.hh"

namespace flashsim::magic
{

/** Per-invocation information the PP model reports back to MAGIC. */
struct HandlerTiming
{
    Cycles occupancy = 0;       ///< PP busy cycles (incl. MDC stalls)
    std::uint32_t mdcMisses = 0;///< misses -> main-memory fills
    std::uint32_t mdcWritebacks = 0; ///< dirty victims -> memory writes
    bool micColdMiss = false;   ///< first invocation of this handler
};

/** The Table 3.4 occupancy of a handler outcome; @p param is the
 *  HandlerResult's costParam (invalidations, sharer-list position). */
Cycles tableCost(protocol::HandlerId id, int param);

/**
 * PP cycles a PPsim-timed handler adds when it directs a PI
 * intervention: the PP coordinates while data streams out of the
 * processor cache, and Table 3.4 charges this to the handler
 * ("retrieve data from processor cache": 38 cycles total).
 */
inline constexpr Cycles kCacheRetrieveCycles =
    kCacheStateRetrieve + kCacheDataRetrieve - 1;

/** PPsim-driven timing. */
class PpTimingModel
{
  public:
    PpTimingModel(const protocol::HandlerPrograms &programs,
                  const protocol::DirectoryStore &dir,
                  const MagicParams &params);

    /**
     * Run @p entry's handler program for @p msg arriving at @p self,
     * against the directory as it stands before the authoritative C++
     * handler mutates it; @p home and @p cache_dirty are the inputs the
     * C++ handler gets. The occupancy excludes kCacheRetrieveCycles,
     * which only the C++ handler's result decides.
     */
    HandlerTiming run(const protocol::HandlerPrograms::Entry &entry,
                      const protocol::Message &msg, NodeId self,
                      NodeId home, bool cache_dirty);

    /** Cross-check every handler run against the reference
     *  interpreter (ppisa::PpSim's checked run). */
    void checkEngine(bool on) { sim_ = ppisa::PpSim(on); }
    bool engineChecked() const { return sim_.checked(); }

    /** Accumulated dynamic instruction statistics (Table 5.2). */
    const ppisa::RunStats &runStats() const { return stats_; }

    /** The MDC model (Section 5.2 statistics). */
    const MagicCache &mdc() const { return mdc_; }
    MagicCache &mdc() { return mdc_; }

  private:
    /** Shadow memory: reads through to the live directory, buffers
     *  writes, charges MDC miss penalties. */
    class ShadowMemory : public ppisa::PpMemory
    {
      public:
        ShadowMemory(const protocol::DirectoryStore &dir, MagicCache &mdc,
                     Cycles miss_penalty)
            : dir_(dir), mdc_(mdc), missPenalty_(miss_penalty)
        {
            writes_.reserve(32);
        }

        std::uint64_t load(Addr addr, Cycles &extra) override;
        void store(Addr addr, std::uint64_t value, Cycles &extra) override;

        void reset();
        std::uint32_t misses = 0;
        std::uint32_t writebacks = 0;

      private:
        const protocol::DirectoryStore &dir_;
        MagicCache &mdc_;
        Cycles missPenalty_;
        /** The current invocation's shadow writes, one (address, word)
         *  entry per word written, cleared by reset(). A handler writes
         *  a handful of words, so a linear scan is all it needs. */
        std::vector<std::pair<Addr, std::uint64_t>> writes_;
    };

    /** The programs and jump table; shared, and outlive the model. */
    const protocol::HandlerPrograms &programs_;
    Cycles micColdMiss_;
    MagicCache mdc_;
    ShadowMemory shadow_;
    ppisa::PpSim sim_;
    ppisa::RunStats stats_;
    /** Reused per-invocation Send buffer (no allocation per handler). */
    std::vector<ppisa::SentMessage> sent_;
    /** Per-program "has run at least once" (MIC cold miss), indexed
     *  like HandlerPrograms::programs: jump-table entries that share a
     *  program share its warm flag. */
    std::vector<bool> warm_;
};

} // namespace flashsim::magic

#endif // FLASHSIM_MAGIC_TIMING_MODEL_HH_
