/**
 * @file
 * Per-core address translation pipeline.
 *
 * Combines IERAT/DERAT, the unified TLB and the SLB into the POWER4
 * translation flow:
 *
 *   ERAT hit             -> no penalty (parallel with L1);
 *   ERAT miss, TLB hit   -> >= 14-cycle TLB read; loads are retried
 *                           from dispatch every 7 cycles meanwhile
 *                           (raising the speculation rate);
 *   ERAT + TLB miss      -> hardware table walk.
 */

#ifndef JASIM_XLAT_TRANSLATION_UNIT_H
#define JASIM_XLAT_TRANSLATION_UNIT_H

#include <memory>

#include "sim/types.h"
#include "xlat/address_space.h"
#include "xlat/erat.h"
#include "xlat/tlb.h"

namespace jasim {

/** Translation structure parameters. */
struct XlatConfig
{
    std::size_t ierat_entries = 128;
    std::size_t ierat_ways = 4;
    std::size_t derat_entries = 128;
    std::size_t derat_ways = 4;
    std::size_t tlb_entries = 1024;
    std::size_t tlb_ways = 4;
    std::size_t slb_entries = 64;

    Cycles lat_tlb_read = 14;   //!< ERAT miss, TLB hit
    Cycles lat_table_walk = 90; //!< TLB miss hardware walk
    Cycles retry_interval = 7;  //!< load redispatch interval on DERAT miss
};

/** Outcome of translating one access. */
struct XlatOutcome
{
    bool erat_hit = true;
    bool tlb_hit = true;  //!< meaningful only when erat_hit is false
    bool slb_hit = true;
    Cycles penalty = 0;
    /** Extra dispatches caused by retrying the access (loads only). */
    std::uint32_t redispatches = 0;
};

/** One core's translation state (shared TLB between I and D sides). */
class TranslationUnit
{
  public:
    TranslationUnit(const XlatConfig &config, const AddressSpace &space);

    /** Translate a data access. */
    XlatOutcome translateData(Addr addr)
    {
        // Inline memoized repeat check (the common case by far); the
        // full walk lives out of line in translation_unit.cc.
        if (derat_mru_.valid &&
            derat_mru_.granule == derat_.granuleOf(addr) &&
            derat_mru_.epoch == derat_.epoch()) {
            ++mru_erat_hits_;
            return XlatOutcome{};
        }
        return translate(derat_, derat_mru_, addr, true);
    }

    /** Translate an instruction fetch. */
    XlatOutcome translateInst(Addr addr)
    {
        if (ierat_mru_.valid &&
            ierat_mru_.granule == ierat_.granuleOf(addr) &&
            ierat_mru_.epoch == ierat_.epoch()) {
            ++mru_erat_hits_;
            return XlatOutcome{};
        }
        return translate(ierat_, ierat_mru_, addr, false);
    }

    /** Drop all cached translations (page-size ablations do this). */
    void flush();

    const XlatConfig &config() const { return config_; }

    /** Memoized repeat ERAT / TLB hits (telemetry). */
    std::uint64_t mruEratHits() const { return mru_erat_hits_; }
    std::uint64_t mruTlbHits() const { return mru_tlb_hits_; }

  private:
    XlatConfig config_;
    const AddressSpace &space_;
    Erat ierat_;
    Erat derat_;
    Tlb tlb_;
    Slb slb_;

    /**
     * Memo of the most recent translation through one structure. It is
     * overwritten on *every* non-memoized access, so a match means the
     * repeats were consecutive -- no other entry in the structure was
     * touched in between -- and the epoch check rules out casualties
     * (installs, flushes). Under those two conditions skipping the LRU
     * walk cannot change any outcome or future victim choice.
     */
    struct EratMru
    {
        Addr granule = 0;
        std::uint64_t epoch = 0;
        bool valid = false;
    };
    struct TlbMru
    {
        PageId page{};
        std::uint64_t epoch = 0;
        bool valid = false;
    };
    EratMru ierat_mru_;
    EratMru derat_mru_;
    TlbMru tlb_mru_;
    std::uint64_t mru_erat_hits_ = 0;
    std::uint64_t mru_tlb_hits_ = 0;

    XlatOutcome translate(Erat &erat, EratMru &mru, Addr addr,
                          bool is_load);
};

} // namespace jasim

#endif // JASIM_XLAT_TRANSLATION_UNIT_H
