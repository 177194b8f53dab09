#include "xlat/translation_unit.h"

namespace jasim {

TranslationUnit::TranslationUnit(const XlatConfig &config,
                                 const AddressSpace &space)
    : config_(config), space_(space),
      ierat_(config.ierat_entries, config.ierat_ways),
      derat_(config.derat_entries, config.derat_ways),
      tlb_(config.tlb_entries, config.tlb_ways), slb_(config.slb_entries)
{
}

XlatOutcome
TranslationUnit::translate(Erat &erat, EratMru &mru, Addr addr,
                           bool is_load)
{
    // The header already short-circuited a memoized repeat: a repeat
    // of the immediately preceding granule with no casualty since is
    // still the same ERAT hit, and the skipped stamp refresh is
    // redundant (the granule already carries its set's newest stamp --
    // nothing else was accessed in between).
    XlatOutcome outcome;
    const Addr granule = erat.granuleOf(addr);
    const bool erat_hit = erat.access(addr);
    // Hit or freshly installed, the granule is now resident with the
    // newest stamp; memoize against the post-access epoch.
    mru = EratMru{granule, erat.epoch(), true};
    if (erat_hit)
        return outcome;

    outcome.erat_hit = false;
    outcome.slb_hit = slb_.access(addr);
    const PageId page = space_.pageOf(addr);
    if (tlb_mru_.valid &&
        tlb_mru_.page.base == page.base &&
        tlb_mru_.page.bytes == page.bytes &&
        tlb_mru_.epoch == tlb_.epoch()) {
        outcome.tlb_hit = true;
        ++mru_tlb_hits_;
    } else {
        outcome.tlb_hit = tlb_.access(page);
        tlb_mru_ = TlbMru{page, tlb_.epoch(), true};
    }
    outcome.penalty =
        outcome.tlb_hit ? config_.lat_tlb_read : config_.lat_table_walk;
    if (!outcome.slb_hit)
        outcome.penalty += config_.lat_table_walk;
    if (is_load && config_.retry_interval > 0) {
        outcome.redispatches = static_cast<std::uint32_t>(
            outcome.penalty / config_.retry_interval);
    }
    return outcome;
}

void
TranslationUnit::flush()
{
    ierat_.flush();
    derat_.flush();
    tlb_.flush();
    slb_.flush();
}

} // namespace jasim
