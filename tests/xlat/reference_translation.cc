#include "reference_translation.h"

namespace jasim::ref {

TranslationUnit::TranslationUnit(const XlatConfig &config,
                                 const AddressSpace &space)
    : config_(config), space_(space),
      ierat_(config.ierat_entries, config.ierat_ways),
      derat_(config.derat_entries, config.derat_ways),
      tlb_(config.tlb_entries, config.tlb_ways), slb_(config.slb_entries)
{
}

XlatOutcome
TranslationUnit::translate(Erat &erat, Addr addr, bool is_load)
{
    XlatOutcome outcome;
    if (erat.access(addr))
        return outcome;
    outcome.erat_hit = false;
    outcome.slb_hit = slb_.access(addr);
    outcome.tlb_hit = tlb_.access(space_.pageOf(addr));
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

} // namespace jasim::ref
