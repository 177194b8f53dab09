#include "mem/coherence.h"

#include <cassert>

namespace jasim {

MesiBus::MesiBus(std::vector<SetAssocCache *> l2_caches)
    : l2s_(std::move(l2_caches))
{
    for (const auto *l2 : l2s_) {
        (void)l2;
        assert(l2 != nullptr);
    }
}

SnoopResult
MesiBus::snoopRead(std::size_t requester, Addr addr)
{
    SnoopResult result;
    for (std::size_t i = 0; i < l2s_.size(); ++i) {
        if (i == requester)
            continue;
        if (!l2s_[i]->mayContain(addr)) {
            ++filter_skips_;
            continue;
        }
        const MesiState s = l2s_[i]->state(addr);
        if (s == MesiState::Invalid)
            continue;
        if (!result.found || s == MesiState::Modified) {
            result.found = true;
            result.supplier = i;
            result.supplier_state = s;
        }
        // Remote copies are downgraded to Shared; a Modified copy
        // implicitly writes back at the coherence point.
        if (s == MesiState::Modified || s == MesiState::Exclusive)
            l2s_[i]->setState(addr, MesiState::Shared);
    }
    return result;
}

SnoopResult
MesiBus::snoopReadForOwnership(std::size_t requester, Addr addr)
{
    SnoopResult result;
    for (std::size_t i = 0; i < l2s_.size(); ++i) {
        if (i == requester)
            continue;
        if (!l2s_[i]->mayContain(addr)) {
            ++filter_skips_;
            continue;
        }
        const MesiState s = l2s_[i]->state(addr);
        if (s == MesiState::Invalid)
            continue;
        if (!result.found || s == MesiState::Modified) {
            result.found = true;
            result.supplier = i;
            result.supplier_state = s;
        }
        l2s_[i]->invalidate(addr);
    }
    return result;
}

} // namespace jasim
