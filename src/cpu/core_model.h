/**
 * @file
 * The per-core execution model.
 *
 * Consumes dynamic instructions from the synthetic stream generators
 * and charges them against the simulated structures: L1s and the
 * shared hierarchy, IERAT/DERAT/TLB, the branch unit, the SRQ/sync
 * model and the lock model. Produces the full set of HPM-style
 * counters plus a cycle count, from which CPI and the speculation
 * (dispatched/completed) rate fall out.
 */

#ifndef JASIM_CPU_CORE_MODEL_H
#define JASIM_CPU_CORE_MODEL_H

#include <array>
#include <cstdint>

#include "branch/branch_unit.h"
#include "cpu/instr.h"
#include "cpu/lock_model.h"
#include "cpu/penalty_model.h"
#include "cpu/sync_model.h"
#include "mem/hierarchy.h"
#include "stats/counter.h"
#include "xlat/translation_unit.h"

namespace jasim {

/** Aggregated execution statistics (one window or one component). */
struct ExecStats
{
    double cycles = 0.0;
    double dispatched = 0.0;
    std::uint64_t completed = 0;
    double completion_cycles = 0.0;

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1d_load_miss = 0;
    std::uint64_t l1d_store_miss = 0;
    /** Load-miss fills by DataSource (index = enum value). */
    std::array<std::uint64_t, 8> loads_from{};

    std::uint64_t l1i_miss = 0;
    std::array<std::uint64_t, 8> ifetch_from{};

    std::uint64_t ierat_miss = 0;
    std::uint64_t derat_miss = 0;
    std::uint64_t itlb_miss = 0;
    std::uint64_t dtlb_miss = 0;

    std::uint64_t branches = 0;
    std::uint64_t cond_branches = 0;
    std::uint64_t cond_mispredict = 0;
    std::uint64_t indirect_branches = 0;
    std::uint64_t returns = 0;
    std::uint64_t return_mispredict = 0;
    std::uint64_t target_mispredict = 0;
    std::uint64_t btb_miss = 0;

    std::uint64_t larx = 0;
    std::uint64_t stcx = 0;
    std::uint64_t stcx_fail = 0;
    std::uint64_t syncs = 0;
    double srq_sync_cycles = 0.0;
    std::uint64_t kernel_sleeps = 0;

    std::uint64_t l1d_prefetch = 0;
    std::uint64_t l2_prefetch = 0;
    std::uint64_t stream_alloc = 0;

    /** CPI over this accumulation; 0 when nothing completed. */
    double cpi() const
    {
        return completed == 0 ? 0.0
                              : cycles / static_cast<double>(completed);
    }

    /** Dispatched per completed instruction (speculation rate). */
    double speculationRate() const
    {
        return completed == 0
            ? 0.0
            : dispatched / static_cast<double>(completed);
    }

    /** Accumulate another stats block into this one. */
    void merge(const ExecStats &other);

    /**
     * Export every counter into a CounterSet under canonical HPM
     * names, scaling integer counts by `scale` (used to blow a sampled
     * stream up to the nominal per-window instruction volume).
     */
    void exportTo(CounterSet &set, double scale = 1.0) const;
};

/** Core execution parameters beyond the sub-model configs. */
struct CoreConfig
{
    PenaltyConfig penalty;
    SyncConfig sync;
    LockConfig lock;
    BranchConfig branch;
    XlatConfig xlat;

    /** Dispatch slots consumed per completed instruction with no
     *  speculation (group formation, cracking, reissues). */
    double base_dispatch_factor = 2.0;
    /** Wrong-path instructions dispatched per mispredicted branch. */
    double wrongpath_dispatch = 24.0;
    /** Wrong-path I-fetches performed after a target mispredict. */
    std::uint32_t pollution_fetches = 2;
    /** Window (instructions) within which L1D misses form a burst. */
    std::uint32_t burst_window = 8;
    /** Average instructions completing per completion cycle. */
    double completion_group = 1.7;
};

/**
 * One simulated core.
 *
 * The MemoryHierarchy and AddressSpace are shared across cores and
 * owned by the caller; translation, branch and lock state are private
 * per core, as in hardware.
 */
class CoreModel
{
  public:
    CoreModel(std::size_t core_id, const CoreConfig &config,
              MemoryHierarchy &hierarchy, const AddressSpace &space,
              std::uint64_t seed);

    /** Execute one dynamic instruction, accumulating into stats. */
    void execute(const Instr &inst, ExecStats &stats);

    std::size_t coreId() const { return core_id_; }
    const CoreConfig &config() const { return config_; }

  private:
    std::size_t core_id_;
    CoreConfig config_;
    MemoryHierarchy &mem_;
    PenaltyModel penalty_;
    TranslationUnit xlat_;
    BranchUnit branch_;
    SyncModel sync_;
    LockModel lock_;
    Rng rng_;

    /** Instructions since the last L1D load miss (burst detection). */
    std::uint64_t insts_since_miss_ = ~0ull;

    void chargeWrongPath(ExecStats &stats, bool pollute, Addr near_pc);
};

} // namespace jasim

#endif // JASIM_CPU_CORE_MODEL_H
