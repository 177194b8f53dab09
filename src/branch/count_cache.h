/**
 * @file
 * Indirect-branch target predictor (POWER "count cache").
 *
 * Java virtual calls compile to branch-to-counter-register; POWER
 * predicts their targets with a dedicated count cache. A polymorphic
 * call site whose receiver type varies defeats a last-target predictor
 * -- the mechanism behind the paper's ~5% indirect target
 * misprediction rate and its correlation with I-cache misses.
 */

#ifndef JASIM_BRANCH_COUNT_CACHE_H
#define JASIM_BRANCH_COUNT_CACHE_H

#include <cstdint>

#include "sim/lru_table.h"
#include "sim/types.h"

namespace jasim {

/**
 * Tagged last-target table with hysteresis.
 *
 * An entry stores the last observed target plus a confidence bit; the
 * target is replaced only after two consecutive disagreements, like
 * the classic BTB-with-hysteresis design.
 */
class CountCache
{
  public:
    CountCache(std::size_t entries, std::size_t ways)
        : table_(entries, ways)
    {
    }

    /** Predicted target for the indirect branch at pc (0 if none). */
    Addr
    predict(Addr pc) const
    {
        const Target *entry = table_.find(pc >> 2, pc);
        return entry ? entry->target : 0;
    }

    /**
     * Resolve an indirect branch: updates the table.
     * @return true when the prediction matched the actual target.
     */
    bool
    resolve(Addr pc, Addr actual_target)
    {
        auto [entry, hit] = table_.access(pc >> 2, pc);
        if (!hit) {
            // Cold entry: the prediction was necessarily wrong.
            entry.target = actual_target;
            return false;
        }
        const bool correct = entry.target == actual_target;
        if (correct) {
            entry.confident = true;
        } else if (entry.confident) {
            entry.confident = false; // first disagreement: keep target
        } else {
            entry.target = actual_target; // second: replace
        }
        return correct;
    }

    void flush() { table_.flush(); }

  private:
    struct Target
    {
        Addr target = 0;
        bool confident = false;
    };

    LruTable<Addr, Target> table_; //!< indexed by pc >> 2
};

} // namespace jasim

#endif // JASIM_BRANCH_COUNT_CACHE_H
