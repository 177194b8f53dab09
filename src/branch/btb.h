/**
 * @file
 * Branch target buffer for taken-branch targets.
 *
 * Direct branches fetch their target from the BTB; capacity misses in
 * a large instruction working set make even direct branches pay fetch
 * bubbles, which couples target mispredictions to the instruction
 * footprint (a correlation the paper highlights).
 */

#ifndef JASIM_BRANCH_BTB_H
#define JASIM_BRANCH_BTB_H

#include <cstdint>
#include <vector>

#include "sim/lru_table.h"
#include "sim/types.h"

namespace jasim {

/** Set-associative PC -> target map with LRU replacement. */
class Btb
{
  public:
    Btb(std::size_t entries, std::size_t ways) : table_(entries, ways) {}

    /**
     * Look up the predicted target for a branch at pc.
     * @return the stored target, or 0 when there is no entry.
     */
    Addr
    predict(Addr pc) const
    {
        const Addr *target = table_.find(pc >> 2, pc);
        return target ? *target : 0;
    }

    /** Install / refresh the target for pc. */
    void
    update(Addr pc, Addr target)
    {
        table_.access(pc >> 2, pc).value = target;
    }

    void flush() { table_.flush(); }

  private:
    LruTable<Addr, Addr> table_; //!< pc -> target, indexed by pc >> 2
};

/** Return-address stack; call pushes, return pops. */
class ReturnStack
{
  public:
    explicit ReturnStack(std::size_t depth = 16);

    void push(Addr return_addr);

    /** Pop a prediction; 0 when empty. */
    Addr pop();

    std::size_t size() const { return top_; }

  private:
    std::vector<Addr> stack_;
    std::size_t top_ = 0; //!< next free slot; saturates at capacity
};

} // namespace jasim

#endif // JASIM_BRANCH_BTB_H
