#include "branch/btb.h"

#include <cassert>

namespace jasim {

ReturnStack::ReturnStack(std::size_t depth) : stack_(depth)
{
    assert(depth > 0);
}

void
ReturnStack::push(Addr return_addr)
{
    if (top_ < stack_.size()) {
        stack_[top_++] = return_addr;
    } else {
        // Overflow: shift (rare; depth chosen to cover call depth).
        for (std::size_t i = 1; i < stack_.size(); ++i)
            stack_[i - 1] = stack_[i];
        stack_.back() = return_addr;
    }
}

Addr
ReturnStack::pop()
{
    if (top_ == 0)
        return 0;
    return stack_[--top_];
}

} // namespace jasim
