#include "sim/rng.h"

namespace jasim {

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitMix64(sm);
}

Rng
Rng::fork(std::uint64_t stream_id)
{
    // Mix the stream id into fresh state drawn from this generator so
    // children are decorrelated from the parent and from each other.
    std::uint64_t sm = (*this)() ^ (stream_id * 0xd1342543de82ef95ull);
    return Rng(splitMix64(sm));
}

std::int64_t
Rng::range(std::int64_t lo, std::int64_t hi)
{
    return lo + static_cast<std::int64_t>(
        below(static_cast<std::uint64_t>(hi - lo + 1)));
}

} // namespace jasim
