/**
 * @file
 * Order-sensitive FNV-1a digest over simulation outcomes.
 *
 * The equivalence machinery (bench/micro_memwalk, the golden-digest
 * tests) folds every per-access outcome and every final counter value
 * into one 64-bit digest per run; equal digests mean the runs were
 * outcome-identical without storing either trace.
 */

#ifndef JASIM_STATS_DIGEST_H
#define JASIM_STATS_DIGEST_H

#include <cstdint>
#include <map>
#include <string>

namespace jasim {

/** Streaming 64-bit FNV-1a accumulator. */
class Digest
{
  public:
    /** Fold one 64-bit word, byte by byte. */
    void mix(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xffull;
            hash_ *= prime;
        }
    }

    /** Fold a string (length-delimited, so "ab","c" != "a","bc"). */
    void mix(const std::string &text)
    {
        mix(static_cast<std::uint64_t>(text.size()));
        for (const char c : text) {
            hash_ ^= static_cast<unsigned char>(c);
            hash_ *= prime;
        }
    }

    /** Fold a name -> value snapshot (e.g. CounterSet::snapshot()). */
    void mix(const std::map<std::string, std::uint64_t> &snapshot)
    {
        for (const auto &[name, value] : snapshot) {
            mix(name);
            mix(value);
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    static constexpr std::uint64_t prime = 0x100000001b3ull;
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace jasim

#endif // JASIM_STATS_DIGEST_H
