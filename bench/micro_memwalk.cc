/**
 * Memory-path microbenchmark: accesses/sec of the full per-access
 * pipeline (translate -> L1 -> L2 -> coherence -> L3 -> memory), with
 * its MRU line and translation memos and presence-filtered snoops.
 *
 * The access stream is SUT-realistic locality, the same shape the
 * paper measures in its L1D/ERAT sections: instruction fetches walk
 * 4-byte-sequential runs through 128 B lines with occasional
 * branch-like jumps, data loads come in short same-line bursts
 * (pointer-chasing through objects) over a multi-megabyte heap with a
 * small shared slice that keeps cross-L2 coherence honest, and stores
 * rewrite recently loaded lines. Four cores interleave in chunks, as
 * in WindowSimulator.
 *
 * Every rep replays the identical pre-generated trace through a fresh
 * hierarchy and folds every outcome into a running checksum. stdout
 * holds only what the replay computes -- the access count, the
 * outcome checksum, a digest of the folded flat counters, the memo
 * hits and the snoop-filter skips -- so scripts/perf_smoke.sh pins it;
 * the bench exits 1 if two reps disagree. The best rep's accesses/sec
 * goes to stderr and to out/BENCH_micro_memwalk.json (see
 * bench_common.h for the schema).
 *
 *   ./micro_memwalk [insts=1200000] [reps=7] [seed=42]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"

#include "mem/hierarchy.h"
#include "stats/digest.h"
#include "xlat/translation_unit.h"

using namespace jasim;

namespace {

constexpr Addr codeBase = 0x1000'0000ull;
constexpr std::uint64_t codeBytes = 2ull << 20;
constexpr Addr heapBase = 0x4000'0000ull;
constexpr std::uint64_t heapBytes = 48ull << 20;
/** Heap slice shared by all cores (drives real snoop traffic). */
constexpr std::uint64_t sharedBytes = 1ull << 20;

struct Op
{
    std::uint8_t core;
    std::uint8_t kind; // 0 = ifetch, 1 = load, 2 = store
    Addr addr;
};

/** Deterministic split-mix style step. */
inline std::uint64_t
nextRand(std::uint64_t &state)
{
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint64_t z = state;
    z ^= z >> 33;
    z *= 0xff51afd7ed558ccdULL;
    z ^= z >> 29;
    return z;
}

/** Per-core slice of the private heap (beyond the shared slice). */
constexpr std::uint64_t hotBytes = 32ull << 10;
constexpr std::uint64_t warmBytes = 2ull << 20;

/** Per-core stream cursors for the trace generator. */
struct CoreCursor
{
    std::uint64_t rng = 1;
    Addr pc = codeBase;
    Addr burst_line = heapBase;
    std::uint32_t burst_left = 0;
    Addr last_line = heapBase;
    std::uint64_t warm_off = 0; //!< sequential walker offset
};

/** Per-instruction op rates (percent), overridable for diagnosis. */
struct TraceMix
{
    std::uint64_t load_pct = 30;
    std::uint64_t store_pct = 8;
};

/**
 * Generate the interleaved four-core trace. Rates per instruction:
 * one ifetch always; `load_pct`% loads (in 3-6 access same-line
 * bursts); `store_pct`% stores to the most recent data line.
 */
std::vector<Op>
makeTrace(std::size_t insts, std::uint64_t seed, std::size_t cores,
          const TraceMix &mix)
{
    std::vector<Op> ops;
    ops.reserve(insts * 3 / 2);
    std::vector<CoreCursor> cur(cores);
    for (std::size_t c = 0; c < cores; ++c)
        cur[c].rng = seed * 0x9e3779b97f4a7c15ULL + c + 1;

    const std::size_t chunk = 64; // instructions per core per turn
    std::size_t emitted = 0;
    std::size_t core = 0;
    while (emitted < insts) {
        CoreCursor &cc = cur[core];
        const std::size_t run = std::min(chunk, insts - emitted);
        for (std::size_t i = 0; i < run; ++i) {
            const std::uint64_t r = nextRand(cc.rng);

            // Instruction fetch: sequential, ~3% branch to a fresh
            // 64 B-aligned block somewhere in the code region.
            if ((r & 0xff) < 8) {
                cc.pc = codeBase +
                        ((r >> 8) % (codeBytes >> 6) << 6);
            }
            ops.push_back({static_cast<std::uint8_t>(core), 0, cc.pc});
            cc.pc += 4;

            // Data load: same-line bursts.
            if (((r >> 16) & 0xff) * 100 < mix.load_pct * 256) {
                if (cc.burst_left == 0) {
                    // Locality mix per the paper's L1D/L2 hit rates:
                    // mostly a small hot working set (stack, hot
                    // objects), a warm sequentially-walked slice
                    // (collections -- feeds the stream prefetcher),
                    // rare cold misses, and a shared slice that keeps
                    // cross-L2 coherence honest.
                    const std::uint64_t priv_bytes =
                        (heapBytes - sharedBytes) / cores;
                    const Addr priv =
                        heapBase + sharedBytes + core * priv_bytes;
                    const std::uint64_t pick = (r >> 24) & 0xff;
                    if (pick < 13) {
                        // ~5% shared slice: cross-core lines.
                        cc.burst_line = heapBase +
                            ((r >> 32) % (sharedBytes >> 7) << 7);
                    } else if (pick < 26) {
                        // ~5% cold: anywhere in this core's slice.
                        cc.burst_line = priv +
                            ((r >> 32) % (priv_bytes >> 7) << 7);
                    } else if (pick < 77) {
                        // ~20% warm: sequential walk over 2 MB.
                        cc.burst_line = priv + cc.warm_off;
                        cc.warm_off = (cc.warm_off + 128) %
                                      warmBytes;
                    } else {
                        // ~70% hot: random line in a 64 KB set.
                        cc.burst_line = priv +
                            ((r >> 32) % (hotBytes >> 7) << 7);
                    }
                    // A 128 B line holds 16-32 object fields; field
                    // accesses to a touched object cluster tightly.
                    cc.burst_left = 6 + ((r >> 40) & 7);
                    cc.last_line = cc.burst_line;
                }
                const Addr a =
                    cc.burst_line + ((r >> 44) & 0x7f & ~0x3ull);
                ops.push_back(
                    {static_cast<std::uint8_t>(core), 1, a});
                --cc.burst_left;
            }

            // Store to the last loaded line.
            if (((r >> 52) & 0xff) * 100 < mix.store_pct * 256) {
                const Addr a = cc.last_line + ((r >> 36) & 0x78);
                ops.push_back(
                    {static_cast<std::uint8_t>(core), 2, a});
            }
            ++emitted;
        }
        core = (core + 1) % cores;
    }
    return ops;
}

struct RunResult
{
    double seconds = 0.0;
    std::uint64_t checksum = 0;
    std::uint64_t counter_digest = 0;
    std::uint64_t mru_hits = 0;
    std::uint64_t snoop_skips = 0;
};

/** Replay the trace through a fresh hierarchy + translation units. */
RunResult
replay(const std::vector<Op> &ops)
{
    const HierarchyConfig hc;
    MemoryHierarchy mem(hc);

    AddressSpace space;
    space.addRegion("code", codeBase, codeBytes, smallPageBytes);
    space.addRegion("heap", heapBase, heapBytes, largePageBytes);
    std::vector<TranslationUnit> xlat;
    xlat.reserve(hc.cores);
    for (std::size_t c = 0; c < hc.cores; ++c)
        xlat.emplace_back(XlatConfig{}, space);

    RunResult result;
    std::uint64_t acc = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const Op &op : ops) {
        XlatOutcome x;
        MemAccessOutcome m;
        switch (op.kind) {
          case 0:
            x = xlat[op.core].translateInst(op.addr);
            m = mem.fetch(op.core, op.addr);
            break;
          case 1:
            x = xlat[op.core].translateData(op.addr);
            m = mem.load(op.core, op.addr);
            break;
          default:
            x = xlat[op.core].translateData(op.addr);
            m = mem.store(op.core, op.addr);
            break;
        }
        // Order-sensitive fold of every outcome field; one
        // multiply-add so the check costs the replay little.
        const std::uint64_t word =
            static_cast<std::uint64_t>(m.l1_hit) |
            (static_cast<std::uint64_t>(m.source) << 1) |
            (static_cast<std::uint64_t>(m.latency) << 8) |
            (static_cast<std::uint64_t>(x.penalty) << 24) |
            (static_cast<std::uint64_t>(x.redispatches) << 40) |
            (static_cast<std::uint64_t>(x.erat_hit) << 61) |
            (static_cast<std::uint64_t>(x.tlb_hit) << 62) |
            (static_cast<std::uint64_t>(x.slb_hit) << 63);
        acc = acc * 0x9e3779b97f4a7c15ULL + word;
    }
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    result.checksum = acc;

    CounterSet folded;
    mem.hotCounters().foldInto(folded);
    Digest digest;
    digest.mix(folded.snapshot());
    result.counter_digest = digest.value();
    result.mru_hits = mem.hotCounters().mruDataHits() +
                      mem.hotCounters().mruInstHits();
    for (const TranslationUnit &tu : xlat)
        result.mru_hits += tu.mruEratHits() + tu.mruTlbHits();
    result.snoop_skips = mem.snoopFilterSkips();
    return result;
}

std::string
hex16(std::uint64_t value)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << value;
    return os.str();
}

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    const std::size_t insts =
        static_cast<std::size_t>(args.getInt("insts", 1200000, 1));
    const int reps = static_cast<int>(
        args.getInt("reps", 7, 1, std::numeric_limits<int>::max()));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.getInt("seed", 42));
    TraceMix mix;
    mix.load_pct =
        static_cast<std::uint64_t>(args.getInt("load_pct", 30, 0, 100));
    mix.store_pct =
        static_cast<std::uint64_t>(args.getInt("store_pct", 8, 0, 100));
    args.rejectUnread();
    bench::banner(std::cout, "Micro: memory-path walk throughput",
                  "Translation and the cache walk with MRU line and "
                  "translation memos and presence-filtered snoops, on "
                  "an SUT-shaped four-core access stream.");
    bench::PerfReport perf("micro_memwalk");

    const std::vector<Op> ops = makeTrace(insts, seed, 4, mix);

    // Keep the best rep's time; every rep must compute the same bits.
    RunResult first;
    double best_aps = 0.0;
    const double n = static_cast<double>(ops.size());
    for (int r = 0; r < reps; ++r) {
        const RunResult result = replay(ops);
        if (r == 0) {
            first = result;
        } else if (result.checksum != first.checksum ||
                   result.counter_digest != first.counter_digest) {
            std::cerr << "FAIL: rep " << r << " diverged (checksum "
                      << hex16(result.checksum) << " vs "
                      << hex16(first.checksum) << ", counters "
                      << hex16(result.counter_digest) << " vs "
                      << hex16(first.counter_digest) << ")\n";
            return 1;
        }
        if (result.seconds > 0.0)
            best_aps = std::max(best_aps, n / result.seconds);
    }
    perf.addEvents(static_cast<std::uint64_t>(reps) * ops.size());

    std::cout << "accesses: " << ops.size() << "\n"
              << "outcome checksum: " << hex16(first.checksum) << "\n"
              << "counter digest: " << hex16(first.counter_digest)
              << "\n"
              << "memo hits: " << first.mru_hits << "\n"
              << "snoop-filter skips: " << first.snoop_skips << "\n";
    std::cerr << "[perf] micro_memwalk: "
              << TextTable::num(best_aps, 0)
              << " accesses/s (best of " << reps << " reps)\n";

    perf.note("accesses_per_sec", best_aps);
    perf.note("mru_hits", static_cast<double>(first.mru_hits));
    perf.note("snoop_filter_skips",
              static_cast<double>(first.snoop_skips));
    perf.write(1);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
