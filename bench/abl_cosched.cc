/** Ablation A4 (Section 4.2.3): why thread co-scheduling wouldn't pay.
 *
 *  Compares the jas2004-like sharing mix against a TPC-C-like mix in
 *  which threads write-share hot data heavily; only the latter shows
 *  the modified cache-to-cache traffic co-scheduling could save.
 */

#include "bench_common.h"

#include "cpu/core_model.h"
#include "synth/component_profiles.h"

using namespace jasim;

namespace {

struct SharingResult
{
    double modified_share = 0.0;
    double shared_share = 0.0;
    double remote_latency_cycles = 0.0;
};

/** Run 4 cores over a data region; `shared_writes` makes it TPC-C-ish. */
SharingResult
runMix(bool shared_writes)
{
    WorkloadProfiles profiles(11);
    const AddressSpace space = profiles.makeAddressSpace(true, false);
    HierarchyConfig hc;
    MemoryHierarchy mem(hc);
    std::vector<std::unique_ptr<CoreModel>> cores;
    std::vector<std::unique_ptr<StreamGenerator>> gens;
    for (std::size_t c = 0; c < 4; ++c) {
        cores.push_back(std::make_unique<CoreModel>(c, CoreConfig{},
                                                    mem, space, c + 1));
        gens.push_back(
            profiles.makeGenerator(Component::WasJit, c, c + 100));
    }

    ExecStats stats;
    Rng rng(3);
    const Addr shared_base = memmap::sharedHeap;
    for (int round = 0; round < 400; ++round) {
        for (std::size_t c = 0; c < 4; ++c) {
            for (int i = 0; i < 200; ++i) {
                Instr inst = gens[c]->next();
                if (shared_writes && isStoreKind(inst.kind) &&
                    rng.chance(0.5)) {
                    // TPC-C-like: stores hit a small shared hot set.
                    inst.ea = shared_base + rng.below(256 * 1024);
                }
                cores[c]->execute(inst, stats);
            }
        }
    }

    SharingResult result;
    double misses = 0.0;
    for (std::size_t i = 1; i < 8; ++i)
        misses += static_cast<double>(stats.loads_from[i]);
    if (misses > 0.0) {
        result.modified_share =
            stats.loads_from[static_cast<std::size_t>(
                DataSource::L2_75Modified)] /
            misses;
        result.shared_share =
            stats.loads_from[static_cast<std::size_t>(
                DataSource::L2_75Shared)] /
            misses;
    }
    return result;
}

int
run(int argc, char **argv)
{
    Config::fromArgs(argc, argv).rejectUnread(); // takes no arguments
    bench::banner(std::cout,
                  "Ablation: Thread Co-Scheduling Potential (4.2.3)",
                  "Paper: jas2004 shows almost no modified "
                  "cache-to-cache traffic, unlike TPC-C-class "
                  "workloads, so intelligent co-scheduling has little "
                  "to save.");
    const SharingResult jas = runMix(false);
    const SharingResult tpcc = runMix(true);

    TextTable table({"workload mix", "L2.75 modified", "L2.75 shared"});
    table.addRow({"jas2004-like (private heaps)",
                  TextTable::pct(jas.modified_share * 100.0, 2),
                  TextTable::pct(jas.shared_share * 100.0, 2)});
    table.addRow({"TPC-C-like (write sharing)",
                  TextTable::pct(tpcc.modified_share * 100.0, 2),
                  TextTable::pct(tpcc.shared_share * 100.0, 2)});
    table.print(std::cout);

    std::cout << "\nShape: the write-sharing mix shows many times the "
                 "modified transfers ("
              << TextTable::num(jas.modified_share > 0
                                    ? tpcc.modified_share /
                                          jas.modified_share
                                    : 0.0,
                                1)
              << "x) -- co-scheduling only helps that kind of "
                 "workload.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
