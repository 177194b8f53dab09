/** Reproduces Section 4.1's high-level table: utilization vs IR and
 *  the RAM-disk / spinning-disk contrast. */

#include "bench_common.h"

using namespace jasim;

namespace {

ExperimentResult
runAt(ExperimentConfig config, double ir, DiskConfig::Kind kind,
      std::size_t spindles)
{
    config.sut.injection_rate = ir;
    config.sut.disk.kind = kind;
    config.sut.disk.spindles = spindles;
    Experiment experiment(config);
    return experiment.run();
}

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    bench::refuse(args, "tab_highlevel", "case", {"ir", "disk", "spindles"});
    const ExperimentConfig base =
        bench::configFromArgs(args, 240.0, bench::kNoWindows);
    args.rejectUnread();
    bench::banner(std::cout, "Table: High-Level Characteristics (4.1)",
                  "Paper: IR47 -> ~100% CPU (80% user / 20% system) "
                  "with a RAM disk; ~1.6 JOPS/IR; two spinning disks "
                  "cannot keep I/O wait down and the run fails its "
                  "response-time SLA.");

    TextTable table({"config", "IR", "util", "user", "sys", "iowait",
                     "JOPS/IR", "SLA"});
    struct Case
    {
        const char *name;
        double ir;
        DiskConfig::Kind kind;
        std::size_t spindles;
    };
    const Case cases[] = {
        {"ramdisk", 20, DiskConfig::Kind::RamDisk, 1},
        {"ramdisk", 40, DiskConfig::Kind::RamDisk, 1},
        {"ramdisk", 47, DiskConfig::Kind::RamDisk, 1},
        {"2 disks", 40, DiskConfig::Kind::Spinning, 2},
        {"8 disks", 40, DiskConfig::Kind::Spinning, 8},
    };
    for (const Case &c : cases) {
        const ExperimentResult r =
            runAt(base, c.ir, c.kind, c.spindles);
        table.addRow({c.name, TextTable::num(c.ir, 0),
                      TextTable::pct(r.cpu_utilization * 100.0),
                      TextTable::pct(r.vm_mean.user_pct),
                      TextTable::pct(r.vm_mean.system_pct),
                      TextTable::pct(r.vm_mean.iowait_pct),
                      TextTable::num(r.jops_per_ir, 2),
                      r.sla_pass ? "PASS" : "FAIL"});
    }
    table.print(std::cout);
    std::cout << "\nPaper shape: RAM disk keeps iowait ~0 and scales "
                 "to ~100% CPU by IR47; two disks blow up response "
                 "times; many disks approximate the RAM disk.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::guardedMain(argc, argv, run);
}
