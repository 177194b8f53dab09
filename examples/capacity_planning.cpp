/**
 * Capacity planning: sweep the injection rate to find where the SUT
 * saturates and where it stops meeting its response-time SLA -- the
 * sizing exercise the paper says its profile data supports.
 *
 *   ./capacity_planning [irs=10,20,30,40,47,55] [steady=120]
 */

#include <exception>
#include <iostream>

#include "core/experiment.h"
#include "sim/config.h"
#include "stats/render.h"

using namespace jasim;

namespace {

int
run(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    std::vector<double> irs;
    for (const std::string &item :
         splitList(args.getString("irs", "10,20,30,40,47,55"), ','))
        irs.push_back(parseDouble("irs=" + item, item, kAboveZero));
    const double steady_s = args.getDouble("steady", 120.0, 0.0, 1e9);
    args.rejectUnread();

    std::cout << "Injection-rate sweep (RAM-disk SUT)\n\n";
    TextTable table({"IR", "JOPS", "util", "p90 web (s)", "p90 RMI (s)",
                     "SLA"});
    double max_passing_ir = 0.0;
    for (const double ir : irs) {
        ExperimentConfig config;
        config.sut.injection_rate = ir;
        config.micro_enabled = false;
        config.ramp_up_s = 60.0;
        config.steady_s = steady_s;
        Experiment experiment(config);
        const ExperimentResult r = experiment.run();
        const double web_p90 = std::max(
            {r.verdicts[0].p90_seconds, r.verdicts[1].p90_seconds,
             r.verdicts[2].p90_seconds});
        const double rmi_p90 = r.verdicts[3].p90_seconds;
        if (r.sla_pass)
            max_passing_ir = std::max(max_passing_ir, ir);
        table.addRow({TextTable::num(ir, 0), TextTable::num(r.jops, 1),
                      TextTable::pct(r.cpu_utilization * 100.0),
                      TextTable::num(web_p90, 2),
                      TextTable::num(rmi_p90, 2),
                      r.sla_pass ? "PASS" : "FAIL"});
    }
    table.print(std::cout);
    std::cout << "\nHighest passing IR in this sweep: "
              << TextTable::num(max_passing_ir, 0)
              << "  (the paper ran its HPM study at IR40, ~90% load, "
                 "and saturated near IR47)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // A run that cannot go on (a heap too small for its live set, say)
    // ends with its message and exit code 2, not in std::terminate.
    try {
        return run(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 2;
    }
}
