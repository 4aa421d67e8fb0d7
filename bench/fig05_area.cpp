/**
 * @file
 * Reproduces Figure 5: area and frequency breakdown of the
 * production-deployed shell image with remote acceleration support.
 *
 * The area model is the same one the Shell uses for admission control of
 * roles, so this bench also validates that the composed production image
 * reproduces the paper's totals (131,350 / 172,600 ALMs, 76%; shell 44%).
 */
#include <cstdio>

#include "bench_json.hpp"
#include "fpga/area_model.hpp"

using namespace ccsim;

int
main(int argc, char **argv)
{
    bench::Flags(argc, argv, {});
    std::printf("=== Figure 5: area and frequency of the production "
                "shell image ===\n\n");
    const fpga::AreaModel m = fpga::AreaModel::productionImage();

    std::printf("  %-34s %10s %7s %8s\n", "component", "ALMs", "%", "MHz");
    for (const auto &c : m.components()) {
        char freq[16];
        if (c.freqMhz > 0)
            std::snprintf(freq, sizeof(freq), "%.0f", c.freqMhz);
        else
            std::snprintf(freq, sizeof(freq), "-");
        std::printf("  %-34s %10u %6.0f%% %8s\n", c.name.c_str(), c.alms,
                    m.percentOf(c.alms), freq);
    }
    std::printf("  %-34s %10u %6.0f%%\n", "Total Area Used", m.totalUsed(),
                m.utilizationPercent());
    std::printf("  %-34s %10u\n\n", "Total Area Available",
                m.totalAvailable());

    std::printf("  shell fraction: %.1f%% (paper: 44%%)\n",
                100.0 * m.shellUsed() / m.totalAvailable());
    std::printf("  role fraction:  %.1f%% (paper: 32%%)\n",
                100.0 * m.roleUsed() / m.totalAvailable());
    std::printf("  paper totals:   131,350 / 172,600 ALMs (76%%)\n");
    return 0;
}
