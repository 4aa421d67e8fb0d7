/**
 * @file
 * A no-op FPGA role for tests and benches: it gives LTL deliveries a
 * destination ER port and drops every message it receives.
 */
#pragma once

#include <cstdint>
#include <string>

#include "fpga/role.hpp"

namespace ccsim::fpga {

struct NullRole : Role {
    /** The ER port the shell attached this role to (-1 until added). */
    int port = -1;
    std::string name() const override { return "null"; }
    std::uint32_t areaAlms() const override { return 100; }
    void attach(Shell &, int p) override { port = p; }
    void onMessage(const router::ErMessagePtr &) override {}
};

}  // namespace ccsim::fpga
