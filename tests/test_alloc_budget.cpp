/**
 * @file
 * Heap budget of idle fabric: an idle cable must cost little more than
 * its two Channel objects and its names, because an empty queue owns no
 * heap (sim::Fifo allocates on its first push).
 *
 * This binary replaces the global `operator new` with a byte counter and
 * measures the heap a construction takes. It is an executable of its own
 * so that the replacement never runs under the other suites.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

#include "net/channel.hpp"
#include "net/topology.hpp"
#include "sim/event_queue.hpp"

namespace {

std::size_t heapBytes = 0;

}  // namespace

void *
operator new(std::size_t size)
{
    heapBytes += size;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace ccsim;

/** Budget for one idle cable: the Link, its two Channels and names. */
constexpr std::size_t kIdleLinkBudget = 2048;
/**
 * Budget per trunk for a whole lazy fabric: its idle trunks plus the
 * switches, routes and host stubs they connect, amortized.
 */
constexpr std::size_t kLazyFabricPerTrunkBudget = 4096;

template <typename Build>
std::size_t
heapOf(Build &&build)
{
    const std::size_t before = heapBytes;
    build();
    return heapBytes - before;
}

TEST(AllocBudget, IdleTrunkLinkStaysUnderBudget)
{
    sim::EventQueue eq;
    std::unique_ptr<net::Link> link;
    const std::size_t bytes = heapOf([&] {
        link = std::make_unique<net::Link>(eq, "l1.123.1-l2.3", 40.0,
                                           300.0);
    });
    EXPECT_LE(bytes, kIdleLinkBudget) << "heap bytes for one idle link";
}

TEST(AllocBudget, LazyTopologyTrunksStayUnderBudget)
{
    sim::EventQueue eq;
    net::TopologyConfig cfg;
    cfg.hostsPerRack = 24;
    cfg.racksPerPod = 4;
    cfg.l1PerPod = 2;
    cfg.pods = 2;
    cfg.l2Count = 2;
    cfg.lazyHosts = true;
    std::unique_ptr<net::Topology> topo;
    const std::size_t bytes = heapOf([&] {
        topo = std::make_unique<net::Topology>(eq, cfg);
    });
    ASSERT_GT(topo->numTrunkLinks(), 0);
    ASSERT_EQ(topo->materializedHosts(), 0);
    EXPECT_LE(bytes / topo->numTrunkLinks(), kLazyFabricPerTrunkBudget)
        << bytes << " heap bytes for " << topo->numTrunkLinks()
        << " trunks";
}

}  // namespace
