#include "net/packet.hpp"

#include <atomic>

#include "sim/pool.hpp"

namespace ccsim::net {

namespace {

std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ull;
    x ^= x >> 33;
    return x;
}

std::atomic<std::uint64_t> nextPacketId{1};

}  // namespace

std::uint64_t
Packet::flowHash() const
{
    std::uint64_t h = static_cast<std::uint64_t>(ipSrc.value) << 32 |
                      ipDst.value;
    h = mix64(h);
    h ^= static_cast<std::uint64_t>(srcPort) << 32 |
         static_cast<std::uint64_t>(dstPort) << 16 |
         static_cast<std::uint64_t>(ipProto) << 8 | priority;
    return mix64(h);
}

PacketPtr
makePacket()
{
    // The pool recycles the combined control-block and Packet allocation
    // through a thread-local freelist: the steady state of a busy
    // simulation does zero allocator traffic per packet.
    auto pkt = sim::makePooled<Packet>();
    pkt->id = nextPacketId.fetch_add(1, std::memory_order_relaxed);
    return pkt;
}

PacketPtr
makePfcPause(std::uint8_t priority, sim::TimePs pause_time)
{
    auto pkt = makePacket();
    pkt->etherType = EtherType::kMacControl;
    auto pfc = std::allocate_shared<PfcFrame>(sim::PoolAllocator<PfcFrame>{});
    pfc->priorityMask = static_cast<std::uint8_t>(1u << priority);
    pfc->pauseTime[priority] = pause_time;
    pkt->meta = pfc;
    return pkt;
}

PacketPoolStats
packetPoolStats()
{
    const sim::PoolStats s = sim::poolStats();
    return PacketPoolStats{s.freshAllocs, s.reusedAllocs, s.freeBlocks};
}

}  // namespace ccsim::net
