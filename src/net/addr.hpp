/**
 * @file
 * Network addressing primitives: MAC and IPv4 addresses.
 *
 * The Configurable Cloud routes LTL frames with ordinary IPv4/UDP headers
 * over the datacenter Ethernet fabric, so the simulator models real
 * addresses rather than abstract node ids.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace ccsim::net {

/** A 48-bit Ethernet MAC address stored in the low bits of a uint64. */
struct MacAddr {
    std::uint64_t value = 0;

    constexpr bool operator==(const MacAddr &) const = default;
    constexpr bool operator<(const MacAddr &o) const { return value < o.value; }
};

/** An IPv4 address in host byte order. */
struct Ipv4Addr {
    std::uint32_t value = 0;

    constexpr bool operator==(const Ipv4Addr &) const = default;
    constexpr bool operator<(const Ipv4Addr &o) const { return value < o.value; }

    /** Render as dotted quad. */
    std::string str() const;

    /** Build from four octets. */
    static constexpr Ipv4Addr
    of(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
    {
        return {static_cast<std::uint32_t>(a) << 24 |
                static_cast<std::uint32_t>(b) << 16 |
                static_cast<std::uint32_t>(c) << 8 | d};
    }
};

}  // namespace ccsim::net

template <>
struct std::hash<ccsim::net::MacAddr> {
    std::size_t operator()(const ccsim::net::MacAddr &a) const noexcept
    {
        return std::hash<std::uint64_t>{}(a.value);
    }
};

template <>
struct std::hash<ccsim::net::Ipv4Addr> {
    std::size_t operator()(const ccsim::net::Ipv4Addr &a) const noexcept
    {
        return std::hash<std::uint32_t>{}(a.value);
    }
};
