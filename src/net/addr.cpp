#include "net/addr.hpp"

#include <cstdio>

namespace ccsim::net {

std::string
Ipv4Addr::str() const
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value >> 24) & 0xFF,
                  (value >> 16) & 0xFF, (value >> 8) & 0xFF, value & 0xFF);
    return buf;
}

}  // namespace ccsim::net
