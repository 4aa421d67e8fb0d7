#include "fault/failure_domain.hpp"

#include "sim/logging.hpp"

namespace ccsim::fault {

FailureDomainMap::FailureDomainMap(int hosts_per_rack, int racks_per_pod,
                                   int pods)
    : perRack(hosts_per_rack), perPod(racks_per_pod), podCount(pods)
{
    if (hosts_per_rack < 1 || racks_per_pod < 1 || pods < 1)
        sim::fatalf("FailureDomainMap: every dimension must be >= 1 "
                    "(hostsPerRack=", hosts_per_rack, ", racksPerPod=",
                    racks_per_pod, ", pods=", pods, ")");
    rackCount = perPod * podCount;
    hostCount = perRack * rackCount;
}

void
FailureDomainMap::checkHost(int host) const
{
    if (host < 0 || host >= hostCount)
        sim::fatalf("FailureDomainMap: host ", host, " out of range [0, ",
                    hostCount, ")");
}

void
FailureDomainMap::checkRack(int rack) const
{
    if (rack < 0 || rack >= rackCount)
        sim::fatalf("FailureDomainMap: rack ", rack, " out of range [0, ",
                    rackCount, ")");
}

void
FailureDomainMap::checkPod(int pod) const
{
    if (pod < 0 || pod >= podCount)
        sim::fatalf("FailureDomainMap: pod ", pod, " out of range [0, ",
                    podCount, ")");
}

int
FailureDomainMap::rackOf(int host) const
{
    checkHost(host);
    return host / perRack;
}

int
FailureDomainMap::podOf(int host) const
{
    checkHost(host);
    return host / (perRack * perPod);
}

int
FailureDomainMap::podOfRack(int rack) const
{
    checkRack(rack);
    return rack / perPod;
}

int
FailureDomainMap::rackIndexInPod(int rack) const
{
    checkRack(rack);
    return rack % perPod;
}

int
FailureDomainMap::rackId(int pod, int rack_in_pod) const
{
    checkPod(pod);
    if (rack_in_pod < 0 || rack_in_pod >= perPod)
        sim::fatalf("FailureDomainMap: rack-in-pod ", rack_in_pod,
                    " out of range [0, ", perPod, ")");
    return pod * perPod + rack_in_pod;
}

std::vector<int>
FailureDomainMap::rackHosts(int rack) const
{
    checkRack(rack);
    std::vector<int> out;
    out.reserve(static_cast<std::size_t>(perRack));
    const int base = rack * perRack;
    for (int i = 0; i < perRack; ++i)
        out.push_back(base + i);
    return out;
}

std::vector<int>
FailureDomainMap::podHosts(int pod) const
{
    checkPod(pod);
    std::vector<int> out;
    const int span = perRack * perPod;
    out.reserve(static_cast<std::size_t>(span));
    const int base = pod * span;
    for (int i = 0; i < span; ++i)
        out.push_back(base + i);
    return out;
}

}  // namespace ccsim::fault
