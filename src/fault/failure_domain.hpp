/**
 * @file
 * The physical failure-domain hierarchy of the fabric.
 *
 * Faults in a real datacenter are correlated by shared hardware: the 24
 * hosts behind one TOR go dark together when the switch dies, a pod's
 * worth of machines stagger-crash when a power feed browns out, and a
 * sick L2 spine degrades every pod at once. The FailureDomainMap gives
 * every layer that reasons about blast radius — the fault injector's
 * correlated injectors, the HealthMonitor's domain-level conviction,
 * HaaS anti-affinity placement — one shared, purely arithmetic view of
 * the hierarchy:
 *
 *     host  <  rack (one TOR)  <  pod  <  L2 spine (whole fabric)
 *
 * derived from the same geometry numbers net::TopologyConfig uses, so
 * the map never disagrees with the built fabric and costs no memory
 * proportional to fleet size.
 */
#pragma once

#include <vector>

namespace ccsim::fault {

/** Hierarchy levels, smallest blast radius first. */
enum class DomainLevel { kHost, kRack, kPod, kSpine };

/**
 * Pure-arithmetic mapping between global host indices and their
 * enclosing failure domains. Rack ids are global
 * (pod * racksPerPod + rack-in-pod), matching host-index order.
 */
class FailureDomainMap
{
  public:
    FailureDomainMap() = default;

    /** From raw geometry; every dimension must be >= 1. */
    FailureDomainMap(int hosts_per_rack, int racks_per_pod, int pods);

    int hosts() const { return hostCount; }
    int racks() const { return rackCount; }
    int pods() const { return podCount; }
    int hostsPerRack() const { return perRack; }
    int racksPerPod() const { return perPod; }

    /** Global rack id of a host. */
    int rackOf(int host) const;

    /** Pod of a host. */
    int podOf(int host) const;

    /** Pod containing a global rack id. */
    int podOfRack(int rack) const;

    /** A rack's index within its pod. */
    int rackIndexInPod(int rack) const;

    /** Global rack id from (pod, rack-in-pod). */
    int rackId(int pod, int rack_in_pod) const;

    /** Host indices of one rack, ascending. */
    std::vector<int> rackHosts(int rack) const;

    /** Host indices of one pod, ascending. */
    std::vector<int> podHosts(int pod) const;

  private:
    int perRack = 0;
    int perPod = 0;
    int podCount = 0;
    int rackCount = 0;
    int hostCount = 0;

    void checkHost(int host) const;
    void checkRack(int rack) const;
    void checkPod(int pod) const;
};

}  // namespace ccsim::fault
