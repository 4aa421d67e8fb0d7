/**
 * @file
 * Pluggable per-packet delay models.
 *
 * Large shared switches (L1/L2 in the paper's three-tier network) carry
 * background traffic from hundreds of thousands of hosts that we cannot
 * afford to simulate packet-by-packet. Instead, a DelayModel injects the
 * queueing-delay distribution such traffic would produce; Figure 10's
 * latency bands (tight L0/L1, spread-out L2 with a 99.9th-percentile tail)
 * come directly from these distributions.
 */
#pragma once

#include <memory>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace ccsim::net {

/**
 * Interface: sample an additional per-packet delay. A model keeps no
 * state of its own (the caller's Rng carries the stream), so one model
 * can serve many switches, on any number of threads.
 */
class DelayModel
{
  public:
    virtual ~DelayModel() = default;

    /** Draw one delay sample. */
    virtual sim::TimePs sample(sim::Rng &rng) const = 0;
};

/** Always returns the same delay (possibly zero). */
class FixedDelay : public DelayModel
{
  public:
    explicit FixedDelay(sim::TimePs d) : delay(d) {}
    sim::TimePs sample(sim::Rng &) const override { return delay; }

  private:
    sim::TimePs delay;
};

/**
 * Lognormal queueing jitter, capped.
 *
 * Parameterized by mean and coefficient of variation of the resulting
 * distribution, with a hard cap modelling the switch's finite buffer
 * (beyond which PFC/drops bound the delay).
 */
class LognormalDelay : public DelayModel
{
  public:
    LognormalDelay(sim::TimePs mean, double cv, sim::TimePs cap)
        : meanPs(mean), coeffVar(cv), capPs(cap)
    {
    }

    sim::TimePs sample(sim::Rng &rng) const override
    {
        if (meanPs <= 0)
            return 0;
        auto d = static_cast<sim::TimePs>(
            rng.lognormalMeanCv(static_cast<double>(meanPs), coeffVar));
        return d > capPs ? capPs : d;
    }

  private:
    sim::TimePs meanPs;
    double coeffVar;
    sim::TimePs capPs;
};

/**
 * Mixture: with probability p, add a "collision" delay drawn from one
 * model, otherwise a baseline delay from another. Models the paper's L1
 * observation of a tight majority plus a small tail of packets stuck
 * behind other traffic.
 */
class MixtureDelay : public DelayModel
{
  public:
    MixtureDelay(double tail_prob, std::unique_ptr<DelayModel> base,
                 std::unique_ptr<DelayModel> tail)
        : tailProb(tail_prob), baseModel(std::move(base)),
          tailModel(std::move(tail))
    {
    }

    sim::TimePs sample(sim::Rng &rng) const override
    {
        if (rng.bernoulli(tailProb))
            return baseModel->sample(rng) + tailModel->sample(rng);
        return baseModel->sample(rng);
    }

  private:
    double tailProb;
    std::unique_ptr<DelayModel> baseModel;
    std::unique_ptr<DelayModel> tailModel;
};

}  // namespace ccsim::net
