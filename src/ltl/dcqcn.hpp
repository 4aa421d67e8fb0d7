/**
 * @file
 * DC-QCN end-to-end congestion control (Zhu et al., SIGCOMM 2015), as
 * implemented by the LTL protocol engine's reaction point.
 *
 * The receiver (notification point) emits CNPs when it sees ECN-marked
 * data frames; this controller (the sender-side reaction point) cuts its
 * rate multiplicatively on CNP arrival and recovers through the standard
 * fast-recovery / additive-increase stages.
 */
#pragma once

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ccsim::ltl {

/** DC-QCN reaction-point parameters (defaults from the DC-QCN paper). */
struct DcqcnConfig {
    double lineRateGbps = 40.0;
    double minRateGbps = 0.1;
    /** EWMA gain for the alpha (congestion severity) estimate. */
    double g = 1.0 / 16.0;
    /** Additive increase step (Gb/s). */
    double raiGbps = 0.4;
    /** Hyper-increase step (Gb/s) after prolonged absence of congestion. */
    double rhaiGbps = 4.0;
    /** Alpha decay / rate increase timer period. */
    sim::TimePs timerPeriod = 55 * sim::kMicrosecond;
    /** Fast-recovery stages before additive increase begins. */
    int fastRecoverySteps = 5;
};

/** Sender-side DC-QCN rate controller for one connection. */
class DcqcnController
{
  public:
    DcqcnController(sim::EventQueue &eq, DcqcnConfig cfg);
    ~DcqcnController();

    DcqcnController(const DcqcnController &) = delete;
    DcqcnController &operator=(const DcqcnController &) = delete;

    /** A CNP arrived: multiplicative decrease. */
    void onCongestionNotification();

    /** Current permitted sending rate, Gb/s. */
    double currentRateGbps() const { return rateCurrent; }

  private:
    sim::EventQueue &queue;
    DcqcnConfig cfg;
    double alpha = 1.0;
    double rateTarget;
    double rateCurrent;
    int increaseStage = 0;
    sim::EventId timerEvent = sim::kNoEvent;

    void armTimer();
    void onTimer();
};

}  // namespace ccsim::ltl
