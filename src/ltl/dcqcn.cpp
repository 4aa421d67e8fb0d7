#include "ltl/dcqcn.hpp"

#include <algorithm>

namespace ccsim::ltl {

DcqcnController::DcqcnController(sim::EventQueue &eq, DcqcnConfig config)
    : queue(eq), cfg(config), rateTarget(config.lineRateGbps),
      rateCurrent(config.lineRateGbps)
{
}

DcqcnController::~DcqcnController()
{
    if (timerEvent != sim::kNoEvent)
        queue.cancel(timerEvent);
}

void
DcqcnController::armTimer()
{
    if (timerEvent != sim::kNoEvent)
        return;
    timerEvent = queue.scheduleAfter(cfg.timerPeriod, [this] {
        timerEvent = sim::kNoEvent;
        onTimer();
    });
}

void
DcqcnController::onCongestionNotification()
{
    alpha = (1.0 - cfg.g) * alpha + cfg.g;
    rateTarget = rateCurrent;
    rateCurrent = std::max(cfg.minRateGbps,
                           rateCurrent * (1.0 - alpha / 2.0));
    increaseStage = 0;
    armTimer();
}

void
DcqcnController::onTimer()
{
    // Alpha decays toward zero while no CNPs arrive.
    alpha = (1.0 - cfg.g) * alpha;

    ++increaseStage;
    if (increaseStage <= cfg.fastRecoverySteps) {
        // Fast recovery: converge halfway back to the target rate.
        rateCurrent = (rateTarget + rateCurrent) / 2.0;
    } else if (increaseStage <= 2 * cfg.fastRecoverySteps) {
        // Additive increase.
        rateTarget = std::min(cfg.lineRateGbps, rateTarget + cfg.raiGbps);
        rateCurrent = (rateTarget + rateCurrent) / 2.0;
    } else {
        // Hyper increase: congestion is long gone.
        rateTarget = std::min(cfg.lineRateGbps, rateTarget + cfg.rhaiGbps);
        rateCurrent = (rateTarget + rateCurrent) / 2.0;
    }
    rateCurrent = std::min(rateCurrent, cfg.lineRateGbps);

    if (rateCurrent < cfg.lineRateGbps - 1e-9 || alpha > 1e-6)
        armTimer();
    else
        rateCurrent = cfg.lineRateGbps;
}

}  // namespace ccsim::ltl
