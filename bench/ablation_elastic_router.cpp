/**
 * @file
 * Ablation A1: the Elastic Router's shared credit pool vs a conventional
 * static per-VC allocation (Section V-B design rationale: "the ER
 * supports an elastic policy that allows a pool of credits to be shared
 * among multiple VCs, which is effective in reducing the aggregate flit
 * buffering requirements").
 *
 * Two experiments:
 *  1. Burst absorption: a producer bursts a message on one VC toward a
 *     slow consumer. With a shared pool, the one hot VC may borrow the
 *     whole budget, so the producer hands off (and is released to do
 *     other work) much sooner than with static partitioning, where it
 *     is throttled to 1/numVcs of the buffering.
 *  2. Budget sizing: the smallest total buffer budget at which producer
 *     hand-off time for a single-VC burst reaches a target — elastic
 *     needs ~1/numVcs of the static budget.
 *
 * Exits non-zero unless elastic hands off no later than static at every
 * budget of experiment 1, and reaches the target with at most half the
 * static budget in experiment 2. Failures go to stderr, so the printed
 * tables stay the same.
 */
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "router/elastic_router.hpp"
#include "sim/event_queue.hpp"

using namespace ccsim;
using router::CreditPolicy;
using router::ElasticRouter;
using router::ErConfig;
using router::ErEndpoint;

namespace {

struct RunResult {
    double handoffUs;  ///< when the producer's injection backlog drained
    double drainUs;    ///< when the message fully arrived
    int peakBuffered;
};

RunResult
run(CreditPolicy policy, int total_budget)
{
    sim::EventQueue eq;
    ErConfig cfg;
    cfg.numPorts = 2;
    cfg.numVcs = 4;
    cfg.policy = policy;
    cfg.perVcReservedFlits = 1;
    cfg.sharedPoolFlits = total_budget - cfg.numVcs;
    cfg.staticPerVcFlits = total_budget / cfg.numVcs;
    ElasticRouter er(eq, cfg);

    ErEndpoint producer(eq, er, 0, 0);
    ErEndpoint consumer(eq, er, 1, 1);
    er.setOutputSink(0, &producer);
    er.setOutputSink(1, &consumer);
    er.setOutputCyclesPerFlit(1, 8);  // slow consumer

    bool done = false;
    consumer.setMessageHandler(
        [&done](const router::ErMessagePtr &) { done = true; });

    producer.sendMessage(1, 0, 4096);  // 128-flit burst on VC 0

    RunResult result{};
    result.handoffUs = -1;
    while (eq.step()) {
        if (result.handoffUs < 0 && producer.backlogFlits() == 0)
            result.handoffUs = sim::toMicros(eq.now());
    }
    if (!done)
        sim::panic("ablation A1: message not delivered");
    result.drainUs = sim::toMicros(eq.now());
    result.peakBuffered = er.peakBufferedFlits();
    return result;
}

}  // namespace

int
main(int argc, char **argv)
{
    bench::Flags(argc, argv, {});
    std::printf("=== Ablation A1: Elastic Router credit policy ===\n\n");

    std::printf("-- Experiment 1: producer hand-off time for a 128-flit "
                "single-VC burst --\n");
    std::printf("   (2 ports, 4 VCs, slow consumer; equal total buffer "
                "budget per input port)\n\n");
    std::printf("  %8s | %13s %11s | %13s %11s\n", "budget",
                "elastic(us)", "peak flits", "static(us)", "peak flits");
    bool ok = true;
    for (int budget : {8, 16, 32, 64, 128}) {
        const RunResult e = run(CreditPolicy::kElastic, budget);
        const RunResult s = run(CreditPolicy::kStatic, budget);
        std::printf("  %8d | %13.2f %11d | %13.2f %11d\n", budget,
                    e.handoffUs, e.peakBuffered, s.handoffUs,
                    s.peakBuffered);
        if (e.handoffUs > s.handoffUs) {
            std::fprintf(stderr,
                         "FAIL: at budget %d elastic hands off later than "
                         "static (%.2f > %.2f us)\n",
                         budget, e.handoffUs, s.handoffUs);
            ok = false;
        }
    }

    std::printf("\n-- Experiment 2: smallest budget achieving hand-off "
                "<= 4 us --\n");
    int need_e = -1, need_s = -1;
    for (int budget = 4; budget <= 512; budget += 4) {
        if (need_e < 0 &&
            run(CreditPolicy::kElastic, budget).handoffUs <= 4.0)
            need_e = budget;
        if (need_s < 0 &&
            run(CreditPolicy::kStatic, budget).handoffUs <= 4.0)
            need_s = budget;
        if (need_e > 0 && need_s > 0)
            break;
    }
    std::printf("  elastic: %d flits/port;  static: %d flits/port  "
                "(elastic needs ~1/numVcs the buffering)\n", need_e,
                need_s);

    if (need_e < 0 || need_s < 0 || 2 * need_e > need_s) {
        std::fprintf(stderr,
                     "FAIL: elastic needs %d flits/port to reach the "
                     "target, more than half of static's %d\n",
                     need_e, need_s);
        ok = false;
    }

    std::printf("\nconclusion: the shared pool lets a hot VC borrow idle "
                "VCs' buffering, reducing the\naggregate flit-buffer "
                "requirement for the same hand-off performance — the "
                "paper's ER rationale.\n");
    return ok ? 0 : 1;
}
