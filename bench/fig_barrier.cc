/**
 * @file
 * E10 — Barrier synchronization (the paper's stated future work,
 * developed in the authors' companion IPPS'97 paper): absolute
 * barrier latency and its impact on background unicast traffic, for
 * each multicast implementation. The barrier is arrive-unicasts +
 * release-multicast; the release dominates, so the multicast scheme
 * sets the barrier cost.
 */

#include <memory>

#include "bench_common.hh"

#include "core/collectives.hh"
#include "core/hw_barrier.hh"

namespace {

using namespace mdw;
using namespace mdw::bench;

struct BarrierResult
{
    double meanCycles = 0.0;
    double bgUnicastLatency = 0.0;
};

BarrierResult
measure(Scheme scheme, bool hwCombining, double bgLoad, int rounds,
        const Config &cli, bool quick)
{
    NetworkConfig netcfg = networkFor(scheme);
    TrafficParams traffic = defaultTraffic();
    ExperimentParams params = benchExperiment(quick);
    applyOverrides(cli, netcfg, traffic, params);

    Network net(netcfg);
    std::unique_ptr<CollectiveEngine> coll;
    std::unique_ptr<HwBarrierManager> hw;
    if (hwCombining)
        hw = std::make_unique<HwBarrierManager>(net);
    else
        coll = std::make_unique<CollectiveEngine>(net);

    // Background unicast traffic, running for the whole experiment.
    TrafficParams bg;
    bg.pattern = TrafficPattern::UniformUnicast;
    bg.load = bgLoad;
    bg.payloadFlits = 64;
    SyntheticTraffic source(net.numHosts(), bg);
    if (bgLoad > 0.0)
        net.attachWorkload(&source);
    net.tracker().setWindow(0, kNoCycle);
    net.armWatchdog(200000);

    // Warm the background up.
    net.sim().run(quick ? 2000 : 5000);

    DestSet everyone(net.numHosts());
    for (NodeId m = 1; m < static_cast<NodeId>(net.numHosts()); ++m)
        everyone.set(m);
    int group = -1;
    if (hwCombining) {
        DestSet all = everyone;
        all.set(0);
        group = hw->createGroup(all);
    }

    Sampler barrier_cycles;
    for (int round = 0; round < rounds; ++round) {
        const Cycle start = net.sim().now();
        bool finished = false;
        Cycle done_at = 0;
        const auto on_done = [&](Cycle now) {
            finished = true;
            done_at = now;
        };
        if (hwCombining)
            hw->startBarrier(group, on_done);
        else
            coll->barrier(0, everyone, on_done);
        if (!net.sim().runUntil([&] { return finished; }, 500000))
            break;
        barrier_cycles.add(static_cast<double>(done_at - start));
        // Space the rounds out a little.
        net.sim().run(quick ? 500 : 2000);
    }

    BarrierResult result;
    result.meanCycles = barrier_cycles.mean();
    result.bgUnicastLatency = net.tracker().unicastLatency().mean();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E10");
    const int rounds = quick ? 3 : 10;

    banner("E10", "64-node full barrier: latency and background impact",
           "hw = switch combining + release worm; others = arrive "
           "unicasts + release multicast");
    std::printf("%8s | %9s %9s | %9s %9s | %9s %9s | %9s %9s\n", "",
                "hw-comb", "", "cb-hw", "", "ib-hw", "", "sw-umin", "");
    std::printf("%8s | %9s %9s | %9s %9s | %9s %9s | %9s %9s\n",
                "bg-load", "barrier", "bg-uni", "barrier", "bg-uni",
                "barrier", "bg-uni", "barrier", "bg-uni");

    const std::vector<double> bg_loads =
        quick ? std::vector<double>{0.0, 0.1}
              : std::vector<double>{0.0, 0.05, 0.1, 0.2};
    for (double bg : bg_loads) {
        std::printf("%8.2f", bg);
        {
            const BarrierResult r =
                measure(Scheme::CbHw, true, bg, rounds, cli, quick);
            std::printf(" | %9.0f %9.1f", r.meanCycles,
                        r.bgUnicastLatency);
        }
        for (Scheme scheme : kAllSchemes) {
            const BarrierResult r =
                measure(scheme, false, bg, rounds, cli, quick);
            std::printf(" | %9.0f %9.1f", r.meanCycles,
                        r.bgUnicastLatency);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    maybeReportSimple(sc);
    return 0;
}
