/**
 * @file
 * Test of the TimedWorkload decorator: wrapping a workload must not
 * change the simulation, and wakes the inner workload requests must
 * reach the network through the decorator.
 *
 * Exits 0 when every check passes, 1 otherwise.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "timed_workload.hh"

namespace {

using namespace mdw;

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

struct RunOutcome
{
    std::string metrics;
    Cycle cycles = 0;
    bool drained = false;
};

/** A short CB-HW multiple-multicast run, optionally decorated. */
RunOutcome
runSynthetic(bool decorate)
{
    NetworkConfig config = networkFor(Scheme::CbHw);
    config.fatTreeN = 2;
    TrafficParams traffic = defaultTraffic();
    traffic.load = 0.1;
    traffic.stopCycle = 3000;
    Network net(config);
    SyntheticTraffic source(net.numHosts(), traffic);
    perfbench::TimedWorkload timed(source);
    net.attachWorkload(decorate ? static_cast<Workload *>(&timed)
                                : &source);
    net.sim().run(3000);
    RunOutcome out;
    out.drained =
        net.sim().runUntil([&net] { return net.idle(); }, 100000);
    out.cycles = net.sim().now();
    out.metrics = net.metricsSnapshot().toJson();
    net.detachWorkload();
    if (decorate) {
        check(timed.pollCalls() > 0, "decorator counted poll calls");
        check(timed.arrivalCalls() > 0,
              "decorator counted nextArrival calls");
        check(timed.hookCalls() > 0, "decorator counted hook calls");
        check(timed.selfNs() > 0, "decorator accumulated host time");
    }
    return out;
}

/**
 * A workload that only ever emits on wake(): nextArrival() answers
 * "never" until a completion releases the next message, so the
 * sleeping NIC must be roused through the wake hook. It chains
 * @p total unicasts from node 0 to node 1, one per completion.
 */
class WakeDriven : public Workload
{
  public:
    explicit WakeDriven(int total) : left_(total) {}

    void
    poll(NodeId node, Cycle now, std::vector<MessageSpec> &out) override
    {
        if (node != 0 || !ready_ || now < releaseAt_)
            return;
        ready_ = false;
        MessageSpec spec;
        spec.dest = 1;
        spec.payloadFlits = 8;
        out.push_back(spec);
        --left_;
    }

    Cycle
    nextArrival(NodeId node, Cycle now) override
    {
        if (node != 0 || !ready_)
            return kNoCycle;
        return std::max(now, releaseAt_);
    }

    void
    onCompleted(MsgId msg, NodeId src, Cycle now) override
    {
        (void)msg;
        if (src != 0 || left_ == 0)
            return;
        ready_ = true;
        releaseAt_ = now + 1;
        wake(0, releaseAt_);
    }

    bool exhausted() const override { return left_ == 0 && !ready_; }

  private:
    int left_;
    bool ready_ = true;
    Cycle releaseAt_ = 0;
};

/** Cycles to finish the wake-driven chain, or kNoCycle if it hung. */
Cycle
runWakeDriven(bool decorate, std::uint64_t *wakes)
{
    NetworkConfig config = networkFor(Scheme::CbHw);
    config.fatTreeN = 2;
    Network net(config);
    WakeDriven inner(5);
    perfbench::TimedWorkload timed(inner);
    Workload *w = decorate ? static_cast<Workload *>(&timed) : &inner;
    net.attachWorkload(w);
    const bool done = net.sim().runUntil(
        [&] { return w->exhausted() && net.idle(); }, 200000);
    net.detachWorkload();
    if (wakes)
        *wakes = timed.wakes();
    return done ? net.sim().now() : kNoCycle;
}

} // namespace

int
main()
{
    const RunOutcome plain = runSynthetic(false);
    const RunOutcome timed = runSynthetic(true);
    check(plain.drained && timed.drained, "both synthetic runs drained");
    check(plain.cycles == timed.cycles,
          "decorated run took the same simulated cycles");
    check(plain.metrics == timed.metrics,
          "decorated run has an identical metrics snapshot");

    std::uint64_t wakes = 0;
    const Cycle bare = runWakeDriven(false, nullptr);
    const Cycle wrapped = runWakeDriven(true, &wakes);
    check(bare != kNoCycle, "wake-driven chain completes undecorated");
    check(wrapped != kNoCycle, "wake-driven chain completes decorated");
    check(bare == wrapped,
          "decorated wake-driven chain finishes on the same cycle");
    check(wakes == 4, "decorator forwarded every wake request");

    std::printf("%s\n", failures == 0 ? "PASS" : "FAILED");
    return failures == 0 ? 0 : 1;
}
