/**
 * @file
 * TimedWorkload: a decorator around a real Workload that counts and
 * times every call the network makes into it, so the traced run can
 * attribute host time to the workload layer without spans inside the
 * simulator. Every call is forwarded unchanged, and wakes the inner
 * workload requests are forwarded to the network, so a run with the
 * decorator attached is the same simulation as one without it.
 */

#ifndef MDW_PERFBENCH_TIMED_WORKLOAD_HH
#define MDW_PERFBENCH_TIMED_WORKLOAD_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "host/workload.hh"

namespace mdw::perfbench {

class TimedWorkload : public Workload
{
  public:
    /** Wrap @p inner (not owned; must outlive this decorator). */
    explicit TimedWorkload(Workload &inner) : inner_(inner)
    {
        // The network installs its wake hook on the decorator; route
        // the inner workload's wake() requests through it.
        inner_.setWakeHook(
            [this](NodeId node, Cycle when) { wake(node, when); });
    }

    ~TimedWorkload() override { inner_.setWakeHook(nullptr); }

    TimedWorkload(const TimedWorkload &) = delete;
    TimedWorkload &operator=(const TimedWorkload &) = delete;

    void
    poll(NodeId node, Cycle now, std::vector<MessageSpec> &out) override
    {
        const Clock::time_point start = Clock::now();
        inner_.poll(node, now, out);
        charge(start, pollCalls_);
    }

    Cycle
    nextArrival(NodeId node, Cycle now) override
    {
        const Clock::time_point start = Clock::now();
        const Cycle next = inner_.nextArrival(node, now);
        charge(start, arrivalCalls_);
        return next;
    }

    void
    onPosted(NodeId src, std::uint64_t token, MsgId msg,
             Cycle now) override
    {
        const Clock::time_point start = Clock::now();
        inner_.onPosted(src, token, msg, now);
        charge(start, hookCalls_);
    }

    void
    onDelivered(MsgId msg, NodeId node, Cycle now) override
    {
        const Clock::time_point start = Clock::now();
        inner_.onDelivered(msg, node, now);
        charge(start, hookCalls_);
    }

    void
    onCompleted(MsgId msg, NodeId src, Cycle now) override
    {
        const Clock::time_point start = Clock::now();
        inner_.onCompleted(msg, src, now);
        charge(start, hookCalls_);
    }

    bool exhausted() const override { return inner_.exhausted(); }

    std::uint64_t pollCalls() const { return pollCalls_; }
    std::uint64_t arrivalCalls() const { return arrivalCalls_; }
    /** onPosted + onDelivered + onCompleted calls. */
    std::uint64_t hookCalls() const { return hookCalls_; }
    /** Wake requests forwarded from the inner workload. */
    std::uint64_t wakes() const { return wakes_; }
    /** Host time spent inside the inner workload, in nanoseconds. */
    std::uint64_t selfNs() const { return selfNs_; }

  private:
    using Clock = std::chrono::steady_clock;

    void
    charge(Clock::time_point start, std::uint64_t &calls)
    {
        selfNs_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - start)
                .count());
        ++calls;
    }

    void
    wake(NodeId node, Cycle when)
    {
        ++wakes_;
        Workload::wake(node, when);
    }

    Workload &inner_;
    std::uint64_t pollCalls_ = 0;
    std::uint64_t arrivalCalls_ = 0;
    std::uint64_t hookCalls_ = 0;
    std::uint64_t wakes_ = 0;
    std::uint64_t selfNs_ = 0;
};

} // namespace mdw::perfbench

#endif // MDW_PERFBENCH_TIMED_WORKLOAD_HH
