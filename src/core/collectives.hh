/**
 * @file
 * Collective communication operations built on the public NIC API —
 * the broadcast / barrier / reduction workloads the paper's
 * introduction motivates as the payoff of fast multicast.
 *
 * Operations are asynchronous: each call starts the operation and
 * fires a completion callback with the finishing cycle. Multicasts
 * inside the collectives go through whatever multicast scheme the
 * network's NICs are configured with (hardware worms or U-Min
 * software trees), so the same experiment compares implementations.
 *
 * Every phase ends when the McastTracker retires its messages, each
 * delivered everywhere or written off as unreachable, so operations
 * complete under faults and the engine needs no hook of its own.
 */

#ifndef MDW_CORE_COLLECTIVES_HH
#define MDW_CORE_COLLECTIVES_HH

#include <functional>
#include <memory>

#include "core/network.hh"

namespace mdw {

/** Asynchronous collective-operation engine for one Network. It must
 *  outlive the operations it started: their waits call back into it. */
class CollectiveEngine
{
  public:
    /** Completion callback: receives the cycle the operation ended. */
    using Done = std::function<void(Cycle)>;

    explicit CollectiveEngine(Network &net) : net_(net) {}

    /**
     * Broadcast @p payload flits from @p root to @p members (root
     * excluded). Completes when the multicast retires.
     */
    void broadcast(NodeId root, const DestSet &members, int payload,
                   Done done);

    /**
     * Barrier among @p root plus @p members: members signal arrival
     * with short unicasts to the root; once all arrived, the root
     * multicasts the release. Completes when the release retires.
     * (Callers model local computation by choosing when to invoke
     * it.)
     */
    void barrier(NodeId root, const DestSet &members, Done done);

    /**
     * Reduction to @p root: every member sends @p payload flits to
     * the root (the combining itself is free at the host). Completes
     * when every contribution retired.
     */
    void reduce(NodeId root, const DestSet &members, int payload,
                Done done);

    /**
     * Reduce to @p root then broadcast the @p payload-flit result
     * back to the members.
     */
    void allreduce(NodeId root, const DestSet &members, int payload,
                   Done done);

    /** Operations started and not yet completed. */
    std::size_t pendingOps() const { return pending_; }

    /** Flits used for barrier arrival/release control messages. */
    static constexpr int kControlPayload = 4;

  private:
    /** One phase of an operation: messages still to retire. */
    struct Op
    {
        std::size_t outstanding = 0;
        Done done;
    };

    /** Start a phase that ends when @p messages messages retire. */
    std::shared_ptr<Op> newOp(std::size_t messages, Done done);
    /** Count @p msg's retirement toward @p op. */
    void await(const std::shared_ptr<Op> &op, MsgId msg);

    Network &net_;
    std::size_t pending_ = 0;
};

} // namespace mdw

#endif // MDW_CORE_COLLECTIVES_HH
