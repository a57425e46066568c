/**
 * @file
 * End-to-end message accounting.
 *
 * Tracks every logical message (unicast or multicast) from creation
 * to its deliveries and computes the paper's two multicast latency
 * metrics [Nupairoj/Ni]: (a) latency of the LAST received copy and
 * (b) the average over per-destination copies. Messages created
 * inside the measurement window feed the samplers; everything else is
 * still tracked (for drain/watchdog logic) but not sampled.
 */

#ifndef MDW_HOST_MCAST_TRACKER_HH
#define MDW_HOST_MCAST_TRACKER_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace mdw {

/** Tracks deliveries of all in-flight logical messages. */
class McastTracker
{
  public:
    /** Register a new logical message. */
    void expectMessage(MsgId msg, NodeId src, std::size_t destCount,
                       Cycle created, bool isMulticast);

    /** Record the delivery of one copy at node @p dest. */
    void onDelivered(MsgId msg, NodeId dest, Cycle now,
                     int payloadFlits);

    /**
     * Called whenever a message retires (all destinations delivered
     * or written off), with its id, source and the retiring cycle.
     * Fires after the tracker's own state is updated, so
     * isComplete(msg) is true inside the hook. Closed-loop workloads
     * hang off this to release dependent messages.
     */
    using CompletionHook = std::function<void(MsgId, NodeId, Cycle)>;

    void
    setCompletionHook(CompletionHook hook)
    {
        onComplete_ = std::move(hook);
    }

    /** Called with the retiring cycle by onRetired(). */
    using RetireFn = std::function<void(Cycle)>;

    /**
     * Call @p fn once @p msg retires, delivered everywhere or written
     * off. Runs inside the retiring delivery, just before the
     * completion hook. A message that has already retired (a post
     * whose destinations were all written off retires inside the
     * post) runs @p fn at once with @p now. One wait per message.
     */
    void onRetired(MsgId msg, Cycle now, RetireFn fn);

    /**
     * Switch to resilient accounting (fault injection / NIC
     * retransmission): redundant copies at a destination are
     * deduplicated instead of panicking, copies of already-completed
     * messages are swallowed, and destinations can be written off as
     * unreachable. Without this call, behaviour is byte-identical to
     * the strict tracker. Enable before any traffic flows.
     */
    void enableResilience() { resilient_ = true; }
    bool resilient() const { return resilient_; }

    /**
     * Give up on one destination of @p msg (no surviving route).
     * Counts toward completion so the message can retire partially
     * delivered. Returns false if the message already completed or
     * the destination was already delivered/marked.
     */
    bool markUnreachable(MsgId msg, NodeId dest, Cycle now);

    /**
     * Has @p dest's copy of @p msg been delivered (or the destination
     * written off)? True for completed messages. Resilient mode only;
     * used by the NIC to skip satisfied destinations on retransmit.
     */
    bool isDelivered(MsgId msg, NodeId dest) const;

    /** Redundant copies swallowed by deduplication (resilient). */
    std::uint64_t duplicateDeliveries() const { return duplicates_; }
    /** Messages retired with at least one unreachable destination. */
    std::uint64_t partialCompleted() const { return partialCompleted_; }
    /** Destination copies written off as unreachable. */
    std::uint64_t unreachableDests() const { return unreachableDests_; }

    /**
     * Set the measurement window: messages *created* in
     * [start, end) are sampled; payload flits *delivered* in
     * [start, end) count toward throughput.
     */
    void setWindow(Cycle start, Cycle end);

    /** Messages registered and not yet fully delivered. */
    std::size_t inFlight() const { return live_.size(); }

    /** In-flight messages that were created inside the window. */
    std::size_t measuredInFlight() const { return measuredLive_; }

    /** Completed unicast message latencies (created -> delivered). */
    const Sampler &unicastLatency() const { return unicast_; }
    /** Completed multicast latency, last-copy metric. */
    const Sampler &mcastLastLatency() const { return mcastLast_; }
    /** Completed multicast latency, per-copy average metric. */
    const Sampler &mcastAvgLatency() const { return mcastAvg_; }

    /** Latency distribution of measured unicasts (32-cycle bins). */
    const Histogram &unicastHist() const { return unicastHist_; }
    /** Last-copy latency distribution of measured multicasts. */
    const Histogram &mcastLastHist() const { return mcastLastHist_; }

    /** Payload flits delivered during the window. */
    std::uint64_t windowDeliveredFlits() const { return windowFlits_; }

    /** Total copies delivered (all time). */
    std::uint64_t totalDeliveries() const { return deliveries_; }
    /** Total messages completed (all time). */
    std::uint64_t totalCompleted() const { return completed_; }

    /** True if message @p msg has completed (tests). */
    bool isComplete(MsgId msg) const { return !live_.count(msg); }

    /** Forget samplers and counters, keep live messages. */
    void resetStats();

  private:
    struct Record
    {
        NodeId src = kInvalidNode;
        std::size_t expected = 0;
        std::size_t arrived = 0;
        /** Destinations written off as unreachable (resilient). */
        std::size_t unreachable = 0;
        Cycle created = 0;
        Cycle lastArrival = 0;
        double latencySum = 0.0;
        bool isMulticast = false;
        bool measured = false;
        /** Destinations delivered or written off (resilient only). */
        std::unordered_set<NodeId> resolved;
    };

    /** Retire a record whose destinations are all accounted for. */
    void finish(std::unordered_map<MsgId, Record>::iterator it,
                Cycle now);

    std::unordered_map<MsgId, Record> live_;
    std::size_t measuredLive_ = 0;

    Cycle windowStart_ = 0;
    Cycle windowEnd_ = kNoCycle;

    Sampler unicast_;
    Sampler mcastLast_;
    Sampler mcastAvg_;
    Histogram unicastHist_{32.0, 4096};
    Histogram mcastLastHist_{32.0, 4096};
    std::uint64_t windowFlits_ = 0;
    std::uint64_t deliveries_ = 0;
    std::uint64_t completed_ = 0;

    bool resilient_ = false;
    /** Messages fully retired; swallows late redundant copies. */
    std::unordered_set<MsgId> completedIds_;
    std::uint64_t duplicates_ = 0;
    std::uint64_t partialCompleted_ = 0;
    std::uint64_t unreachableDests_ = 0;

    CompletionHook onComplete_;
    /** Pending onRetired() waits, by message. */
    std::unordered_map<MsgId, RetireFn> retireWaits_;
};

} // namespace mdw

#endif // MDW_HOST_MCAST_TRACKER_HH
