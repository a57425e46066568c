#include "host/mcast_tracker.hh"

#include "sim/logging.hh"

namespace mdw {

void
McastTracker::expectMessage(MsgId msg, NodeId src,
                            std::size_t destCount, Cycle created,
                            bool isMulticast)
{
    MDW_ASSERT(destCount >= 1, "message %llu with no destinations",
               static_cast<unsigned long long>(msg));
    Record rec;
    rec.src = src;
    rec.expected = destCount;
    rec.created = created;
    rec.isMulticast = isMulticast;
    rec.measured = created >= windowStart_ && created < windowEnd_;
    const auto [it, inserted] = live_.emplace(msg, rec);
    MDW_ASSERT(inserted, "message %llu registered twice",
               static_cast<unsigned long long>(msg));
    (void)it;
    if (rec.measured)
        ++measuredLive_;
}

void
McastTracker::onDelivered(MsgId msg, NodeId dest, Cycle now,
                          int payloadFlits)
{
    auto it = live_.find(msg);
    if (resilient_) {
        if (it == live_.end()) {
            // A redundant copy of an already-completed message (a
            // retransmission raced the original): swallow it.
            MDW_ASSERT(completedIds_.count(msg) != 0,
                       "delivery at node %d for unknown message %llu",
                       dest, static_cast<unsigned long long>(msg));
            ++duplicates_;
            return;
        }
        if (!it->second.resolved.insert(dest).second) {
            ++duplicates_;
            return;
        }
    } else {
        MDW_ASSERT(it != live_.end(),
                   "delivery at node %d for unknown message %llu", dest,
                   static_cast<unsigned long long>(msg));
    }
    Record &rec = it->second;
    MDW_ASSERT(rec.arrived + rec.unreachable < rec.expected,
               "message %llu over-delivered at node %d",
               static_cast<unsigned long long>(msg), dest);
    ++rec.arrived;
    ++deliveries_;
    rec.lastArrival = now;
    rec.latencySum += static_cast<double>(now - rec.created);
    if (now >= windowStart_ && now < windowEnd_)
        windowFlits_ += static_cast<std::uint64_t>(payloadFlits);

    if (rec.arrived + rec.unreachable == rec.expected)
        finish(it, now);
}

bool
McastTracker::markUnreachable(MsgId msg, NodeId dest, Cycle now)
{
    MDW_ASSERT(resilient_, "markUnreachable on a strict tracker");
    auto it = live_.find(msg);
    if (it == live_.end())
        return false; // already completed
    Record &rec = it->second;
    if (!rec.resolved.insert(dest).second)
        return false; // delivered or already written off
    ++rec.unreachable;
    ++unreachableDests_;
    if (rec.arrived + rec.unreachable == rec.expected)
        finish(it, now);
    return true;
}

bool
McastTracker::isDelivered(MsgId msg, NodeId dest) const
{
    MDW_ASSERT(resilient_, "isDelivered on a strict tracker");
    auto it = live_.find(msg);
    if (it == live_.end()) {
        MDW_ASSERT(completedIds_.count(msg) != 0,
                   "isDelivered for unknown message %llu",
                   static_cast<unsigned long long>(msg));
        return true;
    }
    return it->second.resolved.count(dest) != 0;
}

void
McastTracker::finish(std::unordered_map<MsgId, Record>::iterator it,
                     Cycle now)
{
    Record &rec = it->second;
    const MsgId msg = it->first;
    const NodeId src = rec.src;
    const bool partial = rec.unreachable > 0;
    if (rec.measured) {
        // Partially-delivered messages never feed the latency
        // samplers: a last-copy latency over a shrunken destination
        // set would not be comparable across fault rates.
        if (!partial) {
            const double last =
                static_cast<double>(rec.lastArrival - rec.created);
            const double avg =
                rec.latencySum / static_cast<double>(rec.expected);
            if (rec.isMulticast) {
                mcastLast_.add(last);
                mcastAvg_.add(avg);
                mcastLastHist_.add(last);
            } else {
                unicast_.add(last);
                unicastHist_.add(last);
            }
        }
        --measuredLive_;
    }
    if (partial)
        ++partialCompleted_;
    else
        ++completed_;
    if (resilient_)
        completedIds_.insert(it->first);
    live_.erase(it);
    if (!retireWaits_.empty()) {
        if (auto wait = retireWaits_.extract(msg))
            wait.mapped()(now);
    }
    if (onComplete_)
        onComplete_(msg, src, now);
}

void
McastTracker::onRetired(MsgId msg, Cycle now, RetireFn fn)
{
    if (live_.count(msg) == 0) {
        fn(now);
        return;
    }
    const bool inserted = retireWaits_.emplace(msg, std::move(fn)).second;
    MDW_ASSERT(inserted, "message %llu already has a retirement wait",
               static_cast<unsigned long long>(msg));
}

void
McastTracker::setWindow(Cycle start, Cycle end)
{
    MDW_ASSERT(start <= end, "inverted measurement window");
    windowStart_ = start;
    windowEnd_ = end;
}

void
McastTracker::resetStats()
{
    unicast_.reset();
    mcastLast_.reset();
    mcastAvg_.reset();
    unicastHist_.reset();
    mcastLastHist_.reset();
    windowFlits_ = 0;
    deliveries_ = 0;
    completed_ = 0;
    duplicates_ = 0;
    partialCompleted_ = 0;
    unreachableDests_ = 0;
}

} // namespace mdw
