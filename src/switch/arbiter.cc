#include "switch/arbiter.hh"

#include "sim/logging.hh"

namespace mdw {

const char *
toString(LaneAlloc alloc)
{
    switch (alloc) {
      case LaneAlloc::StaticClass:
        return "static";
      case LaneAlloc::Adaptive:
        return "adaptive";
    }
    return "?";
}

namespace {

int
clampLaneClass(int trafficClass)
{
    if (trafficClass < 0)
        return 0;
    if (trafficClass >= kLaneClasses)
        return kLaneClasses - 1;
    return trafficClass;
}

} // namespace

int
laneClassBase(int lanes, int trafficClass)
{
    MDW_ASSERT(lanes >= 1, "lane partition over %d lanes", lanes);
    if (lanes == 1)
        return 0;
    return clampLaneClass(trafficClass) == 0 ? 0 : (lanes + 1) / 2;
}

int
laneClassSize(int lanes, int trafficClass)
{
    MDW_ASSERT(lanes >= 1, "lane partition over %d lanes", lanes);
    if (lanes == 1)
        return 1;
    const int split = (lanes + 1) / 2;
    return clampLaneClass(trafficClass) == 0 ? split : lanes - split;
}

RoundRobinArbiter::RoundRobinArbiter(int requesters)
    : size_(requesters)
{
    MDW_ASSERT(requesters >= 0, "negative requester count");
}

void
RoundRobinArbiter::resize(int requesters)
{
    MDW_ASSERT(requesters >= 0, "negative requester count");
    size_ = requesters;
    last_ = -1;
}

int
RoundRobinArbiter::grant(const std::vector<int> &requesters)
{
    // Rotating priority without modular ranks: the smallest index
    // after the last grant wins, else (wrapping) the smallest overall.
    int after = -1;
    int lowest = -1;
    for (const int r : requesters) {
        MDW_ASSERT(r >= 0 && r < size_, "requester %d out of range", r);
        if (r > last_ && (after < 0 || r < after))
            after = r;
        if (lowest < 0 || r < lowest)
            lowest = r;
    }
    const int winner = after >= 0 ? after : lowest;
    if (winner >= 0) {
        last_ = winner;
        ++grants_;
    }
    return winner;
}

} // namespace mdw
