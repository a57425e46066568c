#include "switch/input_buffer_switch.hh"

#include <algorithm>

#include "sim/system.hh"

namespace mdw {

InputBufferSwitch::InputBufferSwitch(std::string name, SwitchId id,
                                     const SwitchRouting *routing,
                                     const SwitchParams &params,
                                     const IbParams &ibParams)
    : SwitchBase(std::move(name), id, routing, params,
                 ibParams.bufferFlits),
      ibParams_(ibParams), admitted_(fifos_.size()), bound_(fifos_.size())
{
    const auto radix = static_cast<std::size_t>(routing->radix());
    const auto slots = radix * static_cast<std::size_t>(lanes());
    inputs_.resize(slots);
    outputs_.resize(slots);
    requests_.resize(slots);
    outputArb_.resize(slots);
    for (auto &arb : outputArb_)
        arb.resize(static_cast<int>(slots));
    syncArb_.resize(static_cast<int>(slots));
}

bool
InputBufferSwitch::fullyGranted(std::size_t i) const
{
    const InputState &input = inputs_[i];
    return admitted_.test(i) && !input.upPending &&
           !input.branches.empty() && input.ungranted == 0;
}

void
InputBufferSwitch::bindOutput(std::size_t o, int input, int branch)
{
    outputs_[o].boundInput = input;
    outputs_[o].boundBranch = branch;
    bound_.set(o);
}

void
InputBufferSwitch::unbindOutput(std::size_t o)
{
    outputs_[o].boundInput = -1;
    outputs_[o].boundBranch = -1;
    bound_.reset(o);
}

bool
InputBufferSwitch::outputBusy(PortId port) const
{
    for (int l = 0; l < lanes(); ++l) {
        if (outputs_.at(laneIdx(static_cast<std::size_t>(port), l))
                .busy())
            return true;
    }
    return false;
}

void
InputBufferSwitch::dumpState(FILE *out) const
{
    std::fprintf(out, "%s: input-buffer switch (%d lanes)\n",
                 name().c_str(), lanes());
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        const InputState &in = inputs_[i];
        const InputFifo &fifo = fifos_[i];
        if (fifo.packets.empty())
            continue;
        const PacketRecord &rec = fifo.packets.front();
        std::fprintf(out,
                     "  in%zu.%zu pkts=%zu head=%s arrived=%d "
                     "released=%d admitted=%d outLane=%d upPending=%d "
                     "free=%d\n",
                     i / static_cast<std::size_t>(lanes()),
                     i % static_cast<std::size_t>(lanes()),
                     fifo.packets.size(), rec.pkt->toString().c_str(),
                     rec.arrived, in.released, admitted_.test(i) ? 1 : 0,
                     fifo.outLane,
                     in.upPending, fifo.freeSlots);
        for (const Branch &branch : in.branches) {
            std::fprintf(out, "    branch port=%d sent=%d granted=%d\n",
                         branch.port, branch.sent, branch.granted);
        }
    }
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        if (!outputs_[o].busy())
            continue;
        const std::size_t port = o / static_cast<std::size_t>(lanes());
        const std::size_t lane = o % static_cast<std::size_t>(lanes());
        std::fprintf(out,
                     "  out%zu.%zu bound to in%d branch %d credits=%d\n",
                     port, lane, outputs_[o].boundInput,
                     outputs_[o].boundBranch, outs_[port].credits[lane]);
    }
}

void
InputBufferSwitch::step(Cycle now)
{
    collectCredits(now);
    intake(now);
    if (poisoned_)
        fabricateFailedArrivals();
    admitHeads(now);
    if (params_.replication == ReplicationMode::Synchronous) {
        arbitrateSync();
        transmitSync(now);
    } else {
        arbitrate();
        transmit(now);
    }
    release(now);
    sampleFifoOccupancy(now);
}

Cycle
InputBufferSwitch::nextWork(Cycle now)
{
    // Buffered packets cover every ongoing activity: branches and
    // output bindings only exist for a resident head packet, and
    // release() frees slots only while packets are queued.
    if (!fifosEmpty() || bound_.any())
        return now + 1;
    return earliestLinkArrival();
}

int
InputBufferSwitch::laneCost(const RouteDecision &route, int lane) const
{
    // Busy required output slots on this lane: each one is a stream
    // the new worm would queue behind.
    int cost = 0;
    for (const auto &[port, sub] : route.downBranches) {
        (void)sub;
        if (outputs_[laneIdx(static_cast<std::size_t>(port), lane)]
                .busy())
            ++cost;
    }
    if (route.needsUp()) {
        bool any_free = false;
        for (PortId cand : route.upCandidates) {
            if (!outputs_[laneIdx(static_cast<std::size_t>(cand),
                                  lane)]
                     .busy())
                any_free = true;
        }
        if (!any_free)
            ++cost;
    }
    return cost;
}

void
InputBufferSwitch::admitHeads(Cycle now)
{
    occupied_.forEachAndNot(admitted_,
                            [&](std::size_t i) { admitHead(i, now); });
}

void
InputBufferSwitch::admitHead(std::size_t i, Cycle now)
{
    const RouteDecision *route = decodeHead(i, now);
    if (route == nullptr)
        return;
    InputState &input = inputs_[i];
    InputFifo &fifo = fifos_[i];
    const PacketPtr &pkt = fifo.packets.front().pkt;
    MDW_ASSERT(pkt->totalFlits() <= ibParams_.bufferFlits,
               "packet %llu (%d flits) exceeds input buffer "
               "(%d flits)",
               static_cast<unsigned long long>(pkt->id),
               pkt->totalFlits(), ibParams_.bufferFlits);
    admitted_.set(i);
    input.released = 0;
    input.upPending = false;
    input.branches.clear();
    // A worm with no routable destination stays branchless:
    // release() drains it at arrival speed.
    if (route->branchCount() > 0) {
        // One lane choice per worm, applied to every replication
        // branch: a multidestination worm must hold the same lane
        // class on all of its output branches, or a branch on a
        // bulk lane could stall the whole worm behind bulk
        // traffic and defeat the class isolation.
        fifo.outLane = allocLane(*pkt, now, [&](int lane) {
            return laneCost(*route, lane);
        });
        input.branches.reserve(route->downBranches.size() + 1);
        for (const auto &[port, sub] : route->downBranches)
            input.branches.push_back(
                Branch{port, pruneBranch(pkt, sub), 0, false});
        if (route->needsUp()) {
            if (params_.upPolicy == UpPortPolicy::Deterministic) {
                const PortId up =
                    chooseUpPort(*route, *pkt, fifo.outLane, nullptr);
                input.branches.push_back(
                    Branch{up, pruneBranch(pkt, route->upDests), 0,
                           false});
            } else {
                input.upPending = true;
                input.upCandidates = route->upCandidates;
                input.upDests = route->upDests;
            }
        }
        noteRouted(*pkt, route->branchCount(), now);
    }
    input.ungranted = static_cast<int>(input.branches.size());
    fifo.route.reset();
}

void
InputBufferSwitch::collectRequests()
{
    for (const int o : requested_)
        requests_[static_cast<std::size_t>(o)].clear();
    requested_.clear();
    // Busy outputs stay busy for the whole arbitration (an output is
    // bound only when its own turn comes), so filtering them here is
    // the same as skipping them at their turn.
    const auto freeOutput = [this](PortId port, int lane) {
        const auto p = static_cast<std::size_t>(port);
        return !outputs_[laneIdx(p, lane)].busy() &&
               outs_[p].connected();
    };
    const auto add = [this](std::size_t o, int input, int branch) {
        std::vector<Request> &list = requests_[o];
        if (list.empty())
            requested_.push_back(static_cast<int>(o));
        list.push_back(Request{input, branch});
    };
    admitted_.forEach([&](std::size_t i) {
        const InputState &input = inputs_[i];
        if (input.ungranted == 0 && !input.upPending)
            return;
        // An input requests only the outputs on its worm's lane.
        const int lane = fifos_[i].outLane;
        const int in = static_cast<int>(i);
        for (std::size_t b = 0; b < input.branches.size(); ++b) {
            const Branch &branch = input.branches[b];
            if (branch.granted || branch.done() ||
                !freeOutput(branch.port, lane))
                continue;
            const std::size_t o =
                laneIdx(static_cast<std::size_t>(branch.port), lane);
            // The last ungranted branch on a port stands for the input.
            std::vector<Request> &list = requests_[o];
            if (!list.empty() && list.back().input == in)
                list.back().branch = static_cast<int>(b);
            else
                add(o, in, static_cast<int>(b));
        }
        if (!input.upPending)
            return;
        for (PortId cand : input.upCandidates) {
            if (!freeOutput(cand, lane))
                continue;
            const std::size_t o =
                laneIdx(static_cast<std::size_t>(cand), lane);
            // A concrete branch on the same port wins over the up
            // request (and a repeated candidate requests once).
            const std::vector<Request> &list = requests_[o];
            if (list.empty() || list.back().input != in)
                add(o, in, kUpRequest);
        }
    });
    std::sort(requested_.begin(), requested_.end());
}

void
InputBufferSwitch::arbitrate()
{
    // Outputs are served in ascending (port, lane) order; only those
    // with requesters can grant anything.
    collectRequests();
    for (const int out : requested_) {
        const auto o = static_cast<std::size_t>(out);
        const std::vector<Request> &list = requests_[o];
        candidates_.clear();
        for (const Request &req : list) {
            // An up request already won at an earlier output this
            // cycle has been withdrawn.
            if (req.branch != kUpRequest ||
                inputs_[static_cast<std::size_t>(req.input)].upPending)
                candidates_.push_back(req.input);
        }
        const int winner = outputArb_[o].grant(candidates_);
        if (winner < 0)
            continue;
        const auto in = static_cast<std::size_t>(winner);
        InputState &input = inputs_[in];
        const auto won =
            std::find_if(list.begin(), list.end(),
                         [winner](const Request &req) {
                             return req.input == winner;
                         });
        int branch_idx = won->branch;
        if (branch_idx == kUpRequest) {
            // Adaptive up request: materialize the up branch here.
            const PacketPtr &pkt = fifos_[in].packets.front().pkt;
            const auto port = static_cast<PortId>(
                o / static_cast<std::size_t>(lanes()));
            input.branches.push_back(
                Branch{port, pruneBranch(pkt, input.upDests), 0, true});
            input.upPending = false;
            branch_idx = static_cast<int>(input.branches.size()) - 1;
        } else {
            input.branches[static_cast<std::size_t>(branch_idx)]
                .granted = true;
            --input.ungranted;
        }
        bindOutput(o, winner, branch_idx);
    }
}

void
InputBufferSwitch::transmit(Cycle now)
{
    // Latency-class lanes are served first, rotating within each
    // class partition (see laneOrder); with one lane this is lane 0
    // every cycle (the pre-lane iteration order).
    forEachPortLane(bound_, now, [&](std::size_t port, int lane) {
        const std::size_t o = laneIdx(port, lane);
        const OutputState &output = outputs_[o];
        const auto in = static_cast<std::size_t>(output.boundInput);
        Branch &branch = inputs_[in].branches[static_cast<std::size_t>(
            output.boundBranch)];
        const PacketRecord &rec = fifos_[in].packets.front();
        MDW_ASSERT(rec.pkt->id == branch.pkt->id,
                   "output %zu bound to a non-head packet", port);

        if (branch.sent >= rec.arrived)
            return; // flit not yet in the buffer
        // A failed port swallows the flit at wire speed so the
        // buffer slot recycles and sibling branches keep going.
        if (!sendFlit(port, lane, branch.pkt, branch.sent, now))
            return;
        ++branch.sent;
        if (branch.done())
            unbindOutput(o);
    });
}

void
InputBufferSwitch::arbitrateSync()
{
    // All-or-nothing acquisition (no hold-and-wait): an input gets
    // every output (port, lane) slot its head packet needs in one
    // shot, or none. Every waiting input tries once per cycle, in
    // round-robin order for fairness.
    candidates_.clear();
    admitted_.forEach([&](std::size_t i) {
        const InputState &input = inputs_[i];
        if (input.upPending || input.ungranted > 0)
            candidates_.push_back(static_cast<int>(i));
    });

    while (!candidates_.empty()) {
        // Every grant rotates the arbiter, committed or not.
        const int i = syncArb_.grant(candidates_);
        candidates_.erase(
            std::find(candidates_.begin(), candidates_.end(), i));
        InputState &input = inputs_[static_cast<std::size_t>(i)];
        const int lane = fifos_[static_cast<std::size_t>(i)].outLane;
        const auto busy = [&](PortId port) {
            return outputs_[laneIdx(static_cast<std::size_t>(port), lane)]
                .busy();
        };

        // The full port set is the ungranted branches plus, if
        // unresolved, one free up candidate — all on the worm's lane.
        PortId up_choice = kInvalidPort;
        if (input.upPending) {
            for (PortId cand : input.upCandidates) {
                if (!busy(cand)) {
                    up_choice = cand;
                    break;
                }
            }
            if (up_choice == kInvalidPort)
                continue; // no free up port: acquire nothing
        }
        const bool all_free = std::none_of(
            input.branches.begin(), input.branches.end(),
            [&](const Branch &branch) {
                return !branch.granted && busy(branch.port);
            });
        if (!all_free)
            continue;

        // Commit: bind every port.
        if (up_choice != kInvalidPort) {
            const PacketPtr &pkt =
                fifos_[static_cast<std::size_t>(i)].packets.front().pkt;
            input.branches.push_back(Branch{
                up_choice, pruneBranch(pkt, input.upDests), 0, false});
            input.upPending = false;
        }
        for (std::size_t b = 0; b < input.branches.size(); ++b) {
            Branch &branch = input.branches[b];
            if (branch.granted)
                continue;
            branch.granted = true;
            bindOutput(laneIdx(static_cast<std::size_t>(branch.port), lane),
                       i, static_cast<int>(b));
        }
        input.ungranted = 0;
    }
}

void
InputBufferSwitch::transmitSync(Cycle now)
{
    admitted_.forEach([&](std::size_t i) {
        if (!fullyGranted(i))
            return;
        InputState &input = inputs_[i];
        const PacketRecord &rec = fifos_[i].packets.front();
        const int lane = fifos_[i].outLane;
        const int sent = input.branches.front().sent;
        if (sent >= rec.arrived)
            return;
        if (sent >= rec.pkt->totalFlits())
            return;

        // Lock-step: the flit moves only if EVERY branch can take it
        // this cycle (the synchronous-replication feedback).
        bool all_can = true;
        for (const Branch &branch : input.branches) {
            MDW_ASSERT(branch.sent == sent,
                       "synchronous branches diverged (%d vs %d)",
                       branch.sent, sent);
            OutPort &port =
                outs_[static_cast<std::size_t>(branch.port)];
            if (port.failed)
                continue; // tombstone sink always accepts
            if (port.credits[static_cast<std::size_t>(lane)] < 1 ||
                port.out->busy(now) || portThrottled(port, now) ||
                (sent == 0 &&
                 !canStartPacket(port, lane, *branch.pkt))) {
                all_can = false;
                break;
            }
        }
        if (!all_can) {
            if (sent == 0) {
                stats_.reservationStallCycles.inc();
                traceWorm(WormEvent::ReserveStall, now, *rec.pkt);
            }
            return;
        }

        bool done = false;
        for (Branch &branch : input.branches) {
            OutPort &port =
                outs_[static_cast<std::size_t>(branch.port)];
            if (port.failed) {
                ++branch.sent;
                noteTombstone();
                done = branch.done();
                continue;
            }
            pushFlit(static_cast<std::size_t>(branch.port), lane,
                     branch.pkt, branch.sent, now);
            ++branch.sent;
            done = branch.done();
        }
        if (sim_)
            sim_->noteProgress();
        if (done) {
            traceWorm(WormEvent::TailDrain, now, *rec.pkt);
            for (const Branch &branch : input.branches)
                unbindOutput(
                    laneIdx(static_cast<std::size_t>(branch.port), lane));
        }
    });
}

void
InputBufferSwitch::release(Cycle now)
{
    admitted_.forEach([&](std::size_t i) {
        InputState &input = inputs_[i];
        const PacketRecord &rec = fifos_[i].packets.front();
        const int total = rec.pkt->totalFlits();

        int min_sent = total;
        if (input.upPending)
            min_sent = 0;
        else if (input.branches.empty())
            min_sent = rec.arrived; // tombstoned head: drain on arrival
        for (const Branch &branch : input.branches)
            min_sent = std::min(min_sent, branch.sent);

        if (min_sent > input.released) {
            returnCredits(i, min_sent - input.released, now);
            input.released = min_sent;
        }

        if (input.released == total) {
            MDW_ASSERT(rec.arrived == total,
                       "released more flits than arrived");
            popHead(i);
            admitted_.reset(i);
            input.branches.clear();
            input.upPending = false;
            input.ungranted = 0;
            input.released = 0;
        }
    });
}

void
InputBufferSwitch::attachTelemetry(Telemetry &telemetry)
{
    SwitchBase::attachTelemetry(telemetry);
    MetricsRegistry &reg = telemetry.registry();
    const std::string prefix =
        "switch." + std::to_string(id_) + ".";
    reg.registerIntGauge(prefix + "arb.output_grants", [this] {
        std::uint64_t total = 0;
        for (const RoundRobinArbiter &arb : outputArb_)
            total += arb.totalGrants();
        return total;
    });
    reg.registerIntGauge(prefix + "arb.sync_grants",
                         [this] { return syncArb_.totalGrants(); });
}

bool
InputBufferSwitch::quiescent(std::string *why) const
{
    if (!SwitchBase::quiescent(why))
        return false;
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        if (outputs_[o].busy()) {
            if (why)
                *why += name() + ": output " + std::to_string(o) +
                        " still bound to a branch; ";
            return false;
        }
    }
    return true;
}

} // namespace mdw
