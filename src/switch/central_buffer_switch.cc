#include "switch/central_buffer_switch.hh"

#include <algorithm>

#include "sim/system.hh"

namespace mdw {

CentralBufferSwitch::CentralBufferSwitch(std::string name, SwitchId id,
                                         const SwitchRouting *routing,
                                         const SwitchParams &params,
                                         const CbParams &cbParams)
    : SwitchBase(std::move(name), id, routing, params,
                 cbParams.inputFifoFlits),
      cbParams_(cbParams),
      cq_(CqParams{cbParams.cqChunks, cbParams.chunkFlits,
                   routing->radix(),
                   cbParams.maxPacketFlits > 0
                       ? (cbParams.maxPacketFlits +
                          cbParams.chunkFlits - 1) /
                             cbParams.chunkFlits
                       : 0}),
      deciding_(fifos_.size()), cqInput_(fifos_.size()),
      bypass_(fifos_.size()), stream_(fifos_.size()),
      queued_(fifos_.size())
{
    MDW_ASSERT(cbParams_.outputFifoFlits >= cbParams_.chunkFlits,
               "output FIFO must hold at least one chunk");
    const auto radix = static_cast<std::size_t>(routing->radix());
    const auto slots = radix * static_cast<std::size_t>(lanes());
    inputs_.resize(slots);
    outputs_.resize(slots);
    writeArb_.resize(static_cast<int>(slots));
    readArb_.resize(static_cast<int>(slots));
    for (std::size_t i = 0; i < slots; ++i)
        deciding_.set(i);
}

void
CentralBufferSwitch::setInputMode(std::size_t i, InMode mode)
{
    inputs_[i].mode = mode;
    if (mode == InMode::Deciding)
        deciding_.set(i);
    else
        deciding_.reset(i);
    if (mode == InMode::CentralQueue)
        cqInput_.set(i);
    else
        cqInput_.reset(i);
}

void
CentralBufferSwitch::setOutputMode(std::size_t o, OutputState::Mode mode)
{
    outputs_[o].mode = mode;
    if (mode == OutputState::Mode::Bypass)
        bypass_.set(o);
    else
        bypass_.reset(o);
    if (mode == OutputState::Mode::Stream)
        stream_.set(o);
    else
        stream_.reset(o);
}

void
CentralBufferSwitch::enqueue(std::size_t o, QueueItem item)
{
    outputs_[o].queue.push_back(std::move(item));
    queued_.set(o);
}

int
CentralBufferSwitch::outputBacklog(PortId port, int lane) const
{
    const auto &output =
        outputs_.at(laneIdx(static_cast<std::size_t>(port), lane));
    int backlog = static_cast<int>(output.queue.size());
    if (!output.idle())
        ++backlog;
    return backlog;
}

int
CentralBufferSwitch::laneCost(const RouteDecision &route, int lane) const
{
    // Streams the new worm would queue behind on this lane, summed
    // over the outputs it must acquire.
    int cost = 0;
    for (const auto &[port, sub] : route.downBranches) {
        (void)sub;
        cost += outputBacklog(port, lane);
    }
    if (route.needsUp()) {
        int best = -1;
        for (PortId cand : route.upCandidates) {
            const int backlog = outputBacklog(cand, lane);
            if (best < 0 || backlog < best)
                best = backlog;
        }
        if (best > 0)
            cost += best;
    }
    return cost;
}

void
CentralBufferSwitch::setBarrierHooks(MakePacket makePacket,
                                     ReleaseFactory releaseFactory)
{
    makePacket_ = std::move(makePacket);
    releaseFactory_ = std::move(releaseFactory);
}

void
CentralBufferSwitch::configureBarrier(int group,
                                      BarrierSwitchEntry entry)
{
    MDW_ASSERT(makePacket_ != nullptr,
               "setBarrierHooks must precede configureBarrier");
    barrier_.configure(group, std::move(entry));
}

void
CentralBufferSwitch::step(Cycle now)
{
    collectCredits(now);
    intake(now);
    if (poisoned_) {
        // Fault paths, inert (never entered) without fault injection.
        fabricateFailedArrivals();
        drainTombstones(now);
    }
    decide(now);
    processBarrierEmissions(now);
    bypassTransmit(now);
    cqWrite(now);
    activateStreams();
    cqRead(now);
    streamTransmit(now);
    cqOcc_.update(static_cast<double>(cq_.usedChunks()), now);
    sampleFifoOccupancy(now);
}

Cycle
CentralBufferSwitch::nextWork(Cycle now)
{
    // Any buffered state keeps the switch ticking: input FIFOs,
    // per-output bypass/stream machinery (a staged output flit implies
    // Stream mode), queued streams, pending barrier releases, or
    // central-queue residency. (CQ residency also pins cqOcc_: the
    // time average may only coast while its sampled value is exactly
    // zero.)
    const bool busy = !fifosEmpty() || bypass_.any() || stream_.any() ||
                      queued_.any() || !barrierEmissions_.empty() ||
                      cq_.entryCount() != 0 || cq_.usedChunks() != 0;
    return busy ? now + 1 : earliestLinkArrival();
}

void
CentralBufferSwitch::dumpState(FILE *out) const
{
    std::fprintf(out, "%s: cq used=%d/%d entries=%zu (%d lanes)\n",
                 name().c_str(), cq_.usedChunks(), cq_.capacityChunks(),
                 cq_.entryCount(), lanes());
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        const InputState &in = inputs_[i];
        const InputFifo &fifo = fifos_[i];
        if (fifo.packets.empty())
            continue;
        const PacketRecord &rec = fifo.packets.front();
        std::fprintf(out,
                     "  in%zu.%zu mode=%d pkts=%zu head=%s arrived=%d "
                     "consumed=%d outLane=%d entry=%d free=%d\n",
                     i / static_cast<std::size_t>(lanes()),
                     i % static_cast<std::size_t>(lanes()),
                     static_cast<int>(in.mode), fifo.packets.size(),
                     rec.pkt->toString().c_str(), rec.arrived,
                     in.consumed, fifo.outLane, in.entry,
                     fifo.freeSlots);
    }
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        const OutputState &out_state = outputs_[o];
        if (out_state.idle() && out_state.queue.empty())
            continue;
        const std::size_t port = o / static_cast<std::size_t>(lanes());
        const std::size_t lane = o % static_cast<std::size_t>(lanes());
        std::fprintf(out,
                     "  out%zu.%zu mode=%d queue=%zu fifo=%d read=%d "
                     "sent=%d credits=%d cur=%s\n",
                     port, lane, static_cast<int>(out_state.mode),
                     out_state.queue.size(), out_state.fifoFlits,
                     out_state.readSeq, out_state.sentSeq,
                     outs_[port].credits[lane],
                     out_state.current.branchPkt
                         ? out_state.current.branchPkt->toString().c_str()
                         : "-");
    }
}

bool
CentralBufferSwitch::quiescent(std::string *why) const
{
    bool ok = SwitchBase::quiescent(why);
    auto complain = [&](const std::string &what) {
        if (why)
            *why += name() + ": " + what + "; ";
        ok = false;
    };
    if (cq_.entryCount() != 0)
        complain("central queue holds " +
                 std::to_string(cq_.entryCount()) + " entries");
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        const OutputState &out = outputs_[o];
        if (!out.idle() || !out.queue.empty() || out.fifoFlits != 0)
            complain("output " + std::to_string(o) +
                     " still streaming");
    }
    return ok;
}

void
CentralBufferSwitch::drainTombstones(Cycle now)
{
    occupied_.forEach([&](std::size_t i) {
        InputState &input = inputs_[i];
        if (input.mode != InMode::Tombstone)
            return;
        const PacketRecord &rec = fifos_[i].packets.front();
        const int staged = rec.arrived - input.consumed;
        const int n = std::min(staged, cbParams_.chunkFlits);
        if (n <= 0)
            return;
        input.consumed += n;
        returnCredits(i, n, now);
        stats_.tombstonedFlits.inc(static_cast<std::uint64_t>(n));
        if (sim_)
            sim_->noteProgress();
        if (input.consumed == rec.pkt->totalFlits())
            finishHeadPacket(i);
    });
}

void
CentralBufferSwitch::attachTelemetry(Telemetry &telemetry)
{
    SwitchBase::attachTelemetry(telemetry);
    MetricsRegistry &reg = telemetry.registry();
    const std::string prefix =
        "switch." + std::to_string(id_) + ".";
    reg.registerTimeAverage(prefix + "cq.occupancy_chunks", &cqOcc_,
                            [this] {
                                return sim_ ? sim_->now() : Cycle{0};
                            });
    reg.registerIntGauge(prefix + "cq.capacity_chunks", [this] {
        return static_cast<std::uint64_t>(cq_.capacityChunks());
    });
    reg.registerCounter(prefix + "barrier.tokens_combined",
                        &barrierTokens_);
    reg.registerIntGauge(prefix + "arb.write_grants",
                         [this] { return writeArb_.totalGrants(); });
    reg.registerIntGauge(prefix + "arb.read_grants",
                         [this] { return readArb_.totalGrants(); });
}

void
CentralBufferSwitch::decide(Cycle now)
{
    occupied_.forEachAnd(deciding_, [&](std::size_t i) {
        InputFifo &fifo = fifos_[i];
        const PacketRecord &rec = fifo.packets.front();
        if (rec.pkt->kind == PacketKind::BarrierArrive) {
            // Combined by the barrier unit, never routed. Absorb the
            // token once it has fully arrived.
            if (rec.arrived == rec.pkt->totalFlits())
                consumeBarrierToken(i, now);
            return;
        }

        const RouteDecision *route = decodeHead(i, now);
        if (route == nullptr)
            return;
        if (route->branchCount() == 0) {
            // No routable destination left: swallow the worm here.
            setInputMode(i, InMode::Tombstone);
            inputs_[i].consumed = 0;
        } else if (rec.pkt->kind == PacketKind::HwMulticast) {
            decideMulticast(i, *route, now);
        } else {
            decideUnicast(i, *route, now);
        }
        // A head waiting for its chunk reservation keeps the route.
        if (inputs_[i].mode != InMode::Deciding)
            fifo.route.reset();
    });
}

void
CentralBufferSwitch::consumeBarrierToken(std::size_t i, Cycle now)
{
    const std::size_t port = i / static_cast<std::size_t>(lanes());
    const PacketRecord rec = fifos_[i].packets.front();
    popHead(i);
    returnCredits(i, rec.pkt->totalFlits(), now);
    barrierTokens_.inc();
    if (sim_)
        sim_->noteProgress();

    const BarrierUnit::Emit emit = barrier_.onArrive(
        rec.pkt->barrierGroup, static_cast<PortId>(port));
    if (emit.group >= 0)
        barrierEmissions_.push_back(emit);
}

void
CentralBufferSwitch::processBarrierEmissions(Cycle now)
{
    while (!barrierEmissions_.empty()) {
        const BarrierUnit::Emit &emit = barrierEmissions_.front();
        if (emit.release) {
            // Originate the release multidestination worm. The root
            // stage down-reaches every member, so this is an ordinary
            // down-phase reservation.
            PacketDesc desc = releaseFactory_(emit.group);
            if (!cq_.canReserve(desc.totalFlits())) {
                stats_.reservationStallCycles.inc();
                return; // retry next cycle, in order
            }
            const RouteDecision route =
                routing_->decode(desc.dests, params_.variant);
            MDW_ASSERT(!route.needsUp(),
                       "barrier release not fully down-reachable "
                       "from the combining root");
            const PacketPtr pkt = makePacket_(std::move(desc));
            const auto entry = cq_.addReserved(
                pkt, static_cast<int>(route.downBranches.size()));
            cq_.write(entry, pkt->totalFlits());
            noteRouted(*pkt, route.downBranches.size(), now);
            int reader = 0;
            // Barrier releases ride lane 0: they are serial control
            // traffic, and pinning them keeps the combining tree
            // independent of the lane configuration.
            for (const auto &[port, sub] : route.downBranches) {
                enqueue(laneIdx(static_cast<std::size_t>(port), 0),
                        QueueItem{entry, reader++, pruneBranch(pkt, sub)});
            }
        } else {
            // Forward one combined token toward the tree parent; it
            // occupies one chunk, claimed before the entry exists so
            // a full queue just defers the emission.
            if (cq_.freeChunks() < 1) {
                stats_.reservationStallCycles.inc();
                return; // retry next cycle, in order
            }
            PacketDesc desc;
            desc.src = kInvalidNode;
            desc.dests = DestSet(routing_->allDownReach().size());
            desc.kind = PacketKind::BarrierArrive;
            desc.headerFlits = 2;
            desc.payloadFlits = 0;
            desc.barrierGroup = emit.group;
            const PacketPtr pkt = makePacket_(std::move(desc));
            const auto entry = cq_.addUnreserved(pkt, 1);
            cq_.write(entry, pkt->totalFlits());
            enqueue(laneIdx(static_cast<std::size_t>(emit.upPort), 0),
                    QueueItem{entry, 0, pkt});
        }
        barrierEmissions_.pop_front();
        if (sim_)
            sim_->noteProgress();
    }
}

void
CentralBufferSwitch::decideUnicast(std::size_t i,
                                   const RouteDecision &route,
                                   Cycle now)
{
    InputState &input = inputs_[i];
    const PacketPtr &pkt = fifos_[i].packets.front().pkt;

    const int lane =
        allocLane(*pkt, now, [&](int l) { return laneCost(route, l); });
    fifos_[i].outLane = lane;
    PortId target = kInvalidPort;
    PacketPtr branch_pkt;
    if (route.needsUp()) {
        // Prefer an up port we could bypass through right now.
        target = chooseUpPort(route, *pkt, lane, [this, lane](PortId p) {
            const OutputState &out =
                outputs_[laneIdx(static_cast<std::size_t>(p), lane)];
            return out.idle() && out.queue.empty();
        });
        branch_pkt = pkt;
    } else {
        MDW_ASSERT(route.downBranches.size() == 1,
                   "unicast decoded to %zu down branches",
                   route.downBranches.size());
        target = route.downBranches.front().first;
        branch_pkt = pruneBranch(pkt, route.downBranches.front().second);
    }

    const std::size_t o = laneIdx(static_cast<std::size_t>(target), lane);
    OutputState &output = outputs_[o];
    noteRouted(*pkt, 1, now);
    input.consumed = 0;
    if (output.idle() && output.queue.empty()) {
        // Claim the bypass crossbar path.
        setOutputMode(o, OutputState::Mode::Bypass);
        output.bypassInput = static_cast<int>(i);
        output.sentSeq = 0;
        setInputMode(i, InMode::Bypass);
        input.bypassPkt = std::move(branch_pkt);
    } else {
        input.entry = cq_.addUnreserved(pkt, 1);
        setInputMode(i, InMode::CentralQueue);
        enqueue(o, QueueItem{input.entry, 0, std::move(branch_pkt)});
    }
}

void
CentralBufferSwitch::decideMulticast(std::size_t i,
                                     const RouteDecision &route,
                                     Cycle now)
{
    InputState &input = inputs_[i];
    const PacketPtr &pkt = fifos_[i].packets.front().pkt;

    // Whole-packet chunk reservation is the acceptance condition: the
    // head waits at the FIFO head (stalling this input) until the
    // central queue can guarantee storage for the entire worm.
    if (!cq_.canReserve(pkt->totalFlits(), route.needsUp())) {
        stats_.reservationStallCycles.inc();
        traceWorm(WormEvent::ReserveStall, now, *pkt,
                  static_cast<std::int32_t>(i));
        return;
    }

    // One lane for the whole worm, decided before the branch list:
    // every replication branch must queue on the same lane class, or
    // a branch on a bulk lane could stall the shared central-queue
    // entry behind bulk traffic and defeat the class isolation.
    const int lane =
        allocLane(*pkt, now, [&](int l) { return laneCost(route, l); });
    fifos_[i].outLane = lane;

    // Materialize branch list: down branches plus at most one up port
    // (adaptive choice prefers the least-backlogged candidate).
    std::vector<std::pair<PortId, PacketPtr>> branches;
    branches.reserve(route.downBranches.size() + 1);
    for (const auto &[port, sub] : route.downBranches)
        branches.emplace_back(port, pruneBranch(pkt, sub));
    if (route.needsUp()) {
        PortId best = chooseUpPort(route, *pkt, lane, [this, lane](PortId p) {
            return outputBacklog(p, lane) == 0;
        });
        if (params_.upPolicy == UpPortPolicy::Adaptive) {
            // Refine: among candidates pick minimum backlog.
            int best_cost = outputBacklog(best, lane);
            for (PortId cand : route.upCandidates) {
                const int cost = outputBacklog(cand, lane);
                if (cost < best_cost) {
                    best_cost = cost;
                    best = cand;
                }
            }
        }
        branches.emplace_back(best, pruneBranch(pkt, route.upDests));
    }
    MDW_ASSERT(!branches.empty(), "multicast decoded to no branches");

    input.entry =
        cq_.addReserved(pkt, static_cast<int>(branches.size()));
    setInputMode(i, InMode::CentralQueue);
    input.consumed = 0;
    noteRouted(*pkt, branches.size(), now);
    for (std::size_t b = 0; b < branches.size(); ++b) {
        enqueue(laneIdx(static_cast<std::size_t>(branches[b].first), lane),
                QueueItem{input.entry, static_cast<int>(b),
                          std::move(branches[b].second)});
    }
}

void
CentralBufferSwitch::bypassTransmit(Cycle now)
{
    // Latency-class lanes are served first, rotating within each
    // class partition (see laneOrder); with one lane this is lane 0
    // every cycle (the pre-lane iteration order).
    forEachPortLane(bypass_, now, [&](std::size_t p, int lane) {
        const std::size_t o = laneIdx(p, lane);
        OutputState &output = outputs_[o];
        const auto in = static_cast<std::size_t>(output.bypassInput);
        InputState &input = inputs_[in];
        if (input.consumed >= fifos_[in].packets.front().arrived)
            return;
        if (!sendFlit(p, lane, input.bypassPkt, output.sentSeq, now))
            return;
        ++output.sentSeq;
        ++input.consumed;
        returnCredits(in, 1, now);
        if (output.sentSeq == input.bypassPkt->totalFlits()) {
            setOutputMode(o, OutputState::Mode::Idle);
            output.bypassInput = -1;
            output.sentSeq = 0;
            finishHeadPacket(in);
        }
    });
}

void
CentralBufferSwitch::cqWrite(Cycle now)
{
    // One chunk write per cycle: round-robin over inputs that have a
    // full chunk staged (or the complete tail) to keep chunks packed.
    eligible_.clear();
    cqInput_.forEach([&](std::size_t i) {
        const InputState &input = inputs_[i];
        const PacketRecord &rec = fifos_[i].packets.front();
        const int staged = rec.arrived - input.consumed;
        if (staged <= 0)
            return;
        const bool tail_in = rec.arrived == rec.pkt->totalFlits();
        if (staged < cbParams_.chunkFlits && !tail_in)
            return;
        if (cq_.writable(input.entry) <= 0)
            return; // central queue full (unicast path only)
        // Note: no write throttling while reservations wait — holding
        // back a unicast that is already at the head of an output
        // queue would block the very readers whose recycled chunks
        // the waiting worm needs; the up-phase headroom partition is
        // what guarantees forward progress.
        eligible_.push_back(static_cast<int>(i));
    });
    const int winner = writeArb_.grant(eligible_);
    if (winner < 0)
        return;

    const auto in = static_cast<std::size_t>(winner);
    InputState &input = inputs_[in];
    const PacketRecord &rec = fifos_[in].packets.front();
    const int staged = rec.arrived - input.consumed;
    const int n = std::min({staged, cbParams_.chunkFlits,
                            cq_.writable(input.entry)});
    MDW_ASSERT(n > 0, "eligible input with nothing to write");
    cq_.write(input.entry, n);
    input.consumed += n;
    returnCredits(in, n, now);
    if (sim_)
        sim_->noteProgress();

    if (input.consumed == rec.pkt->totalFlits())
        finishHeadPacket(in);
}

void
CentralBufferSwitch::finishHeadPacket(std::size_t i)
{
    // The head packet has fully left the input FIFO; the input is
    // free to decode the next packet even while the central queue
    // still drains the previous one.
    popHead(i);
    fifos_[i].outLane = 0;
    InputState &input = inputs_[i];
    setInputMode(i, InMode::Deciding);
    input.consumed = 0;
    input.bypassPkt = nullptr;
    input.entry = CentralQueue::kNoEntry;
}

void
CentralBufferSwitch::activateStreams()
{
    queued_.forEach([&](std::size_t o) {
        OutputState &output = outputs_[o];
        if (!output.idle())
            return;
        output.current = std::move(output.queue.front());
        output.queue.pop_front();
        if (output.queue.empty())
            queued_.reset(o);
        setOutputMode(o, OutputState::Mode::Stream);
        output.fifoFlits = 0;
        output.readSeq = 0;
        output.sentSeq = 0;
        // The current stream may trickle through the escape
        // chunk when the shared pool is exhausted.
        if (cq_.alive(output.current.entry))
            cq_.grantEscape(output.current.entry);
    });
}

void
CentralBufferSwitch::cqRead(Cycle now)
{
    (void)now;
    // One chunk read per cycle: round-robin over streaming outputs
    // whose staging FIFO can take a chunk.
    eligible_.clear();
    stream_.forEach([&](std::size_t o) {
        const OutputState &output = outputs_[o];
        if (output.readSeq >= output.current.branchPkt->totalFlits())
            return; // fully fetched; entry may already be recycled
        const int space = cbParams_.outputFifoFlits - output.fifoFlits;
        if (space < cbParams_.chunkFlits)
            return;
        if (cq_.readable(output.current.entry, output.current.reader) <=
            0)
            return;
        eligible_.push_back(static_cast<int>(o));
    });
    const int winner = readArb_.grant(eligible_);
    if (winner < 0)
        return;
    OutputState &output = outputs_[static_cast<std::size_t>(winner)];
    const int n = cq_.read(output.current.entry, output.current.reader,
                           cbParams_.chunkFlits);
    MDW_ASSERT(n > 0, "eligible output read nothing");
    output.fifoFlits += n;
    output.readSeq += n;
    if (sim_)
        sim_->noteProgress();
}

void
CentralBufferSwitch::streamTransmit(Cycle now)
{
    // Same lane service order as bypassTransmit (lane 0 at L=1).
    forEachPortLane(stream_, now, [&](std::size_t p, int lane) {
        const std::size_t o = laneIdx(p, lane);
        OutputState &output = outputs_[o];
        if (output.fifoFlits <= 0)
            return;
        // A failed port still consumes at wire speed, so the
        // central queue's reader advances and chunks recycle.
        const PacketPtr &pkt = output.current.branchPkt;
        if (!sendFlit(p, lane, pkt, output.sentSeq, now))
            return;
        ++output.sentSeq;
        --output.fifoFlits;
        if (output.sentSeq == pkt->totalFlits()) {
            setOutputMode(o, OutputState::Mode::Idle);
            output.fifoFlits = 0;
            output.readSeq = 0;
            output.sentSeq = 0;
            output.current = QueueItem{};
        }
    });
}

} // namespace mdw
