#include "switch/switch_base.hh"

#include <algorithm>
#include <functional>

#include "sim/system.hh"

namespace mdw {

const char *
toString(ReplicationMode mode)
{
    switch (mode) {
      case ReplicationMode::Asynchronous:
        return "asynchronous";
      case ReplicationMode::Synchronous:
        return "synchronous";
    }
    return "?";
}

SwitchBase::SwitchBase(std::string name, SwitchId id,
                       const SwitchRouting *routing,
                       const SwitchParams &params, int fifoFlits)
    : Component(std::move(name)), id_(id), routing_(routing),
      params_(params),
      ins_(static_cast<std::size_t>(routing->radix())),
      outs_(static_cast<std::size_t>(routing->radix())),
      fifoFlits_(fifoFlits),
      fifos_(static_cast<std::size_t>(routing->radix()) *
             static_cast<std::size_t>(params.lanes)),
      occupied_(fifos_.size()),
      portTx_(static_cast<std::size_t>(routing->radix())),
      laneTx_(static_cast<std::size_t>(routing->radix()) *
              static_cast<std::size_t>(params.lanes)),
      rng_(Rng(params.seed).fork(static_cast<std::uint64_t>(id) + 17)),
      inReady_(ins_.size()), creditReady_(outs_.size())
{
    MDW_ASSERT(routing != nullptr, "switch %d without routing", id);
    MDW_ASSERT(params.lanes >= 1 && params.lanes <= kMaxLanes,
               "switch %d with %d lanes", id, params.lanes);
    MDW_ASSERT(fifoFlits > 0, "switch %d input FIFO must be > 0", id);
    for (InputFifo &fifo : fifos_)
        fifo.freeSlots = fifoFlits;
}

void
SwitchBase::connectIn(PortId port, Channel<Flit> *in,
                      CreditChannel *creditOut)
{
    auto &p = ins_.at(static_cast<std::size_t>(port));
    MDW_ASSERT(!p.connected(), "switch %d input %d connected twice",
               id_, port);
    p.in = in;
    p.creditOut = creditOut;
    // Arriving flits must be able to rouse a sleeping switch, and
    // flag the port for intake.
    in->setWakeSink(this);
    in->setReadyFlag(inReady_.flag(static_cast<std::size_t>(port)));
}

void
SwitchBase::connectOut(PortId port, Channel<Flit> *out,
                       CreditChannel *creditIn,
                       const ReceivePolicy &policy)
{
    auto &p = outs_.at(static_cast<std::size_t>(port));
    MDW_ASSERT(!p.connected(), "switch %d output %d connected twice",
               id_, port);
    p.out = out;
    p.creditIn = creditIn;
    // Every lane gets the receiver's full advertised window: the
    // downstream per-lane buffers are independent, so total buffering
    // scales with the lane count (per the multi-lane MIN model).
    p.credits.assign(static_cast<std::size_t>(params_.lanes),
                     policy.window);
    p.initialCredits = policy.window;
    p.mcastWholePacket = policy.mcastWholePacket;
    // Returning credits must be collected promptly even while idle,
    // or quiescence (credits back home) would stall under the fast
    // path.
    creditIn->setWakeSink(this);
    creditIn->setReadyFlag(
        creditReady_.flag(static_cast<std::size_t>(port)));
}

Cycle
SwitchBase::earliestLinkArrival() const
{
    // Only links with queued items can arrive.
    Cycle next = kNoCycle;
    inReady_.forEach([&](std::size_t p) {
        next = std::min(next, ins_[p].in->nextArrival());
    });
    creditReady_.forEach([&](std::size_t p) {
        next = std::min(next, outs_[p].creditIn->nextArrival());
    });
    return next;
}

void
SwitchBase::setRouting(const SwitchRouting *routing)
{
    MDW_ASSERT(routing != nullptr, "switch %d rerouted to null", id_);
    MDW_ASSERT(routing->radix() == routing_->radix(),
               "switch %d rerouted to a different radix", id_);
    routing_ = routing;
    for (InputFifo &fifo : fifos_)
        fifo.route.reset();
}

void
SwitchBase::failInPort(PortId port)
{
    ins_.at(static_cast<std::size_t>(port)).failed = true;
    // The tombstone/phantom-completion paths run in step(); make sure
    // a sleeping switch notices the state change.
    if (sim_ != nullptr)
        requestWake(sim_->now());
}

void
SwitchBase::failOutPort(PortId port)
{
    outs_.at(static_cast<std::size_t>(port)).failed = true;
    if (sim_ != nullptr)
        requestWake(sim_->now());
}

void
SwitchBase::degradeOutPort(PortId port, int factor)
{
    MDW_ASSERT(factor >= 1, "degrade factor %d < 1", factor);
    outs_.at(static_cast<std::size_t>(port)).degrade = factor;
}

void
SwitchBase::intake(Cycle now)
{
    inReady_.forEach([&](std::size_t i) { intakePort(i, now); });
}

void
SwitchBase::intakePort(std::size_t i, Cycle now)
{
    InPort &port = ins_[i];
    if (!port.in->peek(now))
        return;
    Flit flit = port.in->receive(now);
    if (port.failed) {
        // Dead link: discard whatever still trickles in (the
        // fabrication path completes any cut-off packet instead).
        noteTombstone();
        return;
    }
    MDW_ASSERT(flit.lane >= 0 && flit.lane < lanes(),
               "switch %d input %zu: flit on lane %d of %d", id_, i,
               flit.lane, lanes());
    const std::size_t f = laneIdx(i, flit.lane);
    InputFifo &fifo = fifos_[f];
    MDW_ASSERT(fifo.freeSlots > 0,
               "switch %d input %zu lane %d: flit arrived with "
               "full FIFO (credit protocol violated)",
               id_, i, flit.lane);
    --fifo.freeSlots;
    ++occupiedFlits_;
    stats_.flitsIn.inc();
    if (flit.isHead()) {
        // Decode needs the whole header resident at once.
        MDW_ASSERT(flit.pkt->headerFlits <= fifoFlits_,
                   "header (%d flits) exceeds the %d-flit input "
                   "FIFO",
                   flit.pkt->headerFlits, fifoFlits_);
        fifo.packets.push_back(PacketRecord{flit.pkt, 1});
        occupied_.set(f);
    } else {
        MDW_ASSERT(!fifo.packets.empty() &&
                       fifo.packets.back().pkt->id == flit.pkt->id,
                   "switch %d input %zu lane %d: interleaved "
                   "packets on one lane",
                   id_, i, flit.lane);
        ++fifo.packets.back().arrived;
    }
    if (sim_)
        sim_->noteProgress();
}

void
SwitchBase::fabricateFailedArrivals()
{
    // A packet caught mid-reception on a now-dead link would hold its
    // FIFO slots (and, behind them, the architecture's buffers and
    // replication state) forever. Materialize the missing flits
    // locally, one per cycle as the wire would have, and poison the
    // id so every NIC discards the mangled delivery end-to-end;
    // retransmission re-covers the destinations.
    occupied_.forEach([&](std::size_t i) {
        if (!ins_[i / static_cast<std::size_t>(lanes())].failed)
            return;
        InputFifo &fifo = fifos_[i];
        PacketRecord &rec = fifo.packets.back();
        if (rec.arrived >= rec.pkt->totalFlits() || fifo.freeSlots <= 0)
            return;
        poisonPacket(*rec.pkt);
        --fifo.freeSlots;
        ++occupiedFlits_;
        ++rec.arrived;
        stats_.flitsIn.inc();
        if (sim_)
            sim_->noteProgress();
    });
}

const RouteDecision *
SwitchBase::decodeHead(std::size_t i, Cycle now)
{
    InputFifo &fifo = fifos_[i];
    if (fifo.route)
        return &*fifo.route;
    if (fifo.packets.empty())
        return nullptr;
    const PacketRecord &rec = fifo.packets.front();
    if (rec.arrived < rec.pkt->headerFlits)
        return nullptr;

    fifo.route = routing_->decode(rec.pkt->dests, params_.variant);
    traceWorm(WormEvent::HeaderDecode, now, *rec.pkt,
              static_cast<std::int32_t>(i));
    const RouteDecision &route = *fifo.route;
    if (!route.unroutable.empty()) {
        // Only a tolerant (post-fault) table drops destinations; an
        // intact network must route them all.
        MDW_ASSERT(poisoned_ != nullptr,
                   "switch %d: unroutable destinations on an intact "
                   "network",
                   id_);
        stats_.unroutableDests.inc(route.unroutable.count());
    }
    if (route.branchCount() == 0) {
        // Every destination lost its path: the architecture swallows
        // the worm and the source's retransmission logic classifies
        // the destinations.
        poisonPacket(*rec.pkt);
        noteRouted(*rec.pkt, 0, now);
    }
    return &route;
}

void
SwitchBase::returnCredits(std::size_t i, int n, Cycle now)
{
    fifos_[i].freeSlots += n;
    occupiedFlits_ -= n;
    const InPort &port = ins_[i / static_cast<std::size_t>(lanes())];
    if (port.creditOut)
        port.creditOut->send(
            n, now, static_cast<int>(i % static_cast<std::size_t>(lanes())));
}

void
SwitchBase::noteRouted(const PacketDesc &pkt, std::size_t copies,
                       Cycle now)
{
    stats_.packetsRouted.inc();
    if (copies > 1) {
        stats_.replications.inc(copies - 1);
        traceWorm(WormEvent::Replicate, now, pkt,
                  static_cast<std::int32_t>(copies - 1));
    }
}

bool
SwitchBase::sendFlit(std::size_t p, int lane, const PacketPtr &pkt,
                     int seq, Cycle now)
{
    OutPort &port = outs_[p];
    if (port.failed) {
        // Tombstone sink: swallow the flit at wire speed so the
        // buffers behind it drain.
        noteTombstone();
        if (sim_)
            sim_->noteProgress();
        return true;
    }
    if (port.credits[static_cast<std::size_t>(lane)] < 1 ||
        portThrottled(port, now))
        return false;
    const bool startRefused = seq == 0 && !canStartPacket(port, lane, *pkt);
    if (port.out->busy(now)) {
        // The physical link already carried another lane's flit this
        // cycle; count the stall only if this lane was otherwise
        // ready.
        if (lanes() > 1 && !startRefused) {
            stats_.laneStallCycles.inc();
            traceWorm(WormEvent::LaneStall, now, *pkt,
                      static_cast<std::int32_t>(p));
        }
        return false;
    }
    if (startRefused) {
        stats_.reservationStallCycles.inc();
        traceWorm(WormEvent::ReserveStall, now, *pkt,
                  static_cast<std::int32_t>(p));
        return false;
    }
    pushFlit(p, lane, pkt, seq, now);
    if (sim_)
        sim_->noteProgress();
    if (seq + 1 == pkt->totalFlits())
        traceWorm(WormEvent::TailDrain, now, *pkt,
                  static_cast<std::int32_t>(p));
    return true;
}

void
SwitchBase::pushFlit(std::size_t p, int lane, const PacketPtr &pkt,
                     int seq, Cycle now)
{
    OutPort &port = outs_[p];
    port.out->send(Flit{pkt, seq, lane}, now);
    --port.credits[static_cast<std::size_t>(lane)];
    stats_.flitsOut.inc();
    portTx_[p].inc();
    laneTx_[laneIdx(p, lane)].inc();
}

void
SwitchBase::sampleFifoOccupancy(Cycle now)
{
    if (lanes() == 1)
        return;
    laneOcc_.update(static_cast<double>(occupiedFlits_), now);
}

int
SwitchBase::inputOccupancy(PortId port) const
{
    int occupied = 0;
    for (int l = 0; l < lanes(); ++l)
        occupied += fifoFlits_ -
                    fifos_.at(laneIdx(static_cast<std::size_t>(port), l))
                        .freeSlots;
    return occupied;
}

bool
SwitchBase::quiescent(std::string *why) const
{
    for (std::size_t i = 0; i < fifos_.size(); ++i) {
        const InputFifo &fifo = fifos_[i];
        if (fifo.packets.empty() && fifo.freeSlots == fifoFlits_)
            continue;
        if (why) {
            *why += name() + ": input " + std::to_string(i) +
                    (fifo.packets.empty()
                         ? " leaked " +
                               std::to_string(fifoFlits_ -
                                              fifo.freeSlots) +
                               " FIFO slots; "
                         : " buffers " +
                               std::to_string(fifo.packets.size()) +
                               " packets; ");
        }
        return false;
    }
    for (std::size_t p = 0; p < outs_.size(); ++p) {
        const OutPort &out = outs_[p];
        if (!out.connected() || out.failed)
            continue;
        for (int l = 0; l < params_.lanes; ++l) {
            const int held =
                out.credits[static_cast<std::size_t>(l)];
            if (held != out.initialCredits) {
                if (why) {
                    *why += "switch " + std::to_string(id_) +
                            " output " + std::to_string(p) + " lane " +
                            std::to_string(l) + " holds " +
                            std::to_string(out.initialCredits - held) +
                            " outstanding credits; ";
                }
                return false;
            }
        }
    }
    return true;
}

std::uint64_t
SwitchBase::portTxFlits(PortId port) const
{
    return portTx_.at(static_cast<std::size_t>(port)).value();
}

bool
SwitchBase::outConnected(PortId port) const
{
    return outs_.at(static_cast<std::size_t>(port)).connected();
}

void
SwitchBase::collectCredits(Cycle now)
{
    creditReady_.forEach([&](std::size_t i) {
        OutPort &p = outs_[i];
        // A failed output's credits are meaningless (the tombstone
        // sink never spends them); discard so the channel drains and
        // the quiescence check sees every credit channel empty.
        if (p.failed)
            (void)p.creditIn->receive(now);
        else
            (void)p.creditIn->receiveByLane(now, p.credits);
    });
}

bool
SwitchBase::canStartPacket(const OutPort &port, int lane,
                           const PacketDesc &pkt) const
{
    if (port.failed)
        return true; // Tombstone sink: accepts anything, instantly.
    const int credits = port.credits[static_cast<std::size_t>(lane)];
    if (port.mcastWholePacket && pkt.kind == PacketKind::HwMulticast)
        return credits >= pkt.totalFlits();
    return credits >= 1;
}

void
SwitchBase::orderLanes(Cycle now)
{
    const int total = params_.lanes;
    // Class 1 owns the upper partition and is served first.
    const int base = laneClassBase(total, 1);
    const int latency = total - base;
    const auto rotate = [now](int k, int size) {
        return static_cast<int>((now + static_cast<Cycle>(k)) %
                                static_cast<Cycle>(size));
    };
    std::size_t slot = 0;
    for (int k = 0; k < latency; ++k)
        laneOrder_[slot++] = base + rotate(k, latency);
    for (int k = 0; k < base; ++k)
        laneOrder_[slot++] = rotate(k, base);
    laneOrderAt_ = now;
}

int
SwitchBase::allocLane(const PacketDesc &pkt, Cycle now,
                      const std::function<int(int)> &laneCost) const
{
    const int base = laneClassBase(params_.lanes, pkt.trafficClass);
    int lane = base;
    if (params_.laneAlloc == LaneAlloc::Adaptive && laneCost) {
        // Cheapest lane of the class partition; ties go to the
        // lowest lane so the choice is deterministic.
        const int size =
            laneClassSize(params_.lanes, pkt.trafficClass);
        int best_cost = laneCost(base);
        for (int l = base + 1; l < base + size; ++l) {
            const int cost = laneCost(l);
            if (cost < best_cost) {
                best_cost = cost;
                lane = l;
            }
        }
    }
    if (params_.lanes > 1)
        traceWorm(WormEvent::LaneAlloc, now, pkt,
                  static_cast<std::int32_t>(lane));
    return lane;
}

void
SwitchBase::attachTelemetry(Telemetry &telemetry)
{
    tracer_ = telemetry.tracer();
    MetricsRegistry &reg = telemetry.registry();
    const std::string prefix =
        "switch." + std::to_string(id_) + ".";
    reg.registerCounter(prefix + "flits_in", &stats_.flitsIn);
    reg.registerCounter(prefix + "flits_out", &stats_.flitsOut);
    reg.registerCounter(prefix + "packets_routed",
                        &stats_.packetsRouted);
    reg.registerCounter(prefix + "replications",
                        &stats_.replications);
    reg.registerCounter(prefix + "reservation_stall_cycles",
                        &stats_.reservationStallCycles);
    reg.registerCounter(prefix + "tombstoned_flits",
                        &stats_.tombstonedFlits);
    reg.registerCounter(prefix + "unroutable_dests",
                        &stats_.unroutableDests);
    for (std::size_t p = 0; p < outs_.size(); ++p) {
        if (!outs_[p].connected())
            continue;
        reg.registerCounter(prefix + "port." + std::to_string(p) +
                                ".tx_flits",
                            &portTx_[p]);
    }
    if (params_.lanes > 1) {
        reg.registerCounter(prefix + "lane.stall_cycles",
                            &stats_.laneStallCycles);
        reg.registerTimeAverage(prefix + "lane.occupancy_flits",
                                &laneOcc_, [this] {
                                    return sim_ ? sim_->now()
                                                : Cycle{0};
                                });
        for (std::size_t p = 0; p < outs_.size(); ++p) {
            if (!outs_[p].connected())
                continue;
            for (int l = 0; l < params_.lanes; ++l) {
                reg.registerCounter(
                    prefix + "port." + std::to_string(p) + ".lane." +
                        std::to_string(l) + ".tx_flits",
                    &laneTx_[laneIdx(p, l)]);
            }
        }
    }
}

PortId
SwitchBase::chooseUpPort(const RouteDecision &route,
                         const PacketDesc &pkt, int lane,
                         const std::function<bool(PortId)> &freeOk) const
{
    MDW_ASSERT(!route.upCandidates.empty(), "no up candidates");
    const auto &cands = route.upCandidates;
    const std::size_t n = cands.size();
    // Deterministic default: spread by source and packet id so
    // distinct flows take distinct up links; the packet's lane
    // rotates the choice (rotateUpCandidate) so each lane's flows
    // prefer a different up link. Lane 0 reduces to the single-lane
    // hash exactly.
    const std::size_t hash = rotateUpCandidate(
        (static_cast<std::size_t>(pkt.src) * 0x9e3779b9u +
         static_cast<std::size_t>(pkt.id) * 0x85ebca6bu) %
            n,
        lane, n);
    if (params_.upPolicy == UpPortPolicy::Deterministic || !freeOk)
        return cands[hash];
    // Adaptive: first available candidate scanning from the hash
    // position (ties broken by the hash so load still spreads).
    for (std::size_t i = 0; i < n; ++i) {
        const PortId cand = cands[(hash + i) % n];
        if (freeOk(cand))
            return cand;
    }
    return cands[hash];
}

} // namespace mdw
