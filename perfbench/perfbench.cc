/**
 * @file
 * mdw_perfbench: host-performance benchmark of the mdworm simulator.
 *
 * Runs one named fabric workload (see README.md for why each exists)
 * as a batch job -- one Experiment::run(): Network construction,
 * warmup, measurement, drain and the quiescence audit -- repeatedly
 * for a fixed host-time budget, and prints one JSON record as its last
 * stdout line. run.py builds this binary, checks the record and turns
 * it into the benchmark result.
 *
 * Modes (all take --workload NAME --seed N):
 *   --trace 0 --seconds S   untraced repetitions: end-to-end metrics
 *   --trace 1 --seconds S   alternating untraced and instrumented
 *                           repetitions plus topology and tracer
 *                           passes: per-layer metrics
 *   --record 1              one Experiment::run() of each traffic
 *                           sub-seed in the flat (unsharded)
 *                           configuration: their digests
 *
 * Repetition i simulates traffic sub-seed i % kSubSeeds of the run's
 * seed, so a run's medians average over several traffic mixes. Every
 * repetition of a sub-seed must give the same digest (a hash of the
 * simulated statistics): one that differs means the run was not
 * deterministic, or the instrumented run simulated something else.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "timed_workload.hh"

namespace {

using namespace mdw;
using Clock = std::chrono::steady_clock;

#ifndef MDW_PB_COMPILER
#define MDW_PB_COMPILER "unknown"
#endif
#ifndef MDW_PB_BUILD_TYPE
#define MDW_PB_BUILD_TYPE "unknown"
#endif

/** Cycles per chunk when the instrumented run drives the simulator. */
constexpr Cycle kChunk = 1000;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * CPU seconds this process has used, over all its threads. Host time
 * measured this way leaves out the time other processes or the
 * hypervisor (steal time) hold the CPU.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * CPU seconds one referencePass() took on the host the bounds were set
 * on (its median over eight 50-second runs of contended64), so that
 * host-time metrics read in seconds of that host.
 */
constexpr double kReferencePassS = 0.055;

/**
 * One pass of a fixed reference computation that shares no code with
 * the simulator -- random read-modify-writes over an 8 MiB table, then
 * a branchy integer loop -- and its CPU seconds. How much longer it
 * takes than kReferencePassS is how much slower the host runs at the
 * moment: on a shared virtual machine, neighbours slow the CPU by up
 * to 40% for minutes at a time, and CPU time cannot see that.
 */
double
referencePass()
{
    static std::vector<std::uint64_t> table(std::size_t{1} << 20);
    const double begin = cpuSeconds();
    std::uint64_t x = 1;
    for (int i = 0; i < 4000000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        table[(x >> 40) & (table.size() - 1)] += x;
    }
    std::uint64_t y = 3;
    for (int i = 0; i < 12000000; ++i) {
        x = x * 6364136223846793005ULL + y;
        y ^= x >> 17;
        if (x & 1)
            y += 7;
    }
    table[y & (table.size() - 1)] ^= x;
    return cpuSeconds() - begin;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (0 < q <= 1). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** CPUs this process may run on (what `nproc` reports). */
unsigned
nprocCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct WorkloadSpec
{
    NetworkConfig network;
    TrafficParams traffic;
    ExperimentParams params;
};

/** Shard count of the sharded workload. */
constexpr std::size_t kShards = 4;
/**
 * Worker threads of the sharded workload: one, so the shard loop of
 * every parallel phase runs inline (results are identical for any
 * thread count). With real workers, each simulated cycle waits on two
 * cross-thread wake-ups, and on a virtual machine whose CPUs the
 * hypervisor sometimes takes away (steal time) that made the run 3-5x
 * slower on 2 and on 4 workers, swamping any change in the scheduler
 * itself.
 */
constexpr std::size_t kShardThreads = 1;

const char *const kWorkloads[] = {"contended64", "sparse256",
                                  "ib_bimodal", "sharded1024"};

bool
knownWorkload(const std::string &name)
{
    for (const char *w : kWorkloads)
        if (name == w)
            return true;
    return false;
}

/** Traffic sub-seeds of one run (see the file comment). */
constexpr std::size_t kSubSeeds = 4;

/**
 * The configuration of workload @p name with traffic sub-seed @p sub
 * of @p seed. @p flat drops sharding (the reference for the digest).
 */
WorkloadSpec
makeWorkload(const std::string &name, std::uint64_t seed, std::size_t sub,
             bool flat)
{
    WorkloadSpec w;
    w.traffic = defaultTraffic();
    // Offset so seed 0 is as good a seed as any other.
    w.traffic.seed = seed * kSubSeeds + sub + 0x9e3779b97f4a7c15ULL;
    w.params.watchdogQuiet = 200000;
    w.params.drainLimit = 400000;
    if (name == "contended64") {
        w.network = networkFor(Scheme::CbHw);
        w.network.fatTreeN = 3;
        w.traffic.load = 0.3;
        w.params.warmup = 3000;
        w.params.measure = 8000;
    } else if (name == "sparse256") {
        w.network = networkFor(Scheme::CbHw);
        w.network.fatTreeN = 4;
        w.traffic.load = 0.002;
        w.params.warmup = 10000;
        w.params.measure = 100000;
    } else if (name == "ib_bimodal") {
        w.network = networkFor(Scheme::IbHw);
        w.network.fatTreeN = 3;
        w.network.sw.lanes = 2;
        w.traffic.pattern = TrafficPattern::Bimodal;
        w.traffic.mcastFraction = 0.1;
        w.traffic.mcastClass = 1;
        w.traffic.load = 0.2;
        w.params.warmup = 3000;
        w.params.measure = 20000;
    } else if (name == "sharded1024") {
        w.network = networkFor(Scheme::CbHw);
        w.network.fatTreeN = 5;
        // Bit-string headers carry one bit per host; at 1,024 hosts
        // they stretch every worm so far that even light loads take
        // longer to drain than to measure. The multiport encoding is
        // what the scale curve of fig_extreme_scale uses here.
        w.network.nic.encoding = McastEncoding::Multiport;
        w.traffic.load = 0.015;
        w.params.warmup = 500;
        w.params.measure = 5000;
        if (!flat) {
            w.network.shards = kShards;
            w.network.shardThreads = kShardThreads;
        }
    }
    w.network.fastPath = true;
    return w;
}

// ---------------------------------------------------------------------
// Digest and message accounting
// ---------------------------------------------------------------------

/** FNV-1a 64 over @p text, continuing from @p h. */
std::uint64_t
fnv1a(const std::string &text,
      std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Digest of a run's simulated statistics: every registered metric
 * (the registry snapshot, without the experiment harness's derived
 * "experiment.*" entries) plus the run verdicts. Wall-clock-only data
 * (shard statistics) is not part of the snapshot.
 */
std::string
digestOf(const MetricsSnapshot &snapshot, Cycle cycles, bool drained,
         bool deadlocked, bool quiescent)
{
    MetricsSnapshot simulated;
    for (const auto &[name, value] : snapshot.entries()) {
        if (name.rfind("experiment.", 0) == 0)
            continue;
        switch (value.kind) {
          case MetricValue::Kind::Counter:
            simulated.setCounter(name, value.counter);
            break;
          case MetricValue::Kind::Gauge:
            simulated.setGauge(name, value.gauge);
            break;
          case MetricValue::Kind::Sampler:
            simulated.setSampler(name, value.sampler);
            break;
        }
    }
    char verdicts[128];
    std::snprintf(verdicts, sizeof(verdicts),
                  "|cycles=%" PRIu64 "|drained=%d|deadlocked=%d"
                  "|quiescent=%d",
                  static_cast<std::uint64_t>(cycles), drained,
                  deadlocked, quiescent);
    const std::uint64_t h =
        fnv1a(verdicts, fnv1a(simulated.toJson()));
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
    return hex;
}

/** Sum of every counter named "<prefix>*<suffix>". */
std::uint64_t
sumCounters(const MetricsSnapshot &snapshot, const std::string &prefix,
            const std::string &suffix)
{
    std::uint64_t total = 0;
    for (const auto &[name, value] : snapshot.entries()) {
        if (value.kind != MetricValue::Kind::Counter ||
            name.size() < prefix.size() + suffix.size() ||
            name.compare(0, prefix.size(), prefix) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0)
            continue;
        total += value.counter;
    }
    return total;
}

/** Simulated results and verdicts of one run. */
struct SimOutcome
{
    Cycle cycles = 0;
    bool drained = false;
    bool deadlocked = false;
    bool quiescent = false;
    std::string digest;
    std::uint64_t posted = 0;
    std::uint64_t completed = 0;
    std::uint64_t partial = 0;
    std::uint64_t flitsDelivered = 0;
    double deliveredLoad = 0.0;
    double mcLastMean = 0.0;
    double mcLastP99 = 0.0;
    double uniMean = 0.0;

    /** Drained, no watchdog trip, quiescent, every message retired. */
    bool
    invariantsHold() const
    {
        return drained && !deadlocked && quiescent &&
               posted == completed + partial;
    }

    /** Messages undelivered at the drain limit or partially completed
     *  (a destination written off as unreachable); all of them when
     *  an invariant failed. */
    std::uint64_t
    failed() const
    {
        if (!drained || deadlocked || !quiescent)
            return posted;
        return posted > completed ? posted - completed : 0;
    }
};

/** Message and delivery accounting of a run's registry snapshot. */
void
countMessages(const MetricsSnapshot &snapshot, SimOutcome &out)
{
    out.posted = sumCounters(snapshot, "nic.", ".messages_posted");
    out.completed = snapshot.counter("tracker.completed");
    out.partial = snapshot.counter("tracker.partial_completed");
    out.flitsDelivered = sumCounters(snapshot, "nic.", ".flits_ejected");
}

/** The quiescence audit of Experiment::run(). */
bool
settleQuiescent(Network &net, const SimOutcome &out)
{
    if (!out.drained || out.deadlocked)
        return false;
    net.sim().runUntil([&net] { return net.checkQuiescent(nullptr); },
                       4096);
    std::string why;
    const bool ok = net.checkQuiescent(&why);
    if (!ok)
        std::fprintf(stderr, "# not quiescent after drain: %s\n",
                     why.c_str());
    return ok;
}

/** The workload's traffic, stopping at the end of the window. */
TrafficParams
windowedTraffic(const WorkloadSpec &w)
{
    TrafficParams traffic = w.traffic;
    traffic.stopCycle = w.params.warmup + w.params.measure;
    return traffic;
}

// ---------------------------------------------------------------------
// Untraced repetition
// ---------------------------------------------------------------------

struct PlainRep
{
    SimOutcome sim;
    /** CPU seconds of the whole Experiment::run(). */
    double cpuS = 0.0;
    /** The worm trace, if the workload's network records one. */
    std::shared_ptr<const WormTrace> trace;
};

/** One Experiment::run() of the workload, timed from outside. */
PlainRep
runExperiment(const WorkloadSpec &w)
{
    PlainRep rep;
    const double cpu = cpuSeconds();
    const ExperimentResult result =
        Experiment(w.network, w.traffic, w.params).run();
    rep.cpuS = cpuSeconds() - cpu;

    SimOutcome &sim = rep.sim;
    sim.cycles = result.cyclesRun;
    sim.drained = result.drained;
    sim.deadlocked = result.deadlocked;
    sim.quiescent = result.quiescent;
    countMessages(result.metrics, sim);
    sim.deliveredLoad = result.deliveredLoad();
    sim.mcLastMean = result.mcastLastAvg();
    sim.mcLastP99 = result.mcastLastP99();
    sim.uniMean = result.unicastAvg();
    sim.digest = digestOf(result.metrics, sim.cycles, sim.drained,
                          sim.deadlocked, sim.quiescent);
    rep.trace = result.trace;
    return rep;
}

// ---------------------------------------------------------------------
// Instrumented repetition (per-layer timings from outside)
// ---------------------------------------------------------------------

struct TracedRep
{
    SimOutcome sim;
    double cpuS = 0.0;
    double warmupS = 0.0;
    double measureS = 0.0;
    double drainS = 0.0;
    double snapshotMs = 0.0;
    double quiescentMs = 0.0;
    /** Host ms per 1,000 simulated cycles, one entry per chunk. */
    std::vector<double> kcycleMs;
    double chunkS = 0.0;
    double activeFracSum = 0.0;
    double backlogSum = 0.0;
    double inFlightSum = 0.0;
    std::size_t samples = 0;
    std::uint64_t pollCalls = 0;
    std::uint64_t arrivalCalls = 0;
    std::uint64_t hookCalls = 0;
    double workloadMs = 0.0;
    double linkUtilMax = 0.0;
    std::vector<ShardStat> shardStats;
    MetricsSnapshot snapshot;
};

/** Run one chunk of at most kChunk cycles; record its timing and the
 *  boundary samples. Returns what @p step returned. */
template <typename Step>
bool
timedChunk(Network &net, TracedRep &rep, Step step)
{
    const Cycle before = net.sim().now();
    const Clock::time_point start = Clock::now();
    const bool result = step();
    const double s = secondsSince(start);
    const Cycle advanced = net.sim().now() - before;
    rep.chunkS += s;
    if (advanced > 0)
        rep.kcycleMs.push_back(s * 1e3 * static_cast<double>(kChunk) /
                               static_cast<double>(advanced));
    rep.activeFracSum += static_cast<double>(net.sim().activeCount()) /
                         static_cast<double>(net.sim().componentCount());
    rep.backlogSum += static_cast<double>(net.totalTxBacklog());
    rep.inFlightSum += static_cast<double>(net.tracker().inFlight());
    ++rep.samples;
    return result;
}

/** Run @p cycles in chunks; returns host seconds. */
double
runChunked(Network &net, TracedRep &rep, Cycle cycles)
{
    const Clock::time_point start = Clock::now();
    for (Cycle left = cycles; left > 0;) {
        const Cycle n = std::min(left, kChunk);
        timedChunk(net, rep, [&] {
            net.sim().run(n);
            return true;
        });
        left -= n;
    }
    return secondsSince(start);
}

TracedRep
runTraced(const WorkloadSpec &w)
{
    TracedRep rep;
    const double cpu = cpuSeconds();
    Network net(w.network);

    // Armed as Experiment::run() arms its run, with the decorator
    // between the network and the traffic.
    SyntheticTraffic source(net.numHosts(), windowedTraffic(w));
    perfbench::TimedWorkload timed(source);
    net.attachWorkload(&timed);
    net.tracker().setWindow(w.params.warmup,
                            w.params.warmup + w.params.measure);
    net.armWatchdog(w.params.watchdogQuiet);

    rep.warmupS = runChunked(net, rep, w.params.warmup);
    const std::vector<std::uint64_t> txBefore = net.portTxSnapshot();
    rep.measureS = runChunked(net, rep, w.params.measure);
    const std::vector<std::uint64_t> txAfter = net.portTxSnapshot();

    const Clock::time_point drainStart = Clock::now();
    const Cycle drainEnd = net.sim().now() + w.params.drainLimit;
    bool drained = false;
    while (!drained && !net.sim().deadlockDetected() &&
           net.sim().now() < drainEnd) {
        const Cycle n = std::min(kChunk, drainEnd - net.sim().now());
        drained = timedChunk(net, rep, [&] {
            return net.sim().runUntil([&net] { return net.idle(); }, n);
        });
    }
    rep.drainS = secondsSince(drainStart);
    rep.sim.drained = drained;
    rep.sim.deadlocked = net.sim().deadlockDetected();
    rep.sim.cycles = net.sim().now();

    Clock::time_point t = Clock::now();
    rep.snapshot = net.metricsSnapshot();
    rep.snapshotMs = secondsSince(t) * 1e3;
    countMessages(rep.snapshot, rep.sim);

    t = Clock::now();
    rep.sim.quiescent = settleQuiescent(net, rep.sim);
    rep.quiescentMs = secondsSince(t) * 1e3;
    rep.cpuS = cpuSeconds() - cpu;

    rep.sim.digest =
        digestOf(rep.snapshot, rep.sim.cycles, rep.sim.drained,
                 rep.sim.deadlocked, rep.sim.quiescent);
    rep.pollCalls = timed.pollCalls();
    rep.arrivalCalls = timed.arrivalCalls();
    rep.hookCalls = timed.hookCalls();
    rep.workloadMs = static_cast<double>(timed.selfNs()) / 1e6;
    for (std::size_t i = 0; i < txBefore.size(); ++i)
        rep.linkUtilMax = std::max(
            rep.linkUtilMax,
            static_cast<double>(txAfter[i] - txBefore[i]) /
                static_cast<double>(w.params.measure));
    rep.shardStats = net.shardStats();
    net.detachWorkload();
    return rep;
}

/** Header decodes per (packet, switch) routed, over the events a
 *  traced run's ring buffer retained, and the share retained. */
struct DecodeCount
{
    double perPacket = 0.0;
    double coverage = 0.0;
    std::string digest;
};

DecodeCount
countDecodes(const WorkloadSpec &w)
{
    WorkloadSpec traced = w;
    traced.network.telemetry.trace = true;
    traced.network.telemetry.traceCapacity = 1u << 20;
    const PlainRep rep = runExperiment(traced);
    DecodeCount out;
    out.digest = rep.sim.digest;
    if (!rep.trace)
        return out;
    const WormTrace &trace = *rep.trace;
    std::uint64_t decodes = 0;
    std::set<std::pair<PacketId, std::int32_t>> routed;
    for (const WormTraceEvent &e : trace.events) {
        if (e.kind != WormEvent::HeaderDecode || e.atHost)
            continue;
        ++decodes;
        routed.emplace(e.packet, e.component);
    }
    out.perPacket = routed.empty() ? 0.0
                                   : static_cast<double>(decodes) /
                                         static_cast<double>(routed.size());
    out.coverage = trace.recorded == 0
                       ? 1.0
                       : static_cast<double>(trace.events.size()) /
                             static_cast<double>(trace.recorded);
    return out;
}

// ---------------------------------------------------------------------
// Topology layer, timed on its own
// ---------------------------------------------------------------------

/** Median host ms to build the workload's FatTree (with routing). */
double
topologyBuildMs(const WorkloadSpec &w)
{
    std::vector<double> ms;
    const Clock::time_point start = Clock::now();
    while (ms.size() < 3 || (ms.size() < 50 && secondsSince(start) < 1.0)) {
        const Clock::time_point t = Clock::now();
        FatTree tree(w.network.fatTreeK, w.network.fatTreeN);
        ms.push_back(secondsSince(t) * 1e3);
        if (tree.numHosts() == 0)
            std::abort();
    }
    return median(ms);
}

/**
 * Mean host ns of one SwitchRouting::decode of the workload's own
 * multicast destination sets (regenerated from the same seed) at
 * switch 0 of every stage.
 */
double
decodeNs(const WorkloadSpec &w)
{
    FatTree tree(w.network.fatTreeK, w.network.fatTreeN);
    const TrafficParams traffic = windowedTraffic(w);
    SyntheticTraffic source(tree.numHosts(), traffic);
    std::vector<DestSet> sets;
    std::vector<MessageSpec> specs;
    constexpr std::size_t kSets = 2048;
    for (NodeId node = 0;
         node < static_cast<NodeId>(tree.numHosts()) &&
         sets.size() < kSets;
         ++node) {
        for (Cycle now = source.nextArrival(node, 0);
             now < traffic.stopCycle && sets.size() < kSets;
             now = source.nextArrival(node, now + 1)) {
            specs.clear();
            source.poll(node, now, specs);
            for (const MessageSpec &spec : specs)
                if (spec.multicast)
                    sets.push_back(spec.dests);
        }
    }
    if (sets.empty())
        return 0.0;
    std::vector<const SwitchRouting *> routers;
    for (int level = 0; level < tree.n(); ++level)
        routers.push_back(&tree.routing().at(tree.switchAt(level, 0)));

    std::uint64_t decodes = 0;
    std::size_t sink = 0;
    const Clock::time_point start = Clock::now();
    do {
        for (const DestSet &set : sets)
            for (const SwitchRouting *r : routers) {
                sink += r->decode(set, w.network.sw.variant)
                            .branchCount();
                ++decodes;
            }
    } while (secondsSince(start) < 0.3);
    const double ns = secondsSince(start) * 1e9;
    if (sink == 0)
        std::abort();
    return ns / static_cast<double>(decodes);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct Record
{
    std::string workload;
    std::uint64_t seed = 0;
    std::string commit;
    bool hostResolved = true;
    std::size_t reps = 0;
    /** Digest of each sub-seed; empty until one of its repetitions ran. */
    std::vector<std::string> digests =
        std::vector<std::string>(kSubSeeds);
    /** Every repetition of a sub-seed gave the same digest. */
    bool repeatable = true;
    bool invariants = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

void
printRecord(const Record &r)
{
    for (const Metric &m : r.metrics)
        std::printf("# %-40s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"workload\":" + jsonString(r.workload);
    json += ",\"seed\":" + std::to_string(r.seed);
    json += ",\"host\":{\"nproc\":" + std::to_string(nprocCount());
    json += ",\"hardware_concurrency\":" +
            std::to_string(std::thread::hardware_concurrency());
    json += ",\"compiler\":" + jsonString(MDW_PB_COMPILER);
    json += ",\"build_type\":" + jsonString(MDW_PB_BUILD_TYPE);
    json += ",\"commit\":" + jsonString(r.commit);
    json += std::string(",\"host_time_resolved\":") +
            (r.hostResolved ? "true" : "false") + "}";
    json += ",\"reps\":" + std::to_string(r.reps);
    json += ",\"digests\":[";
    bool first = true;
    for (const std::string &d : r.digests) {
        json += (first ? "" : ",") + jsonString(d);
        first = false;
    }
    json += "]";
    json += std::string(",\"repeatable\":") +
            (r.repeatable ? "true" : "false");
    json += std::string(",\"invariants\":") +
            (r.invariants ? "true" : "false");
    json += ",\"attempted\":" + std::to_string(r.attempted);
    json += ",\"failed\":" + std::to_string(r.failed);
    json += ",\"metrics\":{";
    first = true;
    for (const Metric &m : r.metrics) {
        json += (first ? "" : ",") + jsonString(m.name) +
                ":{\"value\":" + jsonDouble(m.value) +
                ",\"unit\":" + jsonString(m.unit) + "}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

/**
 * Construct the workload's network on its own, at least
 * @p minSamples times and until @p budget CPU seconds are used;
 * appends the CPU seconds of each construction to @p out.
 */
void
sampleSetup(const WorkloadSpec &w, std::size_t minSamples, double budget,
            std::vector<double> &out)
{
    const double begin = cpuSeconds();
    for (std::size_t n = 0;
         n < minSamples || cpuSeconds() - begin < budget; ++n) {
        const double cpu = cpuSeconds();
        const Network net(w.network);
        out.push_back(cpuSeconds() - cpu);
    }
}

/** True if one more repetition, at the mean pace of the @p reps done
 *  since @p start, still ends within @p seconds. */
bool
fitsAnother(Clock::time_point start, std::size_t reps, double seconds)
{
    const double elapsed = secondsSince(start);
    return reps == 0 ||
           elapsed + elapsed / static_cast<double>(reps) <= seconds;
}

/** Account one repetition of sub-seed @p sub. */
void
account(Record &r, const SimOutcome &sim, std::size_t sub)
{
    std::string &digest = r.digests[sub];
    if (digest.empty())
        digest = sim.digest;
    r.repeatable = r.repeatable && digest == sim.digest;
    r.invariants = r.invariants && sim.invariantsHold();
    r.attempted += sim.posted;
    r.failed += sim.failed();
}

/** The simulated-time results (exact for a fixed seed). */
void
addSimMetrics(Record &r, const SimOutcome &sim)
{
    r.metrics.push_back(
        {"sim_cycles", static_cast<double>(sim.cycles), "cycles"});
    r.metrics.push_back(
        {"sim_delivered_load", sim.deliveredLoad, "flits/node/cycle"});
    r.metrics.push_back({"sim_mc_last_mean_cyc", sim.mcLastMean,
                         "cycles"});
    r.metrics.push_back({"sim_mc_last_p99_cyc", sim.mcLastP99,
                         "cycles"});
    r.metrics.push_back({"sim_uni_mean_cyc", sim.uniMean, "cycles"});
}

/** The workload's configuration for each traffic sub-seed. */
using Specs = std::vector<WorkloadSpec>;

void
endToEnd(Record &r, const Specs &specs, double seconds)
{
    std::vector<double> cyclesPerS, flitsPerS, setupS, referenceS;
    const Clock::time_point start = Clock::now();
    SimOutcome first;
    while (r.reps < kSubSeeds || fitsAnother(start, r.reps, seconds)) {
        // Set-up and reference samples between the runs, so their
        // medians cover the same stretch of host time as the runs'.
        sampleSetup(specs[0], 5, 0.05, setupS);
        for (int i = 0; i < 3; ++i)
            referenceS.push_back(referencePass());
        const std::size_t sub = r.reps % kSubSeeds;
        const PlainRep rep = runExperiment(specs[sub]);
        cyclesPerS.push_back(static_cast<double>(rep.sim.cycles) /
                             rep.cpuS);
        flitsPerS.push_back(static_cast<double>(rep.sim.flitsDelivered) /
                            rep.cpuS);
        std::printf("# rep %zu: %.4f cpu s, %.1f cycles/s\n", r.reps,
                    rep.cpuS, cyclesPerS.back());
        account(r, rep.sim, sub);
        if (r.reps == 0)
            first = rep.sim;
        ++r.reps;
    }
    // Host time in seconds of the reference host: CPU seconds divided
    // by how much slower than there the reference pass ran meanwhile.
    const double slowdown = median(referenceS) / kReferencePassS;
    r.metrics.push_back(
        {"cycles_per_s", median(cyclesPerS) * slowdown, "1/s"});
    r.metrics.push_back(
        {"flits_per_s", median(flitsPerS) * slowdown, "flits/s"});
    r.metrics.push_back({"setup_s", median(setupS) / slowdown, "s"});
    r.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    r.metrics.push_back({"host_slowdown", slowdown, "ratio"});
    r.metrics.push_back({"cycles_per_cpu_s", median(cyclesPerS), "1/s"});
    r.metrics.push_back({"flits_per_cpu_s", median(flitsPerS),
                         "flits/s"});
    r.metrics.push_back({"setup_cpu_s", median(setupS), "s"});
    r.metrics.push_back(
        {"fail_frac",
         r.attempted ? static_cast<double>(r.failed) /
                           static_cast<double>(r.attempted)
                     : 1.0,
         "frac"});
    addSimMetrics(r, first);
}

void
perLayer(Record &r, const Specs &specs, double seconds)
{
    std::vector<double> plainCpu, tracedCpu, warmupS, measureS,
        drainS, snapshotMs, quiescentMs, kcycle, activeFrac, backlog,
        inFlight, workloadMs, simSelfMs, imbalance, parallelFrac,
        boundaryPerK;
    // Counters come from sub-seed 0, so they repeat exactly.
    TracedRep first;
    const Clock::time_point start = Clock::now();
    // At least two pairs: one pair's overhead is mostly host noise.
    while (r.reps < 2 || fitsAnother(start, r.reps, seconds)) {
        const std::size_t sub = r.reps % kSubSeeds;
        const PlainRep plain = runExperiment(specs[sub]);
        account(r, plain.sim, sub);
        plainCpu.push_back(plain.cpuS);

        TracedRep rep = runTraced(specs[sub]);
        account(r, rep.sim, sub);
        tracedCpu.push_back(rep.cpuS);
        warmupS.push_back(rep.warmupS);
        measureS.push_back(rep.measureS);
        drainS.push_back(rep.drainS);
        snapshotMs.push_back(rep.snapshotMs);
        quiescentMs.push_back(rep.quiescentMs);
        kcycle.insert(kcycle.end(), rep.kcycleMs.begin(),
                      rep.kcycleMs.end());
        const double n = static_cast<double>(std::max<std::size_t>(
            1, rep.samples));
        activeFrac.push_back(rep.activeFracSum / n);
        backlog.push_back(rep.backlogSum / n);
        inFlight.push_back(rep.inFlightSum / n);
        workloadMs.push_back(rep.workloadMs);
        simSelfMs.push_back(rep.chunkS * 1e3 - rep.workloadMs);
        if (rep.shardStats.size() > 1) {
            const std::size_t shards = rep.shardStats.size() - 1;
            std::uint64_t maxNs = 0, minNs = UINT64_MAX, sends = 0;
            for (std::size_t s = 0; s < shards; ++s) {
                maxNs = std::max(maxNs, rep.shardStats[s].wallNs);
                minNs = std::min(minNs, rep.shardStats[s].wallNs);
                sends += rep.shardStats[s].boundarySends;
            }
            imbalance.push_back(minNs ? static_cast<double>(maxNs) /
                                            static_cast<double>(minNs)
                                      : 0.0);
            parallelFrac.push_back(static_cast<double>(maxNs) / 1e9 /
                                   (rep.warmupS + rep.measureS +
                                    rep.drainS));
            boundaryPerK.push_back(static_cast<double>(sends) * 1e3 /
                                   static_cast<double>(rep.sim.cycles));
        }
        if (r.reps == 0)
            first = std::move(rep);
        ++r.reps;
    }
    const WorkloadSpec &w = specs[0];
    const DecodeCount decodes = countDecodes(w);
    r.repeatable = r.repeatable && decodes.digest == r.digests[0];

    const std::size_t chunks = kcycle.size();
    double tailPct = 50.0;
    for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (static_cast<double>(chunks) * (1.0 - p / 100.0) >= 10.0) {
            tailPct = p;
            break;
        }
    }

    const MetricsSnapshot &snap = first.snapshot;
    const auto count = [](std::uint64_t v) {
        return static_cast<double>(v);
    };
    const double plainMed = median(plainCpu);
    std::vector<Metric> &m = r.metrics;
    m.push_back({"core.warmup_s", median(warmupS), "s"});
    m.push_back({"core.measure_s", median(measureS), "s"});
    m.push_back({"core.drain_s", median(drainS), "s"});
    m.push_back({"core.snapshot_ms", median(snapshotMs), "ms"});
    m.push_back({"core.quiescent_ms", median(quiescentMs), "ms"});
    m.push_back({"topology.build_ms", topologyBuildMs(w), "ms"});
    m.push_back({"topology.decode_ns", decodeNs(w), "ns"});
    m.push_back({"sim.kcycle_ms.p50", percentile(kcycle, 0.5), "ms"});
    m.push_back({"sim.kcycle_ms.tail", percentile(kcycle, tailPct / 100.0),
                 "ms"});
    m.push_back({"sim.kcycle_ms.tail_pct", tailPct, "%"});
    m.push_back({"sim.chunks", static_cast<double>(chunks), "count"});
    m.push_back({"sim.active_frac", median(activeFrac), "frac"});
    m.push_back({"sim.self_ms", median(simSelfMs), "ms"});
    m.push_back({"sim.shard.imbalance", median(imbalance), "ratio"});
    m.push_back({"sim.shard.parallel_frac", median(parallelFrac),
                 "frac"});
    m.push_back({"sim.shard.boundary_sends_per_kcycle",
                 median(boundaryPerK), "sends/kcycle"});
    m.push_back({"switch.flits_out",
                 count(snap.counter("network.flits_out")), "flits"});
    m.push_back({"switch.packets_routed",
                 count(snap.counter("network.packets_routed")),
                 "count"});
    m.push_back({"switch.replications",
                 count(snap.counter("network.replications")), "count"});
    m.push_back({"switch.reservation_stall_cycles",
                 count(snap.counter("network.reservation_stall_cycles")),
                 "cycles"});
    m.push_back({"switch.lane_stall_cycles",
                 count(snap.counter("switch.lane.stalls")), "cycles"});
    m.push_back({"switch.unroutable_dests",
                 count(sumCounters(snap, "switch.", ".unroutable_dests")),
                 "count"});
    m.push_back({"switch.cq_avg_chunks", snap.gauge("network.cq.avg_chunks"),
                 "chunks"});
    m.push_back({"switch.link_util_max", first.linkUtilMax,
                 "flits/cycle"});
    m.push_back({"switch.decodes_per_pkt", decodes.perPacket,
                 "decodes/pkt"});
    m.push_back({"switch.trace_coverage", decodes.coverage, "frac"});
    m.push_back({"host.tx_backlog_mean", median(backlog), "packets"});
    m.push_back({"tracker.in_flight_mean", median(inFlight), "msgs"});
    m.push_back({"host.retransmits", count(snap.counter("host.retransmits")),
                 "count"});
    m.push_back({"host.poisoned_drops",
                 count(snap.counter("host.poisoned_drops")), "count"});
    m.push_back({"workload.poll_calls", count(first.pollCalls), "count"});
    m.push_back({"workload.arrival_calls", count(first.arrivalCalls),
                 "count"});
    m.push_back({"workload.hook_calls", count(first.hookCalls), "count"});
    m.push_back({"workload.self_ms", median(workloadMs), "ms"});
    m.push_back({"trace_overhead_frac",
                 plainMed > 0.0 ? (median(tracedCpu) - plainMed) / plainMed
                                : 0.0,
                 "frac"});
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: mdw_perfbench --workload NAME --seed N "
                 "[--seconds S] [--trace 0|1] [--record 1] "
                 "[--commit ID]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            return usage();
        args[argv[i] + 2] = argv[i + 1];
    }
    if (argc % 2 == 0 || !args.count("workload") || !args.count("seed"))
        return usage();
    for (const auto &[key, value] : args) {
        (void)value;
        if (key != "workload" && key != "seed" && key != "seconds" &&
            key != "trace" && key != "record" && key != "commit")
            return usage();
    }

    Record r;
    r.workload = args["workload"];
    if (!knownWorkload(r.workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     r.workload.c_str());
        return 2;
    }
    r.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
    r.commit = args.count("commit") ? args["commit"] : "unknown";
    const double seconds =
        args.count("seconds") ? std::strtod(args["seconds"].c_str(), nullptr)
                              : 10.0;
    const bool trace = args.count("trace") && args["trace"] == "1";
    const bool record = args.count("record") && args["record"] == "1";

    Specs specs;
    for (std::size_t sub = 0; sub < kSubSeeds; ++sub)
        specs.push_back(makeWorkload(r.workload, r.seed, sub, record));
    // A host that cannot run the sharded workload's shards
    // concurrently is flagged, so its host time is never compared with
    // one that can (should the worker count be raised again).
    const std::size_t shards = specs[0].network.shards;
    r.hostResolved =
        shards <= 1 || std::thread::hardware_concurrency() >= shards;

    if (record) {
        for (std::size_t sub = 0; sub < kSubSeeds; ++sub)
            account(r, runExperiment(specs[sub]).sim, sub);
        r.reps = kSubSeeds;
    } else if (trace) {
        perLayer(r, specs, seconds);
    } else {
        endToEnd(r, specs, seconds);
    }
    printRecord(r);
    return 0;
}
