/**
 * @file
 * Golden digests of the input-buffer switch on configurations the
 * host benchmark does not run: both replication modes, 1, 2 and 4
 * lanes (adaptive lane allocation on the multi-lane ones), both
 * up-port policies, and one link-fault run whose failed ports turn
 * replication branches into tombstone sinks.
 *
 * Each run is short and hashes its whole metrics snapshot (every
 * registered counter, gauge and histogram, plus the experiment's
 * derived entries) together with the run verdicts. A digest moves
 * only when a simulated result moves, so any change to the switch's
 * arbitration or transmit order that is meant to be a pure speedup
 * must leave this table alone. To re-record after an intended change
 * of behaviour, run the test and copy the "got" digests it prints.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "scoped_env.hh"
#include "sim/config.hh"

namespace mdw {
namespace {

/** FNV-1a 64 over @p text, continuing from @p h. */
std::uint64_t
fnv1a(const std::string &text, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Run one IB configuration ("key=value ..." tokens). */
ExperimentResult
runIb(const std::string &tokens)
{
    Config config;
    config.set("arch", "ib");
    config.set("workload.pattern", "bimodal");
    config.set("workload.mcastFraction", "0.2");
    config.set("workload.mcastClass", "1");
    config.set("workload.load", "0.15");
    config.set("warmup", "500");
    config.set("measure", "1500");
    config.set("drainLimit", "60000");
    config.set("watchdog", "40000");
    std::istringstream stream(tokens);
    std::string token;
    while (stream >> token)
        config.parseToken(token);

    NetworkConfig network = defaultNetwork();
    TrafficParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    applyOverrides(config, network, traffic, params);
    Experiment experiment(network, traffic, params);
    return experiment.run();
}

/** The run's metrics snapshot and verdicts, hashed. */
std::string
digestOf(const ExperimentResult &result)
{
    char verdicts[128];
    std::snprintf(verdicts, sizeof(verdicts),
                  "|cycles=%" PRIu64 "|drained=%d|deadlocked=%d"
                  "|quiescent=%d",
                  static_cast<std::uint64_t>(result.cyclesRun),
                  result.drained, result.deadlocked, result.quiescent);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                  fnv1a(verdicts, fnv1a(result.metrics.toJson())));
    return hex;
}

struct Golden
{
    const char *tokens;
    const char *digest;
};

const Golden kGoldens[] = {
    {"replication=async switch.lanes=1 upPolicy=adaptive",
     "6ddc3789ffae0da9"},
    {"replication=async switch.lanes=1 upPolicy=deterministic",
     "c0bd4e84e9a76880"},
    {"replication=async switch.lanes=2 switch.laneAlloc=adaptive "
     "upPolicy=adaptive",
     "a1efcffafc7fb662"},
    {"replication=async switch.lanes=2 switch.laneAlloc=adaptive "
     "upPolicy=deterministic",
     "c86076e4ec104dff"},
    {"replication=async switch.lanes=4 switch.laneAlloc=adaptive "
     "upPolicy=adaptive",
     "5464744f5f720202"},
    {"replication=async switch.lanes=4 switch.laneAlloc=adaptive "
     "upPolicy=deterministic",
     "80011098e3b84805"},
    {"replication=sync switch.lanes=1 upPolicy=adaptive",
     "c6c71354ac801e80"},
    {"replication=sync switch.lanes=1 upPolicy=deterministic",
     "d0bee9df53e88395"},
    {"replication=sync switch.lanes=2 switch.laneAlloc=adaptive "
     "upPolicy=adaptive",
     "85eccb8a7a3f764b"},
    {"replication=sync switch.lanes=2 switch.laneAlloc=adaptive "
     "upPolicy=deterministic",
     "535fca8cea515868"},
    {"replication=sync switch.lanes=4 switch.laneAlloc=adaptive "
     "upPolicy=adaptive",
     "c7aa3ee760eabe1b"},
    {"replication=sync switch.lanes=4 switch.laneAlloc=adaptive "
     "upPolicy=deterministic",
     "72e6fbc7921c2f65"},
    // Two dead links mid-run: branches bound to a failed output drain
    // into tombstones, heads cut off on a failed input are fabricated.
    {"replication=async switch.lanes=2 switch.laneAlloc=adaptive "
     "fault.links=2 fault.start=600 fault.end=1400 "
     "nic.retransmitTimeout=3000",
     "73f92465ff81a791"},
};

// Digests are scheduler-independent (the oracle matrix is
// bit-identical), so MDW_FAST_PATH and MDW_SHARDS may stay; the lane
// count is part of what each row names.
TEST(IbGolden, MetricsDigestsMatchRecorded)
{
    const ScopedEnv lanesEnv("MDW_LANES", nullptr);
    for (const Golden &golden : kGoldens) {
        SCOPED_TRACE(golden.tokens);
        const ExperimentResult result = runIb(golden.tokens);
        EXPECT_TRUE(result.drained && result.quiescent &&
                    !result.deadlocked);
        EXPECT_GT(result.metrics.sumCounters("replications"), 0u);
        if (std::string(golden.tokens).find("fault.links") !=
            std::string::npos) {
            EXPECT_GT(result.metrics.sumCounters("tombstoned_flits"),
                      0u);
        }
        EXPECT_EQ(digestOf(result), golden.digest)
            << "got digest for {\"" << golden.tokens << "\"}";
    }
}

} // namespace
} // namespace mdw
