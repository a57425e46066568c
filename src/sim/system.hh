/**
 * @file
 * The cycle-driven simulation engine.
 */

#ifndef MDW_SIM_SYSTEM_HH
#define MDW_SIM_SYSTEM_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/boundary.hh"
#include "sim/component.hh"
#include "sim/event_queue.hh"
#include "sim/shard_context.hh"
#include "sim/types.hh"

namespace mdw {

/** Per-shard execution statistics (sharded runs only). */
struct ShardStat
{
    /** Components assigned to the shard. */
    std::size_t components = 0;
    /** Component step() calls executed by the shard. */
    std::uint64_t steps = 0;
    /** Items this shard pushed across boundary channels. */
    std::uint64_t boundarySends = 0;
    /**
     * Wall-clock nanoseconds spent executing the shard's parallel
     * phases (step, then mailbox drain + retire). Diagnostic only —
     * identifies partition imbalance; never feeds back into
     * scheduling or results.
     */
    std::uint64_t wallNs = 0;
};

/**
 * Drives registered components one cycle at a time and fires due
 * events. Also hosts the global progress watchdog used to detect
 * deadlock (or livelock) during stress tests: components call
 * noteProgress() whenever they move a flit, and the watchdog trips if
 * there is pending work but no progress for a configurable number of
 * cycles.
 *
 * The components live in buckets: 0..N parallel shards plus one
 * serial bucket (unsharded, the serial bucket holds everything). One
 * loop, stepOne(), runs every cycle over the buckets:
 *
 *  1. pending wakes that are due join their bucket's tick set;
 *  2. due events fire;
 *  3. step phase: every bucket steps its ticking components in
 *     registration order. The main thread steps the serial bucket
 *     (NICs, and components registered after the partition), so
 *     tracker/workload hook sequences are reproduced verbatim, then
 *     joins the workers stepping the parallel shards (the network
 *     puts switches there). All of them run at once, so a
 *     component's step() may touch nothing but its own state, its
 *     channels, the tracer and noteProgress() -- and, in the serial
 *     bucket only, the host-side state (tracker, workloads, engines)
 *     no shard touches. Every channel between two buckets runs in
 *     boundary mode: sends are buffered into per-channel mailboxes;
 *  4. the main thread folds per-shard progress flags;
 *  5. drain phase: every bucket drains the mailboxes addressed to
 *     it, then (idle-skipping only) runs its retire pass;
 *  6. the watchdog check;
 *  7. the clock advances.
 *
 * Mailboxes drain in deterministic (src-bucket, dirty-registration)
 * order on the thread that steps their receivers, so ready bits and
 * wakes are only ever written by the receiver's own thread. Because
 * every channel imposes >= 1 cycle of delay, nothing sent at cycle t
 * is observable before t + 1, so the deferred queue pushes are
 * invisible to results.
 *
 * Two independent properties shape the loop, and every combination
 * produces bit-identical results:
 *
 *  - Idle-skipping (setFastPath(true)): components that report no
 *    work via Component::nextWork() are retired from the tick set and
 *    re-activated by a wake heap (self-scheduled wakes and
 *    requestWake() pushes from channels and peers). When every tick
 *    set is empty the clock jumps straight to the next activity --
 *    earliest wake, earliest event, run limit, or the cycle at which
 *    the watchdog would trip -- so uncontended stretches cost O(1)
 *    instead of O(components * cycles). Off, every component ticks
 *    every cycle and nextWork() is never called: the always-tick
 *    oracle.
 *  - Sharding (setSharding()): how many parallel shards the buckets
 *    hold and how many worker threads step them.
 *
 * Equivalence rests on two component-contract facts: stepping an idle
 * component is a no-op, and nextWork() never under-reports (see
 * Component). Ticking components are stepped in registration order
 * within their bucket, so trace event order within a cycle is
 * preserved too.
 */
class Simulator : public BoundaryRegistrar
{
  public:
    Simulator();
    ~Simulator() override;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Register a component (not owned). Components added after
     *  setSharding() land in the serial bucket. */
    void add(Component *component);

    /** Current cycle (the one currently being, or next to be, run). */
    Cycle now() const { return now_; }

    /** Timed-callback queue, fired at the start of each cycle. */
    EventQueue &events() { return events_; }

    /**
     * Turn idle-skipping (retirement and idle jumps) on or off. Either
     * way every component rejoins its bucket's tick set; the shard
     * partition is kept. Call between cycles.
     */
    void setFastPath(bool on);

    /** True if the idle-skipping fast path is active. */
    bool fastPath() const { return fastPath_; }

    /**
     * Partition the components into @p parallelShards parallel shards
     * (0 = unsharded) plus one serial bucket and run the parallel
     * phase on up to @p threads workers (1 = run the shard loop
     * inline; results are identical either way). @p shardOf maps
     * every registration index to its shard, with the value
     * @p parallelShards meaning "serial bucket". Every component
     * rejoins its bucket's tick set. Only records the pool size: the
     * workers start at the first cycle. Call between cycles.
     */
    void setSharding(std::vector<std::uint32_t> shardOf,
                     std::size_t parallelShards, unsigned threads);

    /** Parallel shards in use (0 when unsharded). */
    std::size_t shards() const { return buckets_.size() - 1; }

    /** Worker threads running; the pool starts at the first cycle. */
    std::size_t workerThreads() const { return pool_.size(); }

    /** Per-shard execution statistics (empty when unsharded);
     *  entry [shards()] is the serial bucket. */
    std::vector<ShardStat> shardStats() const;

    /**
     * Schedule @p component to be stepped at cycle @p when (clamped to
     * the current cycle). Ignored with idle-skipping off, where
     * everything is stepped anyway. Called via
     * Component::requestWake().
     */
    void wake(Component *component, Cycle when);

    /** Components in a tick set right now (all of them with
     *  idle-skipping off). */
    std::size_t activeCount() const;

    /** Execute exactly one cycle. */
    void stepOne();

    /** Execute @p cycles cycles. */
    void run(Cycle cycles);

    /**
     * Run until @p done returns true (checked once per cycle) or
     * @p maxCycles elapse. Returns true if @p done became true.
     */
    bool runUntil(const std::function<bool()> &done, Cycle maxCycles);

    /** Components report flit movement here. */
    void
    noteProgress()
    {
        const int shard = shardctx::current;
        if (shard >= 0) {
            // Test first: the flags share a cache line, and a store
            // per moved flit would bounce it between the workers.
            char &flag = shardProgress_[static_cast<std::size_t>(shard)];
            if (!flag)
                flag = 1;
        } else {
            lastProgress_ = now_;
        }
    }

    /** Cycle of the most recent reported progress. */
    Cycle lastProgress() const { return lastProgress_; }

    /**
     * Arm the deadlock watchdog.
     * @param quietLimit Trip after this many progress-free cycles.
     * @param hasWork Returns true while packets are in flight.
     * @param onTrip Called when the watchdog fires; if empty, panic().
     */
    void setWatchdog(Cycle quietLimit, std::function<bool()> hasWork,
                     std::function<void()> onTrip = nullptr);

    /** True if the watchdog has fired. */
    bool deadlockDetected() const { return deadlocked_; }

    std::size_t componentCount() const { return components_.size(); }

    // BoundaryRegistrar: a boundary channel's first buffered send of
    // the current dirty episode (sending shard's thread).
    void boundaryDirty(std::uint32_t srcShard, std::uint32_t dstShard,
                       BoundaryChannel *channel) override;

  private:
    void checkWatchdog();

    /** Put every component back in its bucket's tick set. */
    void resetTickSets();
    /** Move pending wakes due at now_ into the tick set. */
    void wakeDue(std::size_t bucket);
    /** Insert component @p idx into its bucket's tick set (sorted). */
    void activate(std::size_t idx);
    /** Drop stepped components that report no immediate work. */
    void retireIdle(std::size_t bucket);
    /** Step one bucket's active components in registration order. */
    void stepBucket(std::size_t bucket);
    /** Drain every dirty mailbox addressed to bucket @p dst, on the
     *  thread that steps it. */
    void flushInbound(std::size_t dst);
    /**
     * First cycle in [now_, limit] at which anything can happen, or
     * now_ when the tick set is non-empty (no skipping possible).
     */
    Cycle nextActivity(Cycle limit) const;

    /** Run @p phase (0 = step, 1 = drain + retire) over every
     *  bucket: the serial one on the main thread, the shards on the
     *  worker pool (or inline when no pool exists). */
    void runPhase(int phase);
    /** One bucket's share of @p phase. */
    void runBucketPhase(int phase, std::size_t bucket);
    void workerLoop();
    void runShardTask(int phase, std::size_t shard);
    void startPool(unsigned threads);
    void stopPool();
    /** Wait until @p ready() holds: spin, then yield, then block. */
    template <typename Pred> void poolAwait(Pred ready);
    /** Wake blocked poolAwait() callers after a state change. */
    void poolNotify();

    std::vector<Component *> components_;
    EventQueue events_;
    Cycle now_ = 0;
    Cycle lastProgress_ = 0;

    Cycle watchdogQuiet_ = 0;
    std::function<bool()> watchdogHasWork_;
    std::function<void()> watchdogOnTrip_;
    bool deadlocked_ = false;

    // --- scheduler state ---
    struct Wake
    {
        Cycle when;
        std::size_t idx;
        bool operator>(const Wake &o) const { return when > o.when; }
    };

    /**
     * One schedulable partition of the components: buckets
     * [0, shards()) are the parallel shards and the last bucket is the
     * serial one (the only bucket when unsharded). Cache-line aligned:
     * each shard's worker writes its bucket's counters every step.
     */
    struct alignas(64) Bucket
    {
        /** Sorted indices of components stepped every cycle. */
        std::vector<std::size_t> runList;
        /** Min-heap of pending wake-ups for sleeping components. */
        std::vector<Wake> wakeHeap;
        /** Traversal cursor into runList while stepping a cycle. */
        std::size_t cursor = 0;
        /** Next cycle the retire pass runs while contended (whole-
         *  bucket stride on top of the per-component backoff). */
        Cycle retireAt = 0;
        /** True while inside the per-cycle step traversal. */
        bool stepping = false;
        /** Components assigned to this bucket. */
        std::size_t size = 0;
        /** step() calls executed. */
        std::uint64_t steps = 0;
        /** Items drained into this bucket, per sending bucket. */
        std::vector<std::uint64_t> receivedFrom;
        /** Wall nanoseconds spent in this bucket's parallel phases. */
        std::uint64_t wallNs = 0;
        /** This bucket's channels with buffered sends awaiting the
         *  flush, per receiving bucket. */
        std::vector<std::vector<BoundaryChannel *>> dirty;
    };

    bool fastPath_ = false;
    /** True while a sharded phase runs (main thread only). */
    bool concurrent_ = false;
    std::vector<Bucket> buckets_;
    /** Bucket of each component (all 0 when unsharded). */
    std::vector<std::uint32_t> bucketOf_;
    /** Earliest enqueued wake per component (dedup for wakeHeap). */
    std::vector<Cycle> wakeAt_;
    /**
     * Retire-pass backoff: skip the nextWork() probe of a component
     * that keeps reporting work until this cycle. Only engaged while
     * the bucket is mostly active (contended), where the probe is
     * pure overhead; delaying retirement never changes results
     * (stepping an idle component is a no-op).
     */
    std::vector<Cycle> retireCheckAt_;
    /** Consecutive busy retire probes (caps the backoff stride). */
    std::vector<std::uint8_t> busyStreak_;
    /** Per-shard progress flags folded into lastProgress_ at the
     *  barrier. */
    std::vector<char> shardProgress_;

    // --- worker pool (sharded with threads > 1) ---
    /** Workers the parallel phase uses; they start at its first run,
     *  so a simulator that never steps owns no threads (safe to fork
     *  in death tests). */
    unsigned poolSize_ = 0;
    std::vector<std::thread> pool_;
    /** Guards only the blocking fallback of poolAwait(). */
    std::mutex poolMutex_;
    std::condition_variable poolCv_;
    /** poolAwait() callers blocked on poolCv_. */
    std::atomic<int> poolSleepers_{0};
    /** Bumped by the main thread to start a phase. */
    std::atomic<std::uint64_t> poolGeneration_{0};
    /** Phase of the current generation (published by the bump). */
    int poolPhase_ = 0;
    std::atomic<bool> poolExit_{false};
    std::atomic<std::size_t> poolNextShard_{0};
    /** Workers still inside the current phase. */
    std::atomic<std::size_t> poolPending_{0};
};

} // namespace mdw

#endif // MDW_SIM_SYSTEM_HH
