#include "sim/system.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sim/logging.hh"

namespace mdw {

namespace shardctx {
thread_local int current = -1;
} // namespace shardctx

void
Component::requestWakeSlow(Cycle when)
{
    if (sim_ != nullptr)
        sim_->wake(this, when);
}

Simulator::Simulator()
{
    buckets_.emplace_back();
    buckets_.back().dirty.resize(1);
    buckets_.back().receivedFrom.assign(1, 0);
}

Simulator::~Simulator()
{
    stopPool();
}

void
Simulator::add(Component *component)
{
    MDW_ASSERT(component != nullptr, "registering null component");
    MDW_ASSERT(!buckets_.back().stepping,
               "registering a component mid-cycle");
    component->attach(this);
    component->simIndex_ = components_.size();
    component->schedActive_ = 1;
    components_.push_back(component);
    wakeAt_.push_back(kNoCycle);
    retireCheckAt_.push_back(0);
    busyStreak_.push_back(0);
    // Late registrations (engines, test components) go to the serial
    // bucket: only the network's construction-time partition may put
    // a component in a parallel shard.
    Bucket &serial = buckets_.back();
    bucketOf_.push_back(static_cast<std::uint32_t>(buckets_.size() - 1));
    ++serial.size;
    serial.runList.push_back(component->simIndex_);
}

void
Simulator::setFastPath(bool on)
{
    fastPath_ = on;
    resetTickSets();
}

void
Simulator::setSharding(std::vector<std::uint32_t> shardOf,
                       std::size_t parallelShards, unsigned threads)
{
    MDW_ASSERT(shardOf.size() == components_.size(),
               "shard map covers %zu of %zu components",
               shardOf.size(), components_.size());
    stopPool();
    bucketOf_ = std::move(shardOf);
    buckets_.assign(parallelShards + 1, Bucket{});
    for (Bucket &bucket : buckets_) {
        bucket.dirty.resize(buckets_.size());
        bucket.receivedFrom.assign(buckets_.size(), 0);
    }
    for (std::size_t i = 0; i < bucketOf_.size(); ++i) {
        MDW_ASSERT(bucketOf_[i] <= parallelShards,
                   "component %zu mapped to shard %u of %zu", i,
                   bucketOf_[i], parallelShards);
        ++buckets_[bucketOf_[i]].size;
    }
    shardProgress_.assign(parallelShards, 0);
    resetTickSets();
    unsigned workers = threads;
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
    workers = std::min<unsigned>(
        workers, static_cast<unsigned>(parallelShards));
    // The main thread participates in the parallel phase, so a pool
    // of workers - 1 suffices; workers == 1 runs the shard loop
    // inline with no pool at all (bit-identical by construction).
    poolSize_ = workers > 1 ? workers - 1 : 0;
}

void
Simulator::resetTickSets()
{
    for (Bucket &bucket : buckets_) {
        bucket.runList.clear();
        bucket.wakeHeap.clear();
        bucket.retireAt = 0;
    }
    std::fill(wakeAt_.begin(), wakeAt_.end(), kNoCycle);
    std::fill(retireCheckAt_.begin(), retireCheckAt_.end(), Cycle{0});
    std::fill(busyStreak_.begin(), busyStreak_.end(),
              std::uint8_t{0});
    for (std::size_t i = 0; i < components_.size(); ++i) {
        components_[i]->schedActive_ = 1;
        buckets_[bucketOf_[i]].runList.push_back(i);
    }
}

std::vector<ShardStat>
Simulator::shardStats() const
{
    std::vector<ShardStat> stats;
    if (shards() == 0)
        return stats;
    stats.reserve(buckets_.size());
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        const Bucket &bucket = buckets_[b];
        ShardStat s;
        s.components = bucket.size;
        s.steps = bucket.steps;
        for (const Bucket &receiver : buckets_)
            s.boundarySends += receiver.receivedFrom[b];
        s.wallNs = bucket.wallNs;
        stats.push_back(s);
    }
    return stats;
}

void
Simulator::wake(Component *component, Cycle when)
{
    if (!fastPath_)
        return;
    const std::size_t idx = component->simIndex_;
    MDW_ASSERT(idx < components_.size() &&
                   components_[idx] == component,
               "wake for component not registered here");
    // During a phase every bucket may only wake its own components
    // (cross-bucket sends defer their wakes to the mailbox drain).
    MDW_ASSERT(shardctx::current < 0
                   ? !concurrent_ || bucketOf_[idx] + 1 == buckets_.size()
                   : bucketOf_[idx] == static_cast<std::uint32_t>(
                                           shardctx::current),
               "cross-bucket wake of %s during a phase",
               component->name().c_str());
    if (component->schedActive_) {
        // Already ticking; the retire pass re-evaluates nextWork()
        // every stepped cycle, which subsumes this wake (and an
        // immediate activate() would be a no-op anyway).
        return;
    }
    if (when <= now_) {
        // Due immediately: join the tick set for this very cycle (or
        // the next one if the traversal already passed this index --
        // which matches when the cycle path would have seen the
        // freshly-posted state).
        activate(idx);
        return;
    }
    if (when < wakeAt_[idx]) {
        wakeAt_[idx] = when;
        Bucket &bucket = buckets_[bucketOf_[idx]];
        bucket.wakeHeap.push_back(Wake{when, idx});
        std::push_heap(bucket.wakeHeap.begin(), bucket.wakeHeap.end(),
                       std::greater<Wake>());
    }
}

void
Simulator::activate(std::size_t idx)
{
    Component *component = components_[idx];
    if (component->schedActive_)
        return;
    component->schedActive_ = 1;
    busyStreak_[idx] = 0;
    retireCheckAt_[idx] = 0;
    Bucket &bucket = buckets_[bucketOf_[idx]];
    const auto it = std::lower_bound(bucket.runList.begin(),
                                     bucket.runList.end(), idx);
    const auto pos =
        static_cast<std::size_t>(it - bucket.runList.begin());
    bucket.runList.insert(it, idx);
    // If the traversal already passed the insertion point, this
    // component is stepped starting next cycle; bump the cursor so the
    // in-flight traversal is not perturbed.
    if (bucket.stepping && pos < bucket.cursor)
        ++bucket.cursor;
}

void
Simulator::wakeDue(std::size_t b)
{
    Bucket &bucket = buckets_[b];
    while (!bucket.wakeHeap.empty() &&
           bucket.wakeHeap.front().when <= now_) {
        const Wake wake = bucket.wakeHeap.front();
        std::pop_heap(bucket.wakeHeap.begin(), bucket.wakeHeap.end(),
                      std::greater<Wake>());
        bucket.wakeHeap.pop_back();
        if (wakeAt_[wake.idx] == wake.when)
            wakeAt_[wake.idx] = kNoCycle;
        // Stale entries cause at worst a spurious no-op step.
        activate(wake.idx);
    }
}

void
Simulator::retireIdle(std::size_t b)
{
    Bucket &bucket = buckets_[b];
    // While most of the bucket is busy (a contended run), probing
    // nextWork() every cycle is pure overhead: skip whole retire
    // passes on a short bucket stride, and within a pass back off
    // per-component probes that keep reporting work. A component kept
    // active past its last real work only absorbs no-op steps, which
    // cannot change results; the moment the bucket drains below half,
    // probing is exact again so fully-idle systems still deregister
    // completely.
    // "Contended" from a quarter of the bucket (and at least eight
    // components) active: drain phases hover well below half-active
    // while still churning, and exact per-cycle probing there costs
    // more than the no-op steps it saves. Below the threshold probing
    // is exact again, so a system that goes quiescent still
    // deregisters completely the moment its last components report
    // no work, however small its shards are.
    const bool contended = bucket.runList.size() >= 8 &&
                           bucket.runList.size() * 4 >= bucket.size;
    if (contended && now_ < bucket.retireAt)
        return;
    std::size_t keep = 0;
    for (std::size_t r = 0; r < bucket.runList.size(); ++r) {
        const std::size_t idx = bucket.runList[r];
        if (contended && now_ < retireCheckAt_[idx]) {
            bucket.runList[keep++] = idx;
            continue;
        }
        const Cycle nw = components_[idx]->nextWork(now_);
        // While contended, a component whose next work is only a few
        // cycles out is cheaper to keep ticking (no-op steps) than to
        // retire: the wake-heap push/pop plus the sorted re-insert
        // into the run list cost more than the skipped steps, and
        // under load components oscillate constantly.
        const Cycle horizon = contended ? now_ + 8 : now_ + 1;
        if (nw <= horizon) {
            if (contended) {
                if (nw <= now_ + 1) {
                    // Stride doubles up to 32 cycles: a component
                    // busy for hundreds of cycles costs ~1 probe per
                    // 32, and the worst-case retirement delay stays
                    // trivial next to its busy period.
                    if (busyStreak_[idx] < 5)
                        ++busyStreak_[idx];
                    retireCheckAt_[idx] =
                        now_ + (Cycle{1} << busyStreak_[idx]);
                } else {
                    // Re-probe when its declared work comes due.
                    retireCheckAt_[idx] = nw;
                }
            }
            bucket.runList[keep++] = idx;
            continue;
        }
        busyStreak_[idx] = 0;
        components_[idx]->schedActive_ = 0;
        if (nw != kNoCycle && nw < wakeAt_[idx]) {
            wakeAt_[idx] = nw;
            bucket.wakeHeap.push_back(Wake{nw, idx});
            std::push_heap(bucket.wakeHeap.begin(),
                           bucket.wakeHeap.end(),
                           std::greater<Wake>());
        }
    }
    bucket.runList.resize(keep);
    if (contended)
        bucket.retireAt = now_ + 8;
}

void
Simulator::stepBucket(std::size_t b)
{
    Bucket &bucket = buckets_[b];
    bucket.stepping = true;
    if (bucket.runList.size() == components_.size()) {
        // Saturated tick set (every cycle with idle-skipping off, and
        // the common contended state with it on): the bucket holds
        // every component, so its sorted run list is exactly 0..N-1.
        // Traverse components_ directly, without the per-step
        // indirection and bounds check. Nothing can be activated
        // mid-step because everything already is.
        bucket.cursor = bucket.runList.size();
        for (Component *c : components_)
            c->step(now_);
        bucket.steps += components_.size();
    } else {
        bucket.cursor = 0;
        while (bucket.cursor < bucket.runList.size()) {
            Component *c = components_[bucket.runList[bucket.cursor]];
            ++bucket.cursor;
            c->step(now_);
            ++bucket.steps;
        }
    }
    bucket.stepping = false;
}

void
Simulator::boundaryDirty(std::uint32_t srcShard, std::uint32_t dstShard,
                         BoundaryChannel *channel)
{
    MDW_ASSERT(srcShard < buckets_.size() && dstShard < buckets_.size(),
               "boundary channel from shard %u to shard %u", srcShard,
               dstShard);
    buckets_[srcShard].dirty[dstShard].push_back(channel);
}

void
Simulator::flushInbound(std::size_t dst)
{
    // Deterministic drain order: sending shards in index order,
    // channels in the order they went dirty (each shard steps
    // sequentially, so that order is itself deterministic), items in
    // send order. Results do not depend on this order -- every
    // mailbox feeds its own channel queue and the wake requests
    // commute -- but a fixed order keeps internal heap layouts
    // reproducible too.
    Bucket &receiver = buckets_[dst];
    for (std::size_t src = 0; src < buckets_.size(); ++src) {
        std::vector<BoundaryChannel *> &dirty = buckets_[src].dirty[dst];
        for (BoundaryChannel *ch : dirty)
            receiver.receivedFrom[src] +=
                static_cast<std::uint64_t>(ch->flushBoundary());
        dirty.clear();
    }
}

void
Simulator::runBucketPhase(int phase, std::size_t bucket)
{
    if (phase == 0) {
        stepBucket(bucket);
    } else {
        flushInbound(bucket);
        if (fastPath_)
            retireIdle(bucket);
    }
}

void
Simulator::runShardTask(int phase, std::size_t shard)
{
    const auto start = std::chrono::steady_clock::now();
    shardctx::current = static_cast<int>(shard);
    runBucketPhase(phase, shard);
    shardctx::current = -1;
    buckets_[shard].wallNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

namespace {

/** Spin-wait hint to the core (a no-op where there is none). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

} // namespace

template <typename Pred>
void
Simulator::poolAwait(Pred ready)
{
    // Phases follow each other with only the main thread's short
    // bookkeeping (due wakes, events, the progress fold, the
    // watchdog) in between, so the other side is usually back within
    // microseconds: spin first, then yield the core, and only block
    // on the condition variable after a quiet stretch (between runs,
    // or on an oversubscribed host). Waking a blocked thread costs
    // tens of microseconds, which at two phases per cycle would
    // dominate the cycle time.
    for (int i = 0; i < 256; ++i) {
        if (ready())
            return;
        cpuRelax();
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(500);
    while (std::chrono::steady_clock::now() < deadline) {
        if (ready())
            return;
        std::this_thread::yield();
    }
    std::unique_lock<std::mutex> lock(poolMutex_);
    poolSleepers_.fetch_add(1);
    poolCv_.wait(lock, ready);
    poolSleepers_.fetch_sub(1);
}

void
Simulator::poolNotify()
{
    // The caller published its state change with a seq_cst store; a
    // waiter registers as a sleeper (under the mutex) before its last
    // check, so either it sees the change or it is counted here.
    if (poolSleepers_.load() == 0)
        return;
    std::lock_guard<std::mutex> lock(poolMutex_);
    poolCv_.notify_all();
}

void
Simulator::runPhase(int phase)
{
    const std::size_t shards = buckets_.size() - 1;
    if (shards == 0) {
        runBucketPhase(phase, shards);
        return;
    }
    if (pool_.empty() && poolSize_ > 0)
        startPool(poolSize_);
    concurrent_ = true;
    poolPhase_ = phase;
    poolNextShard_.store(0, std::memory_order_relaxed);
    if (!pool_.empty()) {
        // Workers read the fields above after they see the new
        // generation.
        poolPending_.store(pool_.size(), std::memory_order_relaxed);
        poolGeneration_.fetch_add(1);
        poolNotify();
    }
    // The main thread owns the serial bucket; it joins the shard
    // queue once that is done.
    runBucketPhase(phase, shards);
    std::size_t s;
    while ((s = poolNextShard_.fetch_add(1)) < shards)
        runShardTask(phase, s);
    if (!pool_.empty())
        poolAwait([this] { return poolPending_.load() == 0; });
    concurrent_ = false;
}

void
Simulator::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        poolAwait([&] {
            return poolExit_.load() || poolGeneration_.load() != seen;
        });
        if (poolExit_.load())
            return;
        seen = poolGeneration_.load();
        const int phase = poolPhase_;
        const std::size_t shards = buckets_.size() - 1;
        std::size_t s;
        while ((s = poolNextShard_.fetch_add(1)) < shards)
            runShardTask(phase, s);
        if (poolPending_.fetch_sub(1) == 1)
            poolNotify();
    }
}

void
Simulator::startPool(unsigned threads)
{
    poolExit_.store(false);
    pool_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool_.emplace_back([this] { workerLoop(); });
}

void
Simulator::stopPool()
{
    if (pool_.empty())
        return;
    poolExit_.store(true);
    poolNotify();
    for (std::thread &t : pool_)
        t.join();
    pool_.clear();
    poolExit_.store(false);
}

void
Simulator::stepOne()
{
    const std::size_t serial = buckets_.size() - 1;
    for (std::size_t b = 0; b <= serial; ++b)
        wakeDue(b);
    events_.runDue(now_);
    runPhase(0);
    for (char &progress : shardProgress_) {
        if (progress) {
            progress = 0;
            lastProgress_ = now_;
        }
    }
    runPhase(1);
    checkWatchdog();
    ++now_;
}

std::size_t
Simulator::activeCount() const
{
    std::size_t total = 0;
    for (const Bucket &bucket : buckets_)
        total += bucket.runList.size();
    return total;
}

Cycle
Simulator::nextActivity(Cycle limit) const
{
    if (!fastPath_)
        return now_;
    Cycle target = limit;
    for (const Bucket &bucket : buckets_) {
        if (!bucket.runList.empty())
            return now_;
        if (!bucket.wakeHeap.empty() &&
            bucket.wakeHeap.front().when < target)
            target = bucket.wakeHeap.front().when;
    }
    const Cycle event = events_.nextEventCycle();
    if (event < target)
        target = event;
    if (watchdogQuiet_ > 0 && !deadlocked_ && watchdogHasWork_ &&
        watchdogHasWork_()) {
        // No component will mutate state before `target`, so hasWork
        // stays true across the whole gap: the watchdog must get its
        // chance to trip at exactly the cycle the cycle path would.
        const Cycle trip = lastProgress_ + watchdogQuiet_;
        if (trip < target)
            target = trip;
    }
    return target < now_ ? now_ : target;
}

void
Simulator::run(Cycle cycles)
{
    const Cycle limit = now_ + cycles;
    while (now_ < limit && !deadlocked_) {
        now_ = nextActivity(limit);
        if (now_ >= limit)
            break;
        stepOne();
    }
    // The cycle path leaves now_ == limit; keep that invariant when
    // the final skip overshoots nothing (nextActivity never exceeds
    // limit, so this only rounds up the empty tail).
    if (!deadlocked_ && now_ < limit)
        now_ = limit;
}

bool
Simulator::runUntil(const std::function<bool()> &done, Cycle maxCycles)
{
    const Cycle limit = now_ + maxCycles;
    while (now_ < limit && !deadlocked_) {
        if (done())
            return true;
        now_ = nextActivity(limit);
        if (now_ >= limit)
            break;
        stepOne();
    }
    return done();
}

void
Simulator::setWatchdog(Cycle quietLimit, std::function<bool()> hasWork,
                       std::function<void()> onTrip)
{
    watchdogQuiet_ = quietLimit;
    watchdogHasWork_ = std::move(hasWork);
    watchdogOnTrip_ = std::move(onTrip);
    lastProgress_ = now_;
}

void
Simulator::checkWatchdog()
{
    if (watchdogQuiet_ == 0 || deadlocked_)
        return;
    if (now_ - lastProgress_ < watchdogQuiet_)
        return;
    if (!watchdogHasWork_ || !watchdogHasWork_())
        return;
    deadlocked_ = true;
    if (watchdogOnTrip_) {
        watchdogOnTrip_();
    } else {
        panic("watchdog: no progress for %llu cycles at cycle %llu "
              "with work pending",
              static_cast<unsigned long long>(watchdogQuiet_),
              static_cast<unsigned long long>(now_));
    }
}

} // namespace mdw
