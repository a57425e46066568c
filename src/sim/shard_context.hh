/**
 * @file
 * Thread-local shard context for the sharded scheduler.
 *
 * While a worker thread advances one shard through the parallel
 * phase of a cycle, it publishes the shard index here so that
 * shard-routed facilities (the worm tracer's per-shard rings, the
 * simulator's per-shard progress flags) can file writes under the
 * right shard without taking a lock. Serial contexts — the flat
 * scheduler, the serial bucket of a sharded cycle, everything outside
 * stepping — leave the index at -1 and take the ordinary
 * single-threaded path.
 */

#ifndef MDW_SIM_SHARD_CONTEXT_HH
#define MDW_SIM_SHARD_CONTEXT_HH

namespace mdw {
namespace shardctx {

/** Shard currently being stepped by this thread, or -1. */
extern thread_local int current;

} // namespace shardctx
} // namespace mdw

#endif // MDW_SIM_SHARD_CONTEXT_HH
