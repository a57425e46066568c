/**
 * @file
 * The boundary-mode protocol between channels and the sharded
 * scheduler. Split out of sim/system.hh so sim/channel.hh can attach
 * to the registrar without pulling in the Simulator's definition.
 */

#ifndef MDW_SIM_BOUNDARY_HH
#define MDW_SIM_BOUNDARY_HH

#include <cstddef>
#include <cstdint>

#include "sim/logging.hh"

namespace mdw {

class BoundaryChannel;

/**
 * Who a boundary channel reports its first buffered send of a cycle
 * to. Implemented by the Simulator.
 */
class BoundaryRegistrar
{
  public:
    virtual ~BoundaryRegistrar() = default;

    /** Called (once per dirty episode) by the sending shard; the
     *  receiver lives in bucket @p dstShard. */
    virtual void boundaryDirty(std::uint32_t srcShard,
                               std::uint32_t dstShard,
                               BoundaryChannel *channel) = 0;
};

/**
 * A channel that can run in boundary mode: its sends are buffered into
 * a per-channel mailbox instead of touching the receiver-visible
 * queue, and the receiver's thread drains the mailbox after the step
 * phase (in deterministic shard/registration order) by calling
 * flushBoundary().
 * This base owns the protocol; a subclass owns only its mailbox.
 */
class BoundaryChannel
{
  public:
    virtual ~BoundaryChannel() = default;

    /**
     * Switch into boundary mode, reporting to @p registrar as the
     * sending component's shard @p srcShard; the receiving component
     * lives in bucket @p dstShard. Pass null to revert to direct
     * delivery. Only legal with the mailbox empty.
     */
    void
    setBoundary(BoundaryRegistrar *registrar, std::uint32_t srcShard,
                std::uint32_t dstShard)
    {
        MDW_ASSERT(!dirty_, "boundary mode change with buffered sends");
        registrar_ = registrar;
        srcShard_ = srcShard;
        dstShard_ = dstShard;
    }

    /** Move buffered sends into the receiver-visible queue and apply
     *  the deferred sink wakes. Returns the number of items moved.
     *  Runs on the thread that steps the receiver, while the sending
     *  shard is quiescent. */
    virtual std::size_t flushBoundary() = 0;

  protected:
    /** True while sends must go to the mailbox. */
    bool boundary() const { return registrar_ != nullptr; }

    /** Record a buffered send: the first one of a dirty episode
     *  registers this channel for the flush. */
    void
    noteBuffered()
    {
        if (dirty_)
            return;
        dirty_ = true;
        registrar_->boundaryDirty(srcShard_, dstShard_, this);
    }

    /** End the dirty episode (flushBoundary() drained the mailbox). */
    void noteFlushed() { dirty_ = false; }

  private:
    BoundaryRegistrar *registrar_ = nullptr;
    std::uint32_t srcShard_ = 0;
    std::uint32_t dstShard_ = 0;
    /** Set by the sending shard's thread, cleared by the flush. */
    bool dirty_ = false;
};

} // namespace mdw

#endif // MDW_SIM_BOUNDARY_HH
