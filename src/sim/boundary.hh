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

    /** Called (once per dirty episode) by the sending shard. */
    virtual void boundaryDirty(std::uint32_t srcShard,
                               BoundaryChannel *channel) = 0;
};

/**
 * A channel that can run in boundary mode: its sends are buffered into
 * a per-channel mailbox instead of touching the receiver-visible
 * queue, and the simulator drains the mailbox at the cycle barrier (in
 * deterministic shard/registration order) by calling flushBoundary().
 * This base owns the protocol; a subclass owns only its mailbox.
 */
class BoundaryChannel
{
  public:
    virtual ~BoundaryChannel() = default;

    /**
     * Switch into boundary mode, reporting to @p registrar as the
     * sending component's shard @p srcShard. Pass null to revert to
     * direct delivery. Only legal with the mailbox empty.
     */
    void
    setBoundary(BoundaryRegistrar *registrar, std::uint32_t srcShard)
    {
        MDW_ASSERT(!dirty_, "boundary mode change with buffered sends");
        registrar_ = registrar;
        srcShard_ = srcShard;
    }

    /** Move buffered sends into the receiver-visible queue and apply
     *  the deferred sink wakes. Returns the number of items moved. */
    virtual std::size_t flushBoundary() = 0;

  protected:
    /** True while sends must go to the mailbox. */
    bool boundary() const { return registrar_ != nullptr; }

    /** Record a buffered send: the first one of a dirty episode
     *  registers this channel for the barrier flush. */
    void
    noteBuffered()
    {
        if (dirty_)
            return;
        dirty_ = true;
        registrar_->boundaryDirty(srcShard_, this);
    }

    /** End the dirty episode (flushBoundary() drained the mailbox). */
    void noteFlushed() { dirty_ = false; }

  private:
    BoundaryRegistrar *registrar_ = nullptr;
    std::uint32_t srcShard_ = 0;
    /** Set by the sending shard's thread, cleared at the barrier. */
    bool dirty_ = false;
};

} // namespace mdw

#endif // MDW_SIM_BOUNDARY_HH
