#include "core/collectives.hh"

namespace mdw {

std::shared_ptr<CollectiveEngine::Op>
CollectiveEngine::newOp(std::size_t messages, Done done)
{
    ++pending_;
    return std::make_shared<Op>(Op{messages, std::move(done)});
}

void
CollectiveEngine::await(const std::shared_ptr<Op> &op, MsgId msg)
{
    net_.tracker().onRetired(msg, net_.sim().now(),
                             [this, op](Cycle now) {
                                 if (--op->outstanding > 0)
                                     return;
                                 --pending_;
                                 const Done done = std::move(op->done);
                                 if (done)
                                     done(now);
                             });
}

void
CollectiveEngine::broadcast(NodeId root, const DestSet &members,
                            int payload, Done done)
{
    MDW_ASSERT(!members.empty(), "broadcast to nobody");
    MDW_ASSERT(!members.test(root), "broadcast members include root");
    const auto op = newOp(1, std::move(done));
    await(op, net_.nic(root).postMulticast(members, payload,
                                           net_.sim().now()));
}

void
CollectiveEngine::barrier(NodeId root, const DestSet &members,
                          Done done)
{
    MDW_ASSERT(!members.empty(), "barrier with no members");
    MDW_ASSERT(!members.test(root), "barrier members include root");
    // Arrivals are a gather of control messages, the release a
    // broadcast of one.
    allreduce(root, members, kControlPayload, std::move(done));
}

void
CollectiveEngine::reduce(NodeId root, const DestSet &members,
                         int payload, Done done)
{
    MDW_ASSERT(!members.empty(), "reduction with no members");
    MDW_ASSERT(!members.test(root), "reduction members include root");
    // Count every contribution before posting any: a post whose
    // destination is written off retires inside the post.
    const auto op = newOp(members.count(), std::move(done));
    members.forEach([this, root, payload, &op](NodeId member) {
        await(op, net_.nic(member).postUnicast(root, payload,
                                               net_.sim().now()));
    });
}

void
CollectiveEngine::allreduce(NodeId root, const DestSet &members,
                            int payload, Done done)
{
    // Gather contributions, then broadcast the combined result.
    DestSet members_copy = members;
    Done done_copy = std::move(done);
    reduce(root, members, payload,
           [this, root, members_copy, payload,
            done_copy = std::move(done_copy)](Cycle) mutable {
               broadcast(root, members_copy, payload,
                         std::move(done_copy));
           });
}

} // namespace mdw
