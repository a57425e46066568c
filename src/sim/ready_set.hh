/**
 * @file
 * Fixed-width bitset over small indices (switch ports, or
 * laneIdx-flattened (port, lane) slots) that a switch keeps as the
 * set of entries a pipeline stage has work for.
 *
 * Stages iterate only the set bits, in ascending index order, so a
 * stage visits the same entries in the same order as a full scan
 * that skips the inactive ones. Channels hold a pointer into a
 * set's storage (a ReadyFlag) to flag their receiver's port
 * when an item lands, so the storage is sized once at construction
 * and never moves. A set of at most 64 bits lives in one inline
 * word.
 */

#ifndef MDW_SIM_READY_SET_HH
#define MDW_SIM_READY_SET_HH

#include <cstddef>
#include <cstdint>
#include <memory>

namespace mdw {

/**
 * One bit of a receiver's ReadySet, held by a channel: raised when
 * an item becomes visible in the channel's receive queue, lowered
 * when the receiver drains the queue. Unattached (the default) it
 * does nothing.
 */
struct ReadyFlag
{
    std::uint64_t *word = nullptr;
    std::uint64_t bit = 0;

    void
    raise() const
    {
        if (word != nullptr)
            *word |= bit;
    }

    void
    lower() const
    {
        if (word != nullptr)
            *word &= ~bit;
    }
};

class ReadySet
{
  public:
    /** An empty set over indices [0, @p bits). */
    explicit ReadySet(std::size_t bits)
        : nwords_(bits == 0 ? 1 : (bits + 63) / 64)
    {
        if (nwords_ > 1) {
            heap_ = std::make_unique<std::uint64_t[]>(nwords_);
            words_ = heap_.get();
        }
    }

    // Channels point into the storage: the set never moves.
    ReadySet(const ReadySet &) = delete;
    ReadySet &operator=(const ReadySet &) = delete;

    /** Channel-side handle on index @p i (stable for the set's
     *  life). */
    ReadyFlag
    flag(std::size_t i)
    {
        return ReadyFlag{&words_[i >> 6], bit(i)};
    }

    void set(std::size_t i) { words_[i >> 6] |= bit(i); }
    void reset(std::size_t i) { words_[i >> 6] &= ~bit(i); }
    bool test(std::size_t i) const
    {
        return (words_[i >> 6] & bit(i)) != 0;
    }

    /** True if any index is set. */
    bool
    any() const
    {
        if (nwords_ == 1)
            return inline_ != 0;
        for (std::size_t w = 0; w < nwords_; ++w) {
            if (words_[w] != 0)
                return true;
        }
        return false;
    }

    /**
     * Call @p f(i) for every set index i, ascending. @p f may clear
     * or set index i itself (the walk has already passed it). Whether
     * the walk sees a change @p f makes to a later index is
     * unspecified, so a caller that changes one must cope with both
     * (forEachPortLane skips a port it has already served).
     */
    template <typename F>
    void
    forEach(F &&f) const
    {
        walk([](std::uint64_t own, std::size_t) { return own; }, f);
    }

    /** forEach over the indices set here and in @p mask (a set of
     *  the same size). */
    template <typename F>
    void
    forEachAnd(const ReadySet &mask, F &&f) const
    {
        walk([&mask](std::uint64_t own, std::size_t w) {
            return own & mask.words_[w];
        }, f);
    }

    /** forEach over the indices set here but not in @p mask (a set
     *  of the same size). */
    template <typename F>
    void
    forEachAndNot(const ReadySet &mask, F &&f) const
    {
        walk([&mask](std::uint64_t own, std::size_t w) {
            return own & ~mask.words_[w];
        }, f);
    }

  private:
    /** Mask of index @p i within its word. */
    static std::uint64_t bit(std::size_t i)
    {
        return std::uint64_t{1} << (i & 63);
    }

    template <typename F>
    static void
    walkWord(std::uint64_t bits, std::size_t base, F &f)
    {
        while (bits != 0) {
            const auto b = static_cast<std::size_t>(__builtin_ctzll(bits));
            bits &= bits - 1;
            f(base + b);
        }
    }

    template <typename Combine, typename F>
    void
    walk(Combine combine, F &f) const
    {
        if (nwords_ == 1) {
            walkWord(combine(inline_, 0), 0, f);
            return;
        }
        for (std::size_t w = 0; w < nwords_; ++w)
            walkWord(combine(words_[w], w), w * 64, f);
    }

    std::size_t nwords_;
    std::uint64_t inline_ = 0;
    std::unique_ptr<std::uint64_t[]> heap_;
    std::uint64_t *words_ = &inline_;
};

} // namespace mdw

#endif // MDW_SIM_READY_SET_HH
