/**
 * @file
 * The per-component wake state both engines keep for idle elision.
 */

#ifndef STACKNOC_ENGINE_WAKE_SET_HH
#define STACKNOC_ENGINE_WAKE_SET_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/shard_plan.hh"

namespace stacknoc::engine {

/**
 * Active flags and wake stamps for one list of plan items (the
 * sequential schedule, one shard, or the serial list), 1:1 with the
 * items.
 *
 * A component is due in cycle c when its active flag is set or its
 * stamp holds c's bit (Ticking::wakeAt). Channel pushes only ever set
 * the bit of the cycle after the push, so during cycle c a stamp is
 * written for c+1 while the owner consumes c's bit: the two never
 * collide, and c's bit is complete before c starts.
 */
struct WakeSet
{
    explicit WakeSet(std::size_t n = 0) { reset(n); }

    /** Size for @p n items, everything awake and no stamps pending. */
    void
    reset(std::size_t n)
    {
        active.assign(n, 1);
        // A cache line of padding on each side: senders on other
        // threads write these bytes, so no other data may share their
        // lines.
        stampStore_ =
            std::make_unique<std::atomic<std::uint8_t>[]>(n + 2 * kLine);
        stamp = stampStore_.get() + kLine;
    }

    /**
     * Point the items' wakes at this set (or, @p bind false, away).
     * @p wake_now: channel pushes also set the active flag at once
     * (single-threaded engines only; see Ticking::bindWakeFlag).
     */
    void
    bind(const std::vector<ShardItem> &items, bool bind,
         bool wake_now = false)
    {
        for (std::size_t i = 0; i < items.size(); ++i) {
            if (bind)
                items[i].component->bindWakeFlag(&active[i], &stamp[i],
                                                 wake_now);
            else
                items[i].component->unbindWakeFlag(&active[i]);
        }
    }

    /**
     * Whether item @p i must tick in the cycle whose stamp bit is
     * @p bit, consuming that bit. The clear is an atomic AND because a
     * sender on another thread may be setting the next cycle's bit in
     * the same byte.
     */
    bool
    due(std::size_t i, std::uint8_t bit)
    {
        std::atomic<std::uint8_t> &s = stamp[i];
        if ((s.load(std::memory_order_relaxed) & bit) == 0)
            return active[i] != 0;
        s.fetch_and(static_cast<std::uint8_t>(~bit),
                    std::memory_order_relaxed);
        return true;
    }

    /**
     * Between cycles: whether item @p i ticks next cycle. A stamp then
     * holds only the next cycle's bit, so it means what an active flag
     * means, and the checkpoint folds the two into one flag.
     */
    bool
    awake(std::size_t i) const
    {
        return active[i] != 0 ||
               stamp[i].load(std::memory_order_relaxed) != 0;
    }

    /** Drop every stamp, leaving the active flags as the whole wake
     *  state (checkpoint restore). */
    void
    clearStamps()
    {
        for (std::size_t i = 0; i < active.size(); ++i)
            stamp[i].store(0, std::memory_order_relaxed);
    }

    /**
     * Active flags. Written by the list's owning thread (deactivation
     * after a quiescent tick, same-shard direct-call wakes) or by the
     * main thread between phases, never concurrently.
     */
    std::vector<std::uint8_t> active;
    /** Wake stamps: bit (c & 1) set means "tick in cycle c". Written by
     *  channel senders on any thread. */
    std::atomic<std::uint8_t> *stamp = nullptr;
    /** Component ticks executed (occupancy telemetry). */
    std::uint64_t ticked = 0;

  private:
    static constexpr std::size_t kLine = 64;
    std::unique_ptr<std::atomic<std::uint8_t>[]> stampStore_;
};

} // namespace stacknoc::engine

#endif // STACKNOC_ENGINE_WAKE_SET_HH
