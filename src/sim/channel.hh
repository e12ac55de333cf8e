/**
 * @file
 * Fixed-latency typed channels: the only legal way for two Ticking
 * components to exchange state.
 *
 * A channel is a single-producer/single-consumer ring with a fixed
 * delivery latency L >= 1. Each entry carries the cycle it becomes
 * receivable (push cycle + L). The sender publishes an entry with a
 * release store of the tail index; the receiver acquires the tail and
 * pops only entries whose ready cycle has been reached. A value pushed
 * during cycle t is therefore never receivable during cycle t, so what
 * a receiver consumes never depends on whether its sender, ticking on
 * another thread in the same cycle, has pushed yet. That is what lets
 * the sharded engine run sender and receiver concurrently with no
 * commit step between cycles.
 */

#ifndef STACKNOC_SIM_CHANNEL_HH
#define STACKNOC_SIM_CHANNEL_HH

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/ticking.hh"

namespace stacknoc {

namespace snapshot {
class StateIO;
} // namespace snapshot

/**
 * A unidirectional pipe with a fixed delivery latency of >= 1 cycle.
 *
 * A value pushed during cycle t becomes receivable during cycle
 * t + latency. Multiple values may be pushed per cycle (bandwidth policing
 * is the sender's job); receivers drain all arrived values.
 *
 * Exactly one component may send on a channel and exactly one may
 * receive. The ring holds at most `capacity` values in flight, a bound
 * the owner must prove (a link's credit total bounds both its flits and
 * its returning credits); a push past it panics.
 *
 * Every push wakes the wake target (Ticking::wakeAt) for the cycle
 * after the push, which is the earliest cycle any latency can deliver
 * it in.
 */
template <typename T>
class alignas(64) Channel
{
  public:
    Channel(Cycle latency, std::size_t capacity)
        : latency_(latency),
          capacity_(static_cast<std::uint32_t>(capacity)),
          mask_(static_cast<std::uint32_t>(std::bit_ceil(capacity) - 1))
    {
        panic_if(latency == 0, "Channel latency must be >= 1");
        panic_if(capacity == 0 || capacity > (1u << 30),
                 "Channel capacity must be in [1, 2^30]");
        // Raw storage: push constructs an entry and receive destroys
        // it, so building a system's thousands of channels touches no
        // slot memory.
        slots_ = std::allocator<Entry>().allocate(std::size_t{mask_} + 1);
    }

    ~Channel()
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        for (std::size_t i = head_.load(std::memory_order_relaxed);
             i != tail; ++i)
            std::destroy_at(&slots_[i & mask_]);
        std::allocator<Entry>().deallocate(slots_, std::size_t{mask_} + 1);
    }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Declare @p t the receiving component: every push wakes it. */
    void setWakeTarget(Ticking *t) { wakeTarget_ = t; }

    /** Enqueue a value during cycle @p now (sender only). */
    void
    push(Cycle now, T value)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail - headCache_ >= capacity_) {
            // The acquire orders the receiver's reads of the slots it
            // freed before this thread overwrites them.
            headCache_ = head_.load(std::memory_order_acquire);
            panic_if(tail - headCache_ >= capacity_,
                     "Channel overflow: %zu values in flight (capacity "
                     "%zu)",
                     tail - headCache_, std::size_t{capacity_});
        }
        std::construct_at(&slots_[tail & mask_],
                          Entry{now + latency_, std::move(value)});
        tail_.store(tail + 1, std::memory_order_release);
        if (wakeTarget_ != nullptr)
            wakeTarget_->wakeAt(now + 1);
    }

    /**
     * Dequeue the next value whose delivery time has been reached
     * (receiver only).
     * @return the value, or std::nullopt if nothing has arrived yet.
     */
    std::optional<T>
    receive(Cycle now)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head == tailCache_) {
            tailCache_ = tail_.load(std::memory_order_acquire);
            if (head == tailCache_)
                return std::nullopt;
        }
        Entry &e = slots_[head & mask_];
        if (e.ready > now)
            return std::nullopt;
        T v = std::move(e.value);
        std::destroy_at(&e);
        head_.store(head + 1, std::memory_order_release);
        return v;
    }

    /** @return whether a value is ready at cycle @p now without popping. */
    bool
    ready(Cycle now) const
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        return head != tail_.load(std::memory_order_acquire) &&
               slots_[head & mask_].ready <= now;
    }

    /** @return number of values in flight, arrived or not (between
     *  cycles only: during a cycle the sender may still be pushing). */
    std::size_t
    inFlight() const
    {
        return tail_.load(std::memory_order_acquire) -
               head_.load(std::memory_order_relaxed);
    }

    /**
     * @return number of values pushed before cycle @p now still in
     * flight (ready < now + latency): what the receiver may count
     * during cycle @p now. A value pushed during @p now is left out
     * whether or not its sender, on another thread, has pushed it yet,
     * so the count never depends on thread timing; the push's wake
     * stamp covers it instead.
     */
    std::size_t
    inFlight(Cycle now) const
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        std::size_t tail = tail_.load(std::memory_order_acquire);
        while (tail != head &&
               slots_[(tail - 1) & mask_].ready >= now + latency_)
            --tail;
        return tail - head;
    }

    /**
     * Visit every in-flight value, oldest first. Between cycles only
     * (validation census); must not be used to smuggle state between
     * components ahead of the delivery latency.
     */
    template <typename Fn>
    void
    forEachInFlight(Fn fn) const
    {
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        for (std::size_t i = head_.load(std::memory_order_relaxed);
             i != tail; ++i)
            fn(slots_[i & mask_].value);
    }

    Cycle latency() const { return latency_; }
    std::size_t capacity() const { return capacity_; }

  private:
    /** Checkpointing reads the in-flight entries (with delivery times)
     *  between cycles and refills an empty ring without waking anyone:
     *  the engine active set travels in the checkpoint. */
    friend class snapshot::StateIO;

    struct Entry
    {
        Cycle ready;
        T value;
    };

    // One cache line holds the whole header, so a receiver polling an
    // empty port touches one line. Splitting the sender's and the
    // receiver's indices onto separate lines costs the sequential
    // engine a second line per poll and saves the sharded engine little:
    // a cross-shard push and its pop move the line either way.
    Cycle latency_;
    Entry *slots_;
    Ticking *wakeTarget_ = nullptr;
    std::atomic<std::size_t> tail_{0};
    std::atomic<std::size_t> head_{0};
    std::size_t headCache_ = 0; //!< sender's last view of head_
    std::size_t tailCache_ = 0; //!< receiver's last view of tail_
    std::uint32_t capacity_;
    std::uint32_t mask_;
};

} // namespace stacknoc

#endif // STACKNOC_SIM_CHANNEL_HH
