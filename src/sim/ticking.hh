/**
 * @file
 * Interface for cycle-driven components.
 */

#ifndef STACKNOC_SIM_TICKING_HH
#define STACKNOC_SIM_TICKING_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace stacknoc {

/**
 * Coarse component classification used by the execution engines to batch
 * the per-cycle tick walk into per-kind loops (devirtualized dispatch)
 * and to order those loops deterministically. The enumerator order IS
 * the within-cycle tick order of the kind-batched schedule; it mirrors
 * the registration order CmpSystem has always used (network first, then
 * memory, then cores), so every direct-call contract (NI delivers before
 * its bank ticks, an L1 ticks before its core) is preserved.
 */
enum class TickKind : std::uint8_t {
    Router = 0,
    NetworkInterface,
    RcaFabric,
    L2Bank,
    MemoryController,
    L1Cache,
    Core,
    Other, //!< anything the engines only know through the vtable
};

constexpr int kNumTickKinds = static_cast<int>(TickKind::Other) + 1;

/**
 * A component evaluated once per clock cycle.
 *
 * All inter-component communication must flow through latency-1 (or more)
 * Channel objects, which makes simulation results independent of the order
 * in which components are ticked within a cycle.
 *
 * ## Quiescence and wake (idle elision)
 *
 * A component may additionally implement quiescent(): returning true is a
 * promise that tick() is a no-op — no state changes, no stats samples, no
 * channel pushes — and will remain one every cycle until some external
 * event (a channel push or a direct method call) perturbs the component.
 * The execution engines use this to drop quiescent components from the
 * active set; wake() (direct calls) and wakeAt() (channel pushes) re-arm
 * them. The contract is asymmetric on purpose:
 * a spurious wake() costs one wasted tick, a missed wake diverges the
 * simulation, so every mutating entry point must wake conservatively.
 * Components that cannot prove idleness keep the default (never
 * quiescent) and are simply always ticked.
 */
class Ticking
{
  public:
    explicit Ticking(std::string name) : name_(std::move(name)) {}
    virtual ~Ticking() = default;

    Ticking(const Ticking &) = delete;
    Ticking &operator=(const Ticking &) = delete;

    /** Evaluate one cycle. @param now the cycle being evaluated. */
    virtual void tick(Cycle now) = 0;

    /**
     * @return true iff tick(now) — and every later tick until the next
     * wake() — would be a no-op. Must account for in-flight channel
     * payloads (a push wakes the receiver once, for the cycle after the
     * push, so a component with arrivals still in the pipe may not
     * sleep). Only channels whose pushes wake this component may be
     * counted: that is what makes a same-cycle push from another
     * thread harmless to the decision (see Channel::inFlight).
     */
    virtual bool quiescent(Cycle now) const
    {
        (void)now;
        return false;
    }

    /** @return the engine batching/ordering class of this component. */
    virtual TickKind tickKind() const { return TickKind::Other; }

    /** Re-arm this component in the owning engine's active set. */
    void wake()
    {
        if (wake_flag_ != nullptr)
            *wake_flag_ = 1;
    }

    /**
     * Re-arm this component for cycle @p cycle, which must be the cycle
     * after the caller's (a channel push during cycle t wakes for t+1).
     * With a wake stamp bound, the wake sets the stamp bit of @p cycle,
     * which the engine consumes when it walks that cycle. Bits for
     * different cycles never collide, so concurrent senders cannot lose
     * a wake, and no other thread's active flag is written unless the
     * binding asked for that too (see bindWakeFlag).
     */
    void wakeAt(Cycle cycle)
    {
        if (wake_stamp_ != nullptr) {
            const std::uint8_t bit = wakeBit(cycle);
            const std::uint8_t s =
                wake_stamp_->load(std::memory_order_relaxed);
            // With wake_now one thread owns every stamp, so a plain
            // store does; otherwise other senders may be stamping too.
            if ((s & bit) == 0 && wake_now_)
                wake_stamp_->store(s | bit, std::memory_order_relaxed);
            else if ((s & bit) == 0)
                wake_stamp_->fetch_or(bit, std::memory_order_relaxed);
        }
        if (wake_now_)
            wake();
    }

    /** The wake-stamp bit standing for @p cycle (its parity: a stamp
     *  only ever holds this cycle's and next cycle's wakes). */
    static std::uint8_t wakeBit(Cycle cycle)
    {
        return static_cast<std::uint8_t>(1u << (cycle & 1));
    }

    /**
     * Point wake() at an engine-owned active flag and wakeAt() at an
     * engine-owned wake stamp. With @p wake_now, wakeAt() also sets the
     * active flag at once, so a receiver later in the same cycle's walk
     * ticks in that cycle too; only an engine ticking everything on one
     * thread may ask for it (the sequential engine, whose schedule that
     * keeps). Without a stamp, wakeAt() is wake(). All are no-ops until
     * bound. The engine owns the storage; it must outlive the binding
     * and never reallocate.
     */
    void bindWakeFlag(std::uint8_t *flag,
                      std::atomic<std::uint8_t> *stamp = nullptr,
                      bool wake_now = true)
    {
        wake_flag_ = flag;
        wake_stamp_ = stamp;
        wake_now_ = wake_now || stamp == nullptr;
    }

    /** Unbind, but only if still bound to @p flag (engine teardown). */
    void unbindWakeFlag(const std::uint8_t *flag)
    {
        if (wake_flag_ == flag) {
            wake_flag_ = nullptr;
            wake_stamp_ = nullptr;
            wake_now_ = true;
        }
    }

    /** @return hierarchical component name, e.g. "net.router27". */
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::uint8_t *wake_flag_ = nullptr;
    std::atomic<std::uint8_t> *wake_stamp_ = nullptr;
    bool wake_now_ = true;
};

} // namespace stacknoc

#endif // STACKNOC_SIM_TICKING_HH
