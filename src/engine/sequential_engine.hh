/**
 * @file
 * The single-threaded tick loop behind the engine interface.
 */

#ifndef STACKNOC_ENGINE_SEQUENTIAL_ENGINE_HH
#define STACKNOC_ENGINE_SEQUENTIAL_ENGINE_HH

#include <cstdint>
#include <vector>

#include "engine/engine.hh"
#include "engine/shard_plan.hh"
#include "engine/wake_set.hh"

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::engine {

/**
 * Ticks every active component on the calling thread, walking the
 * kind-batched schedule (engine/shard_plan.hh) in ordinal order — the
 * reference tick order the sharded engine must be bit-identical to.
 *
 * With elision on (the default) a component reporting quiescent() after
 * its tick leaves the active set and is skipped until a direct call
 * wakes it or a channel push stamps it for the next cycle (the same
 * WakeSet the sharded engine keeps); the skipped ticks are no-ops by
 * the quiescence contract, so results match the full walk exactly. With elision off
 * every component ticks every cycle, in the same schedule order.
 *
 * The loop walks the schedule one kind run at a time. With a profiler
 * installed it also reads the clock once at the end of each run,
 * charging the run to its kind with chained timestamps, so phase
 * durations tile the measured wall time. Only the clock reads differ:
 * tick order, and therefore every simulation result, is the same.
 */
class SequentialEngine : public ExecutionEngine
{
  public:
    explicit SequentialEngine(Simulator &sim, bool elide = true)
        : ExecutionEngine(sim, elide)
    {}
    ~SequentialEngine() override;

    void run(Cycle cycles) override;
    const char *name() const override { return "sequential"; }
    int threads() const override { return 1; }

  private:
    friend class snapshot::StateIO; //!< checkpoints the active set

    /** (Re)build the schedule when the registry changed; rebind flags. */
    void ensureSchedule();
    void unbindFlags();

    /** The kind-batched schedule, parallel items then serial items. */
    std::vector<ShardItem> order_;
    /** order_'s kind runs. */
    std::vector<KindRun> runs_;
    /** Wake state, 1:1 with order_ (bound only with elision on). */
    WakeSet wakes_;
    std::uint64_t scheduleVersion_ = 0;
    bool scheduleBuilt_ = false;
    bool kindsSet_ = false; //!< profiler kind names published once
};

} // namespace stacknoc::engine

#endif // STACKNOC_ENGINE_SEQUENTIAL_ENGINE_HH
