/**
 * @file
 * The deterministic sharded parallel execution engine.
 */

#ifndef STACKNOC_ENGINE_SHARDED_ENGINE_HH
#define STACKNOC_ENGINE_SHARDED_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "engine/engine.hh"
#include "engine/shard_plan.hh"
#include "engine/wake_set.hh"
#include "telemetry/trace.hh"

namespace stacknoc::snapshot {
class StateIO;
} // namespace stacknoc::snapshot

namespace stacknoc::engine {

/**
 * Ticks spatial shards of the component registry on persistent worker
 * threads, bit-identical to SequentialEngine. Each cycle:
 *
 *  1. Parallel compute phase: every shard ticks its active components
 *     in ascending schedule-ordinal order (kind-batched, devirtualized
 *     dispatch). Channel pushes go straight into the channels' SPSC
 *     rings and wake their receivers through wake stamps for the next
 *     cycle; while tracing, trace records are deferred into per-shard
 *     logs. Stats update in place through relaxed atomic adds, which
 *     commute. With elision on, a component reporting quiescent()
 *     after its tick leaves the active set until a wake re-arms it.
 *  2. Barrier (sense = epoch counter, spin with yield fallback).
 *  3. Trace replay (main thread, tracing only): the per-shard logs are
 *     merged by schedule ordinal — the exact sequential recording
 *     order — and replayed. Untraced cycles skip it.
 *  4. Serial phase (main thread): components registered with
 *     kSerialAffinity tick.
 *  5. Cycle-end callbacks and clock advance via Simulator::completeCycle.
 *
 * The main thread executes shard 0 itself, so N shards cost N-1 worker
 * threads. See docs/ENGINE.md for why each step preserves equivalence.
 */
class ShardedParallelEngine : public ExecutionEngine
{
  public:
    /**
     * @param threads requested shard count (>= 2). The effective count
     * is capped at the number of distinct affinity keys.
     * @param elide skip quiescent components (see docs/ENGINE.md).
     */
    ShardedParallelEngine(Simulator &sim, int threads, bool elide = true);
    ~ShardedParallelEngine() override;

    void run(Cycle cycles) override;
    const char *name() const override { return "sharded"; }
    int threads() const override { return requested_threads_; }

    std::uint64_t tickedComponents() const override;

    /**
     * Install the profiler and size its per-shard slots. Workers read
     * the pointer only after observing a cycle epoch published later,
     * so installation needs no extra synchronisation — but it must
     * happen before the first run().
     */
    void setProfiler(telemetry::CycleProfiler *profiler) override;

    /** The partition being executed (test/diagnostic use). */
    const ShardPlan &plan() const { return plan_; }

  private:
    /** Checkpointing maps the per-shard active flags to and from
     *  schedule ordinals between run() calls (phase barrier holds). */
    friend class snapshot::StateIO;

    /** Per-shard state, one cache-line-separated allocation per shard
     *  to keep workers from false-sharing. */
    struct alignas(64) ShardState
    {
        explicit ShardState(const std::vector<ShardItem> &items)
            : wakes(items.size()), runs(kindRuns(items))
        {}
        telemetry::TraceLog trace_log;
        WakeSet wakes;
        std::vector<KindRun> runs;
    };

    /** One cycle; @p prof (may be null) stamps each phase boundary. */
    void runCycle(telemetry::CycleProfiler *prof);
    void runShard(std::size_t shard, Cycle now);
    void workerLoop(std::size_t shard);

    /** Tick the due members of @p items, run by run (all of them
     *  without elision). */
    void tickList(const std::vector<ShardItem> &items,
                  const std::vector<KindRun> &runs, WakeSet &ws, Cycle now,
                  telemetry::TraceLog *log);

    ShardPlan plan_;
    int requested_threads_;
    std::uint64_t registry_version_;
    /** Wake state of the serial list (main thread only). */
    WakeSet serial_;
    std::vector<KindRun> serialRuns_;
    /** Barrier spin budget before yielding (0 when oversubscribed). */
    int spin_iters_ = 0;

    std::vector<std::unique_ptr<ShardState>> shard_state_;
    std::vector<telemetry::TraceLog *> trace_logs_;

    // Cycle handshake: the main thread publishes cycle_ then bumps
    // epoch_ (release); workers observe the new epoch (acquire), tick
    // their shard, and bump done_ (release). Monotonic epochs double as
    // the barrier sense, so no reinitialisation race exists.
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<std::size_t> done_{0};
    std::atomic<bool> stop_{false};
    Cycle cycle_ = 0;

    std::vector<std::thread> workers_;
};

} // namespace stacknoc::engine

#endif // STACKNOC_ENGINE_SHARDED_ENGINE_HH
