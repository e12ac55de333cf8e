#include "engine/sharded_engine.hh"

#include "common/logging.hh"
#include "engine/tick_dispatch.hh"
#include "sim/stats.hh"
#include "telemetry/profile.hh"

namespace stacknoc::engine {

namespace {

/**
 * Spin for @p spin_iters checks, then start yielding the core. A zero
 * budget yields immediately — the right behavior when shards
 * outnumber hardware threads, where spinning only steals cycles from
 * the thread being waited on.
 */
template <typename Pred>
void
spinWait(int spin_iters, Pred pred)
{
    for (int i = 0; !pred(); ++i) {
        if (i >= spin_iters)
            std::this_thread::yield();
    }
}

} // namespace

ShardedParallelEngine::ShardedParallelEngine(Simulator &sim, int threads,
                                             bool elide)
    : ExecutionEngine(sim, elide),
      plan_(buildShardPlan(sim, threads)),
      requested_threads_(threads),
      registry_version_(sim.registryVersion()),
      serial_(plan_.serial.size()),
      serialRuns_(kindRuns(plan_.serial))
{
    panic_if(threads < 2,
             "ShardedParallelEngine needs >= 2 threads (use "
             "SequentialEngine for 1)");

    // Everything starts awake; the first tick proves quiescence.
    const std::size_t nshards = plan_.numShards();
    shard_state_.reserve(nshards);
    for (std::size_t s = 0; s < nshards; ++s) {
        shard_state_.push_back(
            std::make_unique<ShardState>(plan_.shards[s]));
        trace_logs_.push_back(&shard_state_.back()->trace_log);
        if (elide_)
            shard_state_.back()->wakes.bind(plan_.shards[s], true);
    }
    if (elide_)
        serial_.bind(plan_.serial, true);

    // Spin only when every shard can own a hardware thread; otherwise
    // the barrier must yield so the preempted shard gets to run.
    const unsigned hw = std::thread::hardware_concurrency();
    spin_iters_ = (hw != 0 && nshards <= hw) ? (1 << 14) : 0;

    // The main thread runs shard 0; each remaining shard gets a
    // persistent worker parked on the epoch counter.
    for (std::size_t s = 1; s < nshards; ++s)
        workers_.emplace_back([this, s] { workerLoop(s); });
}

ShardedParallelEngine::~ShardedParallelEngine()
{
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    for (auto &w : workers_)
        w.join();

    if (elide_) {
        for (std::size_t s = 0; s < plan_.shards.size(); ++s)
            shard_state_[s]->wakes.bind(plan_.shards[s], false);
        serial_.bind(plan_.serial, false);
    }
}

std::uint64_t
ShardedParallelEngine::tickedComponents() const
{
    std::uint64_t total = serial_.ticked;
    for (const auto &st : shard_state_)
        total += st->wakes.ticked;
    return total;
}

void
ShardedParallelEngine::setProfiler(telemetry::CycleProfiler *profiler)
{
    ExecutionEngine::setProfiler(profiler);
    if (profiler_ != nullptr)
        profiler_->setShardCount(plan_.numShards());
}

void
ShardedParallelEngine::workerLoop(std::size_t shard)
{
    std::uint64_t seen = 0;
    for (;;) {
        ++seen;
        spinWait(spin_iters_, [&] {
            return epoch_.load(std::memory_order_acquire) >= seen;
        });
        if (stop_.load(std::memory_order_acquire))
            return;
        // Safe to read only after the epoch acquire: setProfiler runs
        // on the main thread before the epoch publishing this cycle.
        if (telemetry::CycleProfiler *prof = profiler_) {
            const double t0 = prof->nowSeconds();
            runShard(shard, cycle_);
            prof->addShardPhase(shard, telemetry::EnginePhase::Compute,
                                t0, prof->nowSeconds());
        } else {
            runShard(shard, cycle_);
        }
        done_.fetch_add(1, std::memory_order_release);
    }
}

void
ShardedParallelEngine::tickList(const std::vector<ShardItem> &items,
                                const std::vector<KindRun> &runs,
                                WakeSet &ws, Cycle now,
                                telemetry::TraceLog *log)
{
    WakeSet *due = elide_ ? &ws : nullptr;
    for (const KindRun &run : runs)
        ws.ticked += tickRun(items, run, due, now, log);
}

void
ShardedParallelEngine::runShard(std::size_t shard, Cycle now)
{
    ShardState &st = *shard_state_[shard];
    // The tracer is installed and removed only between run() calls.
    const bool tracing = telemetry::tracer() != nullptr;
    stats::setConcurrentUpdates(true);
    if (tracing)
        telemetry::setTraceLog(&st.trace_log);
    tickList(plan_.shards[shard], st.runs, st.wakes, now,
             tracing ? &st.trace_log : nullptr);
    stats::setConcurrentUpdates(false);
    telemetry::setTraceLog(nullptr);
}

void
ShardedParallelEngine::runCycle(telemetry::CycleProfiler *prof)
{
    // With a profiler, a chained wall-clock stamp at each phase
    // boundary, so phase durations tile the cycle. The stamps are
    // observer-only: the tick/replay/serial sequence, and therefore
    // every simulation result, is the same either way. The Commit
    // phase times the trace replay, so untraced it reads about 0.
    using telemetry::EnginePhase;
    double t = prof ? prof->nowSeconds() : 0.0;
    const auto stamp = [&](EnginePhase ph) {
        const double t0 = t;
        t = prof->nowSeconds();
        prof->addPhase(ph, t0, t);
        return t0;
    };

    const Cycle now = sim_.now();
    cycle_ = now;
    done_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);

    if (!plan_.shards.empty())
        runShard(0, now);
    if (prof) {
        const double t0 = stamp(EnginePhase::Compute);
        prof->addShardPhase(0, EnginePhase::Compute, t0, t);
    }

    const std::size_t nworkers = workers_.size();
    spinWait(spin_iters_, [&] {
        return done_.load(std::memory_order_acquire) == nworkers;
    });
    if (prof)
        stamp(EnginePhase::Barrier);

    if (telemetry::tracer() != nullptr)
        telemetry::TraceLog::applyInOrder(trace_logs_.data(),
                                          trace_logs_.size());
    if (prof)
        stamp(EnginePhase::Commit);

    tickList(plan_.serial, serialRuns_, serial_, now, nullptr);
    if (prof)
        stamp(EnginePhase::Serial);

    slots_ += plan_.parallelCount() + plan_.serial.size();
    sim_.completeCycle();
    if (prof) {
        stamp(EnginePhase::CycleEnd);
        prof->addCycles(1);
    }
}

void
ShardedParallelEngine::run(Cycle cycles)
{
    panic_if(sim_.registryVersion() != registry_version_,
             "components were registered after the shard plan was built");
    for (Cycle i = 0; i < cycles; ++i)
        runCycle(profiler_);
}

} // namespace stacknoc::engine
