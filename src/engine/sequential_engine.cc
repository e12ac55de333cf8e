#include "engine/sequential_engine.hh"

#include <string>

#include "engine/tick_dispatch.hh"
#include "telemetry/profile.hh"

namespace stacknoc::engine {

namespace {

/** Kind buckets for the profiler's compute attribution, in TickKind
 *  order (== the batched schedule order). */
const std::vector<std::string> kKindNames = {
    "router", "ni", "rca", "l2bank", "mc", "l1", "core", "other",
};

} // namespace

SequentialEngine::~SequentialEngine()
{
    unbindFlags();
}

void
SequentialEngine::unbindFlags()
{
    wakes_.bind(order_, false);
}

void
SequentialEngine::ensureSchedule()
{
    if (scheduleBuilt_ && scheduleVersion_ == sim_.registryVersion())
        return;
    unbindFlags();

    // One shard holds every parallel component in schedule order; the
    // serial list follows, mirroring the sharded engine's phase order.
    ShardPlan plan = buildShardPlan(sim_, 1);
    order_.clear();
    for (auto &shard : plan.shards)
        for (const ShardItem &item : shard)
            order_.push_back(item);
    for (const ShardItem &item : plan.serial)
        order_.push_back(item);
    runs_ = kindRuns(order_);

    // Everything starts awake; the first tick establishes quiescence.
    // Pushes also wake at once, so a receiver later in the walk ticks in
    // the push's cycle as well: the reference schedule, which pinned
    // checkpoint bytes (lazy credit drains) depend on.
    wakes_.reset(order_.size());
    if (elide_)
        wakes_.bind(order_, true, true);

    scheduleVersion_ = sim_.registryVersion();
    scheduleBuilt_ = true;
}

void
SequentialEngine::run(Cycle cycles)
{
    ensureSchedule();
    telemetry::CycleProfiler *prof = profiler_;
    if (prof != nullptr && !kindsSet_) {
        prof->setKinds(kKindNames);
        kindsSet_ = true;
    }
    WakeSet *ws = elide_ ? &wakes_ : nullptr;
    for (Cycle i = 0; i < cycles; ++i) {
        const Cycle now = sim_.now();
        // Chained timestamps: each clock read ends one measurement and
        // starts the next, so the phase durations tile the loop and
        // their sum tracks wall time. One read per kind run charges
        // the run to its kind.
        const double cycle_start = prof ? prof->nowSeconds() : 0.0;
        double t_prev = cycle_start;
        for (const KindRun &run : runs_) {
            ticked_ += tickRun(order_, run, ws, now, nullptr);
            if (prof) {
                const double t = prof->nowSeconds();
                prof->addKindSeconds(static_cast<std::uint8_t>(run.kind),
                                     t - t_prev);
                t_prev = t;
            }
        }
        slots_ += order_.size();
        if (prof)
            prof->addPhase(telemetry::EnginePhase::Compute, cycle_start,
                           t_prev);
        sim_.completeCycle();
        if (prof) {
            prof->addPhase(telemetry::EnginePhase::CycleEnd, t_prev,
                           prof->nowSeconds());
            prof->addCycles(1);
        }
    }
}

} // namespace stacknoc::engine
