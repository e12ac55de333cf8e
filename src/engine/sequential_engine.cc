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
    if (profiler_ == nullptr) {
        runPlain(cycles);
        return;
    }
    if (!kindsSet_) {
        profiler_->setKinds(kKindNames);
        kindsSet_ = true;
    }
    runProfiled(cycles);
}

void
SequentialEngine::runPlain(Cycle cycles)
{
    const std::size_t n = order_.size();
    for (Cycle i = 0; i < cycles; ++i) {
        const Cycle now = sim_.now();
        if (elide_) {
            const std::uint8_t bit = Ticking::wakeBit(now);
            std::uint64_t ticked = 0;
            for (std::size_t s = 0; s < n; ++s) {
                if (!wakes_.due(s, bit))
                    continue;
                const ShardItem &item = order_[s];
                tickByKind(item, now);
                ++ticked;
                wakes_.active[s] = quiescentByKind(item, now) ? 0 : 1;
            }
            ticked_ += ticked;
        } else {
            for (std::size_t s = 0; s < n; ++s)
                tickByKind(order_[s], now);
            ticked_ += n;
        }
        slots_ += n;
        sim_.completeCycle();
    }
}

void
SequentialEngine::runProfiled(Cycle cycles)
{
    telemetry::CycleProfiler &prof = *profiler_;
    const std::size_t n = order_.size();

    for (Cycle i = 0; i < cycles; ++i) {
        const Cycle now = sim_.now();
        // Chained timestamps: each clock read ends one measurement and
        // starts the next, so the phase durations tile the loop and
        // their sum tracks wall time.
        const double cycle_start = prof.nowSeconds();
        double t_prev = cycle_start;
        const std::uint8_t bit = Ticking::wakeBit(now);
        std::uint64_t ticked = 0;
        for (std::size_t s = 0; s < n; ++s) {
            if (elide_ && !wakes_.due(s, bit))
                continue;
            const ShardItem &item = order_[s];
            tickByKind(item, now);
            ++ticked;
            if (elide_)
                wakes_.active[s] = quiescentByKind(item, now) ? 0 : 1;
            const double t = prof.nowSeconds();
            prof.addKindSeconds(static_cast<std::uint8_t>(item.kind),
                                t - t_prev);
            t_prev = t;
        }
        ticked_ += ticked;
        slots_ += n;
        prof.addPhase(telemetry::EnginePhase::Compute, cycle_start,
                      t_prev);

        sim_.completeCycle();
        const double t_end = prof.nowSeconds();
        prof.addPhase(telemetry::EnginePhase::CycleEnd, t_prev, t_end);
        prof.addCycles(1);
    }
}

} // namespace stacknoc::engine
