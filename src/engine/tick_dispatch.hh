/**
 * @file
 * The kind-run walk shared by both engines.
 *
 * Plan lists are kind-major, so each splits into a few kind runs
 * (engine/shard_plan.hh). tickRun switches on a run's kind once and
 * ticks the whole run through a static_cast to the final class, so the
 * compiler bypasses the vtable and inlines the quiescence predicates.
 */

#ifndef STACKNOC_ENGINE_TICK_DISPATCH_HH
#define STACKNOC_ENGINE_TICK_DISPATCH_HH

#include "coherence/l1_cache.hh"
#include "coherence/l2_bank.hh"
#include "cpu/core.hh"
#include "engine/shard_plan.hh"
#include "engine/wake_set.hh"
#include "mem/memory_controller.hh"
#include "noc/network_interface.hh"
#include "noc/router.hh"
#include "sttnoc/rca_fabric.hh"
#include "telemetry/trace.hh"

namespace stacknoc::engine {

/** tickRun for one concrete type @p T (only trustworthy because every
 *  kind-claiming class is final). */
template <class T>
std::uint64_t
tickRunAs(const std::vector<ShardItem> &items, const KindRun &run,
          WakeSet *ws, Cycle now, telemetry::TraceLog *log)
{
    const std::uint8_t bit = Ticking::wakeBit(now);
    std::uint64_t ticked = 0;
    for (std::size_t i = run.begin; i < run.end; ++i) {
        if (ws != nullptr && !ws->due(i, bit))
            continue;
        auto *c = static_cast<T *>(items[i].component);
        if (log != nullptr)
            log->beginComponent(items[i].ordinal);
        c->tick(now);
        ++ticked;
        if (ws != nullptr)
            ws->active[i] = c->quiescent(now) ? 0 : 1;
    }
    return ticked;
}

/**
 * Tick the due members of @p run, a kind run of @p items, in list
 * order: all of them when @p ws is null (elision off), otherwise those
 * WakeSet::due, deactivating each that reports quiescent(). While
 * tracing, @p log is told which ordinal each tick records under.
 * @return the number of components ticked.
 */
inline std::uint64_t
tickRun(const std::vector<ShardItem> &items, const KindRun &run,
        WakeSet *ws, Cycle now, telemetry::TraceLog *log)
{
    switch (run.kind) {
      case TickKind::Router:
        return tickRunAs<noc::Router>(items, run, ws, now, log);
      case TickKind::NetworkInterface:
        return tickRunAs<noc::NetworkInterface>(items, run, ws, now, log);
      case TickKind::RcaFabric:
        return tickRunAs<sttnoc::RcaFabric>(items, run, ws, now, log);
      case TickKind::L2Bank:
        return tickRunAs<coherence::L2Bank>(items, run, ws, now, log);
      case TickKind::MemoryController:
        return tickRunAs<mem::MemoryController>(items, run, ws, now, log);
      case TickKind::L1Cache:
        return tickRunAs<coherence::L1Cache>(items, run, ws, now, log);
      case TickKind::Core:
        return tickRunAs<cpu::Core>(items, run, ws, now, log);
      case TickKind::Other:
        return tickRunAs<Ticking>(items, run, ws, now, log);
    }
    return 0;
}

} // namespace stacknoc::engine

#endif // STACKNOC_ENGINE_TICK_DISPATCH_HH
