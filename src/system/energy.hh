/**
 * @file
 * Uncore (cache + interconnect) energy accounting, the quantity of the
 * paper's Figure 8. There is one energy model, telemetry::EnergyModel
 * (telemetry/power.hh): cache energies come from Table 2, router and
 * link event energies are Orion-style 32 nm constants. It has two
 * counter sources. computeEnergy prices the end-of-run stats-group
 * totals; the streaming EnergyProbe prices each router's and bank's
 * plain counters per interval. The two reconcile to floating-point
 * noise, which tests pin below 1e-6 relative.
 */

#ifndef STACKNOC_SYSTEM_ENERGY_HH
#define STACKNOC_SYSTEM_ENERGY_HH

#include "common/types.hh"
#include "mem/tech.hh"
#include "sim/stats.hh"
#include "telemetry/power.hh"

namespace stacknoc::system {

using telemetry::EnergyBreakdown;

/** The energy model of a system whose L2 banks use @p tech. */
telemetry::EnergyModel energyModel(mem::CacheTech tech);

/**
 * Compute the uncore energy of a run.
 *
 * @param cache_stats group holding bank_reads / bank_writes.
 * @param net_stats group holding flits_buffered / flits_switched.
 * @param tech L2 bank technology.
 * @param num_banks banks in the system.
 * @param num_routers routers in the system.
 * @param cycles measured cycles.
 * @param fault_stats fault-injector group holding
 *        stt_write_retry_rounds / link_flits_retransmitted, or null
 *        when no faults are configured (the fault terms stay zero).
 */
EnergyBreakdown
computeEnergy(const stats::Group &cache_stats,
              const stats::Group &net_stats, mem::CacheTech tech,
              int num_banks, int num_routers, Cycle cycles,
              const stats::Group *fault_stats = nullptr);

} // namespace stacknoc::system

#endif // STACKNOC_SYSTEM_ENERGY_HH
