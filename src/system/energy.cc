#include "system/energy.hh"

namespace stacknoc::system {

telemetry::EnergyModel
energyModel(mem::CacheTech tech)
{
    const mem::BankTechParams &bank = mem::bankTech(tech);
    telemetry::EnergyModel model;
    model.bankReadNJ = bank.readEnergyNJ;
    model.bankWriteNJ = bank.writeEnergyNJ;
    model.bankLeakageMW = bank.leakagePowerMW;
    model.clockGHz = mem::kClockGHz;
    return model;
}

EnergyBreakdown
computeEnergy(const stats::Group &cache_stats,
              const stats::Group &net_stats, mem::CacheTech tech,
              int num_banks, int num_routers, Cycle cycles,
              const stats::Group *fault_stats)
{
    auto counter = [](const stats::Group *g, const char *statname) {
        const stats::Counter *c =
            g != nullptr ? g->findCounter(statname) : nullptr;
        return c != nullptr ? c->value() : 0;
    };
    telemetry::EnergyEvents events;
    events.bankReads = counter(&cache_stats, "bank_reads");
    events.bankWrites = counter(&cache_stats, "bank_writes");
    events.retryRounds = counter(fault_stats, "stt_write_retry_rounds");
    events.flitsBuffered = counter(&net_stats, "flits_buffered");
    events.flitsSwitched = counter(&net_stats, "flits_switched");
    events.flitsRetransmitted =
        counter(fault_stats, "link_flits_retransmitted");
    return energyModel(tech).charge(
        events, static_cast<std::uint64_t>(num_banks),
        static_cast<std::uint64_t>(num_routers), cycles);
}

} // namespace stacknoc::system
