#include "telemetry/power.hh"

#include "common/logging.hh"
#include "telemetry/json.hh"

namespace stacknoc::telemetry {

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &o)
{
    cacheDynamicUJ += o.cacheDynamicUJ;
    cacheLeakageUJ += o.cacheLeakageUJ;
    netDynamicUJ += o.netDynamicUJ;
    netLeakageUJ += o.netLeakageUJ;
    retryWriteUJ += o.retryWriteUJ;
    retransmitFlitUJ += o.retransmitFlitUJ;
    return *this;
}

EnergyEvents
EnergyEvents::operator-(const EnergyEvents &base) const
{
    return {bankReads - base.bankReads,
            bankWrites - base.bankWrites,
            retryRounds - base.retryRounds,
            flitsBuffered - base.flitsBuffered,
            flitsSwitched - base.flitsSwitched,
            flitsRetransmitted - base.flitsRetransmitted};
}

double
EnergyModel::seconds(Cycle cycles) const
{
    return static_cast<double>(cycles) / (clockGHz * 1e9);
}

EnergyBreakdown
EnergyModel::charge(const EnergyEvents &events, std::uint64_t banks,
                    std::uint64_t routers, Cycle cycles) const
{
    const auto n = [](std::uint64_t count) {
        return static_cast<double>(count);
    };
    const double s = seconds(cycles);

    EnergyBreakdown e;
    e.cacheDynamicUJ = (n(events.bankReads) * bankReadNJ +
                        n(events.bankWrites) * bankWriteNJ) *
                       1e-3;
    e.cacheLeakageUJ = bankLeakageMW * 1e-3 * n(banks) * s * 1e6;
    e.netDynamicUJ = (n(events.flitsBuffered) * bufferWriteNJ +
                      n(events.flitsSwitched) *
                          (bufferReadNJ + crossbarNJ + arbiterNJ +
                           linkNJ)) *
                     1e-3;
    e.netLeakageUJ = routerLeakageMW * 1e-3 * n(routers) * s * 1e6;
    e.retryWriteUJ = n(events.retryRounds) * retryWriteNJ * 1e-3;
    e.retransmitFlitUJ =
        n(events.flitsRetransmitted) * retransmitFlitNJ * 1e-3;
    return e;
}

EnergyProbe::EnergyProbe(int width, int height, int layers,
                         const EnergyModel &model, Cycle period,
                         std::size_t max_frames)
    : width_(width), height_(height), layers_(layers), model_(model),
      period_(period), maxFrames_(max_frames)
{
    panic_if(width_ < 1 || height_ < 1 || layers_ < 1,
             "bad power grid dimensions %dx%dx%d", width_, height_,
             layers_);
    panic_if(period_ < 1, "power sampling period must be >= 1");
    panic_if(model_.clockGHz <= 0.0, "clockGHz must be positive");
}

void
EnergyProbe::addRouter(int x, int y, int layer, Sampler sampler)
{
    addSite(x, y, layer, false, std::move(sampler));
}

void
EnergyProbe::addBank(int x, int y, int layer, Sampler sampler)
{
    addSite(x, y, layer, true, std::move(sampler));
}

void
EnergyProbe::addSite(int x, int y, int layer, bool bank, Sampler sampler)
{
    panic_if(x < 0 || x >= width_ || y < 0 || y >= height_ ||
                 layer < 0 || layer >= layers_,
             "%s site (%d,%d,%d) outside the grid",
             bank ? "bank" : "router", x, y, layer);
    const EnergyEvents base = sampler();
    sites_.push_back({static_cast<std::size_t>(y * width_ + x), layer,
                      bank ? 1u : 0u, bank ? 0u : 1u, std::move(sampler),
                      base});
}

PowerFrame
EnergyProbe::sampleFrame(Cycle now)
{
    const auto cells = static_cast<std::size_t>(width_ * height_);
    const Cycle cycles = now - frameStart_ + 1;

    PowerFrame f;
    f.start = frameStart_;
    f.end = now;
    f.spanSeconds = model_.seconds(cycles);
    // Joules per cell; converted to watts at the end so every cell
    // pays exactly one division.
    f.powerW.assign(static_cast<std::size_t>(layers_),
                    std::vector<double>(cells, 0.0));

    for (Site &site : sites_) {
        const EnergyEvents cur = site.sampler();
        const EnergyBreakdown e =
            model_.charge(cur - site.base, site.banks, site.routers,
                          cycles);
        site.base = cur;
        f.energy += e;
        f.powerW[static_cast<std::size_t>(site.layer)][site.cell] +=
            e.totalUJ() * 1e-6;
    }

    if (f.spanSeconds > 0.0) {
        for (auto &grid : f.powerW)
            for (double &w : grid)
                w /= f.spanSeconds;
    }
    return f;
}

void
EnergyProbe::closeFrame(Cycle end)
{
    PowerFrame f = sampleFrame(end);
    frameStart_ = end + 1;
    // During warm-up the sample only keeps the delta bases rolling,
    // so the first measured frame doesn't absorb warm-up traffic.
    if (inWarmup_)
        return;
    totals_ += f.energy;
    if (sink_ != nullptr)
        sink_->onPowerFrame(f);
    if (frames_.size() >= maxFrames_) {
        ++framesDropped_;
        return;
    }
    frames_.push_back(std::move(f));
}

void
EnergyProbe::onCycle(Cycle now)
{
    if (!finalized_ && now - frameStart_ + 1 >= period_)
        closeFrame(now);
}

void
EnergyProbe::onWarmupBegin(Cycle now)
{
    (void)now;
    inWarmup_ = true;
}

void
EnergyProbe::onReset(Cycle now)
{
    inWarmup_ = false;
    finalized_ = false;
    frames_.clear();
    framesDropped_ = 0;
    frameStart_ = now;
    for (Site &site : sites_)
        site.base = site.sampler();
    totals_ = EnergyBreakdown{};
    if (sink_ != nullptr)
        sink_->onPowerReset();
}

void
EnergyProbe::finalize(Cycle now)
{
    if (finalized_ || inWarmup_)
        return;
    finalized_ = true;
    // now == frameStart_: the last period boundary closed the window.
    if (now > frameStart_)
        closeFrame(now - 1);
}

bool
EnergyProbe::writeFile(const std::string &path) const
{
    return writeGridFile(path, "power", width_, height_, layers_, period_,
                         framesDropped_, frames_, &PowerFrame::powerW);
}

} // namespace stacknoc::telemetry
