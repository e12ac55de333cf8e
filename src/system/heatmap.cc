#include "system/heatmap.hh"

#include "common/logging.hh"
#include "telemetry/json.hh"
#include "noc/network.hh"
#include "sttnoc/bank_aware_policy.hh"
#include "sttnoc/region_map.hh"

namespace stacknoc::system {

HeatmapCollector::HeatmapCollector(const noc::Network &net,
                                   const sttnoc::BankAwarePolicy *policy,
                                   const sttnoc::RegionMap *regions,
                                   const MeshShape &shape, Cycle period,
                                   std::size_t max_frames)
    : net_(net), policy_(policy), regions_(regions), shape_(shape),
      period_(period), maxFrames_(max_frames)
{
    panic_if(period_ < 1, "heatmap period must be >= 1");
    flitsBase_.resize(static_cast<std::size_t>(shape_.totalNodes()), 0);
    holdsBase_.resize(
        policy_ != nullptr && regions_ != nullptr
            ? static_cast<std::size_t>(regions_->numBanks())
            : 0,
        0);
}

void
HeatmapCollector::captureBaseline()
{
    for (NodeId n = 0; n < shape_.totalNodes(); ++n)
        flitsBase_[static_cast<std::size_t>(n)] =
            net_.router(n).flitsSwitchedTotal();
    for (BankId b = 0; b < static_cast<BankId>(holdsBase_.size()); ++b)
        holdsBase_[static_cast<std::size_t>(b)] =
            policy_->holdCyclesOfBank(b);
}

HeatmapCollector::Frame
HeatmapCollector::sampleFrame(Cycle now)
{
    const std::size_t per =
        static_cast<std::size_t>(shape_.nodesPerLayer());
    const int layers = shape_.layers();

    Frame f;
    f.start = frameStart_;
    f.end = now;
    f.flits.assign(static_cast<std::size_t>(layers),
                   std::vector<std::uint64_t>(per, 0));
    f.occupancy = f.flits;
    f.tsb = f.flits;
    f.holds = f.flits;

    for (NodeId n = 0; n < shape_.totalNodes(); ++n) {
        const Coord c = shape_.coord(n);
        const auto layer = static_cast<std::size_t>(c.layer);
        const auto cell =
            static_cast<std::size_t>(c.y * shape_.width() + c.x);
        const noc::Router &r = net_.router(n);

        const std::uint64_t total = r.flitsSwitchedTotal();
        f.flits[layer][cell] =
            total - flitsBase_[static_cast<std::size_t>(n)];
        flitsBase_[static_cast<std::size_t>(n)] = total;

        f.occupancy[layer][cell] =
            static_cast<std::uint64_t>(r.bufferedFlits());
        f.tsb[layer][cell] = static_cast<std::uint64_t>(
            r.bufferedFlits(noc::Dir::Up) +
            r.bufferedFlits(noc::Dir::Down));
    }

    for (BankId b = 0; b < static_cast<BankId>(holdsBase_.size()); ++b) {
        const Coord c = shape_.coord(regions_->nodeOfBank(b));
        const auto cell =
            static_cast<std::size_t>(c.y * shape_.width() + c.x);
        const std::uint64_t total = policy_->holdCyclesOfBank(b);
        f.holds[static_cast<std::size_t>(c.layer)][cell] =
            total - holdsBase_[static_cast<std::size_t>(b)];
        holdsBase_[static_cast<std::size_t>(b)] = total;
    }

    return f;
}

void
HeatmapCollector::closeFrame(Cycle end)
{
    Frame f = sampleFrame(end);
    frameStart_ = end + 1;
    // During warm-up the sample only keeps the deltas rolling, so the
    // first measured frame doesn't absorb warm-up traffic.
    if (inWarmup_)
        return;
    if (frames_.size() >= maxFrames_) {
        ++framesDropped_;
        return;
    }
    frames_.push_back(std::move(f));
}

void
HeatmapCollector::onCycle(Cycle now)
{
    if (!finalized_ && now - frameStart_ + 1 >= period_)
        closeFrame(now);
}

void
HeatmapCollector::onWarmupBegin(Cycle now)
{
    (void)now;
    inWarmup_ = true;
}

void
HeatmapCollector::onReset(Cycle now)
{
    inWarmup_ = false;
    finalized_ = false;
    frames_.clear();
    framesDropped_ = 0;
    frameStart_ = now;
    captureBaseline();
}

void
HeatmapCollector::finalize(Cycle now)
{
    if (finalized_ || inWarmup_)
        return;
    finalized_ = true;
    // now == frameStart_: the last period boundary closed the window.
    if (now > frameStart_)
        closeFrame(now - 1);
}

bool
HeatmapCollector::writeFiles(const std::string &prefix) const
{
    struct Metric
    {
        const char *name;
        const std::vector<std::vector<std::uint64_t>> Frame::*grids;
    };
    static constexpr Metric kMetrics[] = {
        {"flits", &Frame::flits},
        {"occupancy", &Frame::occupancy},
        {"tsb", &Frame::tsb},
        {"holds", &Frame::holds},
    };

    for (const Metric &m : kMetrics) {
        if (!telemetry::writeGridFile(
                prefix + "." + m.name + ".json", m.name, shape_.width(),
                shape_.height(), shape_.layers(), period_,
                framesDropped_, frames_, m.grids))
            return false;
    }
    return true;
}

} // namespace stacknoc::system
