/**
 * @file
 * Spatial heatmap collection: per-interval width x height grids of
 * router activity for both mesh layers, for rendering congestion and
 * write-pressure maps (tools/heatmap_render.py).
 *
 * Four metrics per frame:
 *  - flits: flits switched per router during the interval (delta of
 *    Router::flitsSwitchedTotal()),
 *  - occupancy: input-VC flits buffered per router at frame end,
 *  - tsb: flits buffered in a router's vertical (Up/Down) input ports
 *    at frame end — traffic that crossed, or is about to cross, the
 *    through-silicon bus,
 *  - holds: parent-hold pressure accumulated per bank during the
 *    interval (delta of BankAwarePolicy::holdCyclesOfBank(), mapped to
 *    the bank's node on the cache layer; all-zero without the
 *    bank-aware policy).
 *
 * The collector is a cycle-end observer: it only reads component
 * state after the engine's phase barrier, never mutates it, so
 * determinism digests are identical with it on or off.
 */

#ifndef STACKNOC_SYSTEM_HEATMAP_HH
#define STACKNOC_SYSTEM_HEATMAP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/geometry.hh"
#include "telemetry/probe.hh"

namespace stacknoc::noc {
class Network;
}
namespace stacknoc::sttnoc {
class BankAwarePolicy;
class RegionMap;
}

namespace stacknoc::system {

/** Samples the network every @c period cycles into retained frames. */
class HeatmapCollector : public telemetry::Probe
{
  public:
    /** One sampled interval. Grids are row-major, one per layer. */
    struct Frame
    {
        Cycle start = 0; //!< first cycle covered (inclusive)
        Cycle end = 0;   //!< last cycle covered (inclusive)
        /** [layer][y * width + x] */
        std::vector<std::vector<std::uint64_t>> flits;
        std::vector<std::vector<std::uint64_t>> occupancy;
        std::vector<std::vector<std::uint64_t>> tsb;
        std::vector<std::vector<std::uint64_t>> holds;
    };

    /**
     * @param net the network to sample (must outlive the collector).
     * @param policy bank-aware policy for hold pressure (may be null).
     * @param regions bank -> node mapping (may be null; then holds
     *        stay zero even with a policy).
     * @param shape mesh geometry.
     * @param period sampling period in cycles (>= 1).
     * @param max_frames retention cap; sampling stops once reached.
     */
    HeatmapCollector(const noc::Network &net,
                     const sttnoc::BankAwarePolicy *policy,
                     const sttnoc::RegionMap *regions,
                     const MeshShape &shape, Cycle period,
                     std::size_t max_frames = std::size_t{1} << 14);

    void onCycle(Cycle now) override;
    void onWarmupBegin(Cycle now) override;
    void onReset(Cycle now) override;

    /**
     * Close the open partial interval so the frames tile exactly the
     * measured window. @p now is the simulator's current cycle (one
     * past the last executed cycle). Idempotent.
     */
    void finalize(Cycle now);

    Cycle period() const { return period_; }
    const std::vector<Frame> &frames() const { return frames_; }
    std::uint64_t framesDropped() const { return framesDropped_; }

    /**
     * Write one JSON document per metric: <prefix>.<metric>.json for
     * metric in {flits, occupancy, tsb, holds}, each
     * { "metric", "width", "height", "layers", "period",
     *   "frames": [{"start", "end", "grids": [[...], [...]]}] }.
     * @return false when any file could not be opened.
     */
    bool writeFiles(const std::string &prefix) const;

  private:
    void captureBaseline();
    Frame sampleFrame(Cycle now);
    void closeFrame(Cycle end);

    const noc::Network &net_;
    const sttnoc::BankAwarePolicy *policy_;
    const sttnoc::RegionMap *regions_;
    MeshShape shape_;
    Cycle period_;
    std::size_t maxFrames_;

    bool inWarmup_ = false;
    bool finalized_ = false;
    Cycle frameStart_ = 0;
    /** Last-seen cumulative counters, for interval deltas. */
    std::vector<std::uint64_t> flitsBase_;
    std::vector<std::uint64_t> holdsBase_;

    std::vector<Frame> frames_;
    std::uint64_t framesDropped_ = 0;
};

} // namespace stacknoc::system

#endif // STACKNOC_SYSTEM_HEATMAP_HH
