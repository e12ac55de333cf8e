/**
 * @file
 * The uncore energy model of the paper's Figure 8 and its streaming
 * probe.
 *
 * EnergyModel holds the event energies and leakage powers, and its
 * one pricing function, charge(), turns a set of event counts over a
 * span into an EnergyBreakdown of the six Figure 8 categories. It has
 * two counter sources: system::computeEnergy prices the end-of-run
 * stats-group totals, and the EnergyProbe prices per-component plain
 * counters per interval.
 *
 * The probe knows nothing about routers or banks; the system registers
 * one sampler per component that returns its cumulative plain counters
 * (Router::flitsSwitchedTotal and friends — written only by the owning
 * tick, read here after the engine's phase barrier). Every sampling
 * period the probe charges each site's counter deltas and retains one
 * frame: the interval's energy split plus [layer][y * width + x]
 * power grids (watts). Summed over frames (finalize() closes the
 * partial tail), the probe's totals reconcile with computeEnergy to
 * floating-point noise; tests pin the drift below 1e-6 relative.
 *
 * The probe is a strict cycle-end observer and follows the heatmap
 * delta-baseline protocol: during warm-up frames are sampled to keep
 * the delta bases rolling but retained nowhere, and onReset rebases
 * every counter and zeroes the streaming totals, so the first measured
 * frame never absorbs warm-up traffic. Determinism digests are
 * identical with the probe on or off, at any engine thread count.
 */

#ifndef STACKNOC_TELEMETRY_POWER_HH
#define STACKNOC_TELEMETRY_POWER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/probe.hh"

namespace stacknoc::telemetry {

/** Uncore energy split, in microjoules: the categories of Figure 8. */
struct EnergyBreakdown
{
    double cacheDynamicUJ = 0.0;
    double cacheLeakageUJ = 0.0;
    double netDynamicUJ = 0.0;
    double netLeakageUJ = 0.0;
    double retryWriteUJ = 0.0;     //!< STT-RAM verify-retry overhead
    double retransmitFlitUJ = 0.0; //!< CRC-failure retransmissions

    double
    totalUJ() const
    {
        return cacheDynamicUJ + cacheLeakageUJ + netDynamicUJ +
               netLeakageUJ + retryWriteUJ + retransmitFlitUJ;
    }

    EnergyBreakdown &operator+=(const EnergyBreakdown &o);
};

/** Counts of the priced uncore events (cumulative, or a delta). */
struct EnergyEvents
{
    std::uint64_t bankReads = 0;
    std::uint64_t bankWrites = 0;  //!< includes re-run retry rounds
    std::uint64_t retryRounds = 0; //!< failed-verify re-runs
    std::uint64_t flitsBuffered = 0;
    std::uint64_t flitsSwitched = 0;
    std::uint64_t flitsRetransmitted = 0; //!< by the NIs

    EnergyEvents operator-(const EnergyEvents &base) const;
};

/**
 * The uncore energy model: per-event energies (nJ), per-component
 * leakage (mW) and the clock that turns cycles into seconds. The
 * router terms are Orion-style 32 nm constants at 3 GHz; the bank
 * terms (Table 2, per L2 technology) and the clock are filled in by
 * system::energyModel().
 */
struct EnergyModel
{
    // Per-bank (cache-layer) terms.
    double bankReadNJ = 0.0;
    double bankWriteNJ = 0.0;
    double bankLeakageMW = 0.0;

    // Per-router terms.
    double bufferWriteNJ = 0.012; //!< per flit buffered
    double bufferReadNJ = 0.010;  //!< per flit read for traversal
    double crossbarNJ = 0.015;    //!< per flit switched
    double arbiterNJ = 0.001;     //!< per allocation
    double linkNJ = 0.017;        //!< per flit-hop on a 128-bit link
    double routerLeakageMW = 5.0; //!< per router

    // Fault-path event energies. A failed STT-RAM write verify re-runs
    // the write itself (already counted in bankWrites); retryWriteNJ
    // is the *additional* verify-sense read and control overhead per
    // retry round, sized like an STT-RAM array read (Table 2).
    // retransmitFlitNJ charges the NACK plus the re-serialisation of
    // one flit over the last-hop link; the retransmission is otherwise
    // modelled as a pure latency penalty, so without this term fault
    // recovery would look energy-free.
    double retryWriteNJ = 0.4;       //!< per failed-verify write round
    double retransmitFlitNJ = 0.055; //!< per retransmitted flit

    double clockGHz = 0.0; //!< cycle -> seconds conversion

    /** Wall time of @p cycles cycles, seconds. */
    double seconds(Cycle cycles) const;

    /**
     * Price @p events plus the leakage of @p banks banks and
     * @p routers routers over @p cycles cycles.
     */
    EnergyBreakdown charge(const EnergyEvents &events, std::uint64_t banks,
                           std::uint64_t routers, Cycle cycles) const;
};

/** One sampled interval of the EnergyProbe. */
struct PowerFrame
{
    Cycle start = 0; //!< first cycle covered (inclusive)
    Cycle end = 0;   //!< last cycle covered (inclusive)

    /** Total (dynamic + leakage) power, watts, [layer][y*width+x]. */
    std::vector<std::vector<double>> powerW;

    EnergyBreakdown energy;   //!< the interval's energy split
    double spanSeconds = 0.0; //!< wall time the interval spans

    /** Mean total power over the interval, watts. */
    double
    totalW() const
    {
        return spanSeconds > 0.0 ? energy.totalUJ() * 1e-6 / spanSeconds
                                 : 0.0;
    }
};

/** Receives every retained frame as it is sampled (the thermal
 *  solver's input); reset notifications follow the probe's. */
class PowerFrameSink
{
  public:
    virtual ~PowerFrameSink() = default;
    virtual void onPowerFrame(const PowerFrame &frame) = 0;
    virtual void onPowerReset() = 0;
};

/** Streams per-interval, per-cell uncore power from plain counters. */
class EnergyProbe : public Probe
{
  public:
    /** Returns one component's cumulative event counters. */
    using Sampler = std::function<EnergyEvents()>;

    /**
     * @param width, height, layers mesh geometry of the grids.
     * @param model the energy model computeEnergy prices with.
     * @param period sampling period in cycles (>= 1).
     * @param max_frames frame retention cap; totals keep accumulating
     *        and the sink keeps firing once it is reached.
     */
    EnergyProbe(int width, int height, int layers,
                const EnergyModel &model, Cycle period,
                std::size_t max_frames = std::size_t{1} << 14);

    /** Register a router (plus its NI) at grid cell (x, y, layer). */
    void addRouter(int x, int y, int layer, Sampler sampler);

    /** Register a bank at grid cell (x, y, layer). */
    void addBank(int x, int y, int layer, Sampler sampler);

    /** Attach the thermal solver (may be null; not owned). */
    void setSink(PowerFrameSink *sink) { sink_ = sink; }

    void onCycle(Cycle now) override;
    void onWarmupBegin(Cycle now) override;
    void onReset(Cycle now) override;

    /**
     * Close the open partial interval so the streaming totals cover
     * exactly the measured window. @p now is the simulator's current
     * cycle (one past the last executed cycle). Idempotent; call
     * before reading totals or exporting.
     */
    void finalize(Cycle now);

    Cycle period() const { return period_; }
    int width() const { return width_; }
    int height() const { return height_; }
    int layers() const { return layers_; }
    const EnergyModel &model() const { return model_; }
    const std::vector<PowerFrame> &frames() const { return frames_; }
    std::uint64_t framesDropped() const { return framesDropped_; }

    /** Streaming totals since the last reset. */
    const EnergyBreakdown &totals() const { return totals_; }

    /**
     * Write the retained power grids as one heatmap-schema JSON file
     * (metric "power", double-valued grids) renderable by
     * tools/heatmap_render.py. @return false when the file could not
     * be opened.
     */
    bool writeFile(const std::string &path) const;

  private:
    struct Site
    {
        std::size_t cell;
        int layer;
        std::uint64_t banks;   //!< 1 for a bank site
        std::uint64_t routers; //!< 1 for a router site
        Sampler sampler;
        EnergyEvents base;
    };

    void addSite(int x, int y, int layer, bool bank, Sampler sampler);
    PowerFrame sampleFrame(Cycle now);
    void closeFrame(Cycle end);

    int width_;
    int height_;
    int layers_;
    EnergyModel model_;
    Cycle period_;
    std::size_t maxFrames_;

    std::vector<Site> sites_;
    PowerFrameSink *sink_ = nullptr;

    bool inWarmup_ = false;
    bool finalized_ = false;
    Cycle frameStart_ = 0;

    std::vector<PowerFrame> frames_;
    std::uint64_t framesDropped_ = 0;
    EnergyBreakdown totals_;
};

} // namespace stacknoc::telemetry

#endif // STACKNOC_TELEMETRY_POWER_HH
