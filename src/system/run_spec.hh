/**
 * @file
 * RunSpec: the one description of a simulation run shared by every
 * front end — stacknoc_run, stacknoc_client, stacknoc_sweep, the
 * campaign server and bench_util. One field table (run_spec.cc)
 * drives both grammars, `--flag value` argv words and JSON members, and
 * both renderings. resolve() is the only place a spec becomes a
 * SystemConfig and the only place it is checked against its scenario:
 * an override the scenario cannot honour is rejected with a one-line
 * reason, never reinterpreted.
 */

#ifndef STACKNOC_SYSTEM_RUN_SPEC_HH
#define STACKNOC_SYSTEM_RUN_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "system/cmp_system.hh"
#include "telemetry/json.hh"

namespace stacknoc::system {

struct RunSpec
{
    std::string scenario = "MRAM-4TSB-WB"; //!< a scenarios::byName name
    /** Per-scenario overrides; unset keeps the scenario's own value. */
    std::optional<int> regions;
    std::optional<sttnoc::TsbPlacement> placement;
    std::optional<int> hops;
    std::optional<sttnoc::DelayMode> delayMode;

    std::vector<std::string> apps{"tpcc"}; //!< round-robin over cores
    std::uint64_t seed = 1;
    Cycle warmup = 3000;
    Cycle cycles = 20000;
    int meshWidth = 8;
    int meshHeight = 8;
    int threads = 1;
    bool elide = true;
    /** Interval telemetry period (stats snapshots, server interval
     *  events); 0 disables both. */
    Cycle interval = 0;
    std::string faultSpec; //!< --fault-spec grammar; empty = clean
    bool realTags = false;

    bool operator==(const RunSpec &) const = default;

    /** Set the field spelled @p flag ("--regions") from its argv text.
     *  @return empty, or a one-line reason naming the flag. */
    std::string set(const std::string &flag, const std::string &text);

    /** If argv[i] is a spec flag, consume it and its value (@p i ends
     *  on the last word used) and return true, with a one-line reason
     *  in @p err for a bad or missing value; else return false. */
    bool takeArg(int argc, char *const *argv, int &i, std::string &err);

    /** Read the members of JSON object @p v (absent members keep their
     *  value, unknown ones are ignored). @return empty or a reason. */
    std::string readJson(const telemetry::JsonValue &v);

    /** The argv words takeArg reads back into this spec. */
    std::vector<std::string> toArgs() const;

    /** The members readJson reads back, into an open JSON object. */
    void writeJson(telemetry::JsonWriter &w) const;

    /** Check the spec against its scenario and write the fields it
     *  owns into @p cfg (scenario plus overrides, mesh, apps expanded
     *  over the cores, seed, threads, elision, real tags, faults —
     *  which imply the watchdog); other fields, the interval sampler's
     *  period among them, keep the caller's values.
     *  @return empty, or a one-line reason. */
    std::string resolve(SystemConfig &cfg) const;

    /** Every spec flag, for unknown-option suggestions. */
    static std::vector<std::string> flags();

    /** Usage lines for the spec flags, defaults in brackets. */
    static std::string usage();
};

/** Split @p list at @p sep, dropping empty items; joinList is the
 *  comma-joining inverse. */
std::vector<std::string> splitList(const std::string &list,
                                   char sep = ',');
std::string joinList(const std::vector<std::string> &items);

/** One app stays one entry (it replicates); a longer list repeats
 *  round-robin over @p cores. */
std::vector<std::string> expandApps(const std::vector<std::string> &apps,
                                    int cores);

/** Parse @p spec into cfg.faults; the injector and the watchdog are on
 *  exactly when it can fire, so an all-zero spec matches no spec.
 *  @return empty, or the parser's one-line reason. */
std::string applyFaultSpec(const std::string &spec, SystemConfig &cfg);

} // namespace stacknoc::system

#endif // STACKNOC_SYSTEM_RUN_SPEC_HH
