#include "system/run_spec.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "fault/fault_spec.hh"

namespace stacknoc::system {

namespace {

using telemetry::JsonValue;
using telemetry::JsonWriter;

/** The value type behind an optional override (T itself otherwise). */
template <typename T>
struct Inner
{
    using type = T;
};
template <typename T>
struct Inner<std::optional<T>>
{
    using type = T;
};

/** Spellings of the enum overrides, in enumerator order. */
template <typename E>
constexpr std::array<const char *, 2> kNames{};
template <>
constexpr std::array kNames<sttnoc::TsbPlacement>{"corner", "stagger"};
template <>
constexpr std::array kNames<sttnoc::DelayMode>{"priority", "hold"};

/** Parse a field's argv text into @p out; @return "" or a reason.
 *  A rejected value leaves @p out untouched. */
template <typename T>
std::string
parse(const std::string &text, T &out)
{
    using V = typename Inner<T>::type;
    V v{};
    const std::string bad = "'" + text + "' is not ";
    if constexpr (std::is_same_v<V, std::string>) {
        v = text;
    } else if constexpr (std::is_same_v<V, bool>) {
        if (text != "true" && text != "false")
            return bad + "true or false";
        v = text == "true";
    } else if constexpr (std::is_integral_v<V>) {
        const char *end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (text.empty() || ec != std::errc{} || ptr != end)
            return bad + (std::is_signed_v<V> ? "an integer"
                                              : "a non-negative integer");
    } else if constexpr (std::is_same_v<V, std::vector<std::string>>) {
        v = splitList(text);
        if (v.empty())
            return "needs at least one item";
    } else { // a named enum
        const auto &names = kNames<V>;
        const auto it = std::find(names.begin(), names.end(), text);
        if (it == names.end())
            return bad + names[0] + " or " + names[1];
        v = static_cast<V>(it - names.begin());
    }
    out = std::move(v);
    return {};
}

/** A field's argv text; nullopt when there is nothing to pass (an
 *  unset override, an empty fault spec). */
template <typename T>
std::optional<std::string>
show(const T &v)
{
    if constexpr (!std::is_same_v<T, typename Inner<T>::type>)
        return v ? show(*v) : std::nullopt;
    else if constexpr (std::is_same_v<T, std::string>)
        return v.empty() ? std::nullopt : std::optional(v);
    else if constexpr (std::is_same_v<T, bool>)
        return v ? "true" : "false";
    else if constexpr (std::is_integral_v<T>)
        return std::to_string(v);
    else if constexpr (std::is_same_v<T, std::vector<std::string>>)
        return joinList(v);
    else
        return kNames<T>[static_cast<std::size_t>(v)];
}

/** Write a shown field as its JSON value. */
template <typename T>
void
put(JsonWriter &w, const T &v)
{
    if constexpr (!std::is_same_v<T, typename Inner<T>::type>)
        put(w, *v);
    else if constexpr (std::is_integral_v<T>)
        w.value(v); // bool, int or std::uint64_t, written exactly
    else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
        w.beginArray();
        for (const auto &item : v)
            w.value(item);
        w.endArray();
    } else
        w.value(*show(v));
}

/** One spec field: its argv spelling, JSON member and usage line. */
struct Field
{
    const char *flag; //!< nullptr = JSON only
    const char *key;  //!< nullptr = argv only
    const char *meta; //!< usage value placeholder
    const char *help; //!< nullptr = not in the usage text
    std::string (*set)(RunSpec &, const std::string &);
    std::optional<std::string> (*show)(const RunSpec &);
    void (*put)(JsonWriter &, const RunSpec &);
    const char *switchText = nullptr; //!< a bare switch sets this text
    const char *alias = nullptr;      //!< second argv spelling
};

template <auto M>
constexpr Field
field(const char *flag, const char *key, const char *meta,
      const char *help, const char *switchText = nullptr,
      const char *alias = nullptr)
{
    return {flag, key, meta, help,
            [](RunSpec &s, const std::string &t) { return parse(t, s.*M); },
            [](const RunSpec &s) { return show(s.*M); },
            [](JsonWriter &w, const RunSpec &s) { put(w, s.*M); },
            switchText, alias};
}

std::string
setMesh(RunSpec &s, const std::string &text)
{
    const std::size_t x = text.find('x');
    int w = 0, h = 0;
    if (x == std::string::npos || !parse(text.substr(0, x), w).empty() ||
        !parse(text.substr(x + 1), h).empty())
        return "'" + text + "' is not WxH";
    s.meshWidth = w;
    s.meshHeight = h;
    return {};
}

std::optional<std::string>
showMesh(const RunSpec &s)
{
    return std::to_string(s.meshWidth) + "x" + std::to_string(s.meshHeight);
}

const Field kFields[] = {
    field<&RunSpec::scenario>("--scenario", "scenario", "NAME",
                              "design scenario (listed below)"),
    field<&RunSpec::regions>("--regions", "regions", "N",
                             "region-TSB count override [scenario's own]"),
    field<&RunSpec::placement>("--placement", "placement", "P",
                               "corner | stagger override [scenario's own]"),
    field<&RunSpec::hops>("--hops", "hops", "H",
                          "parent distance override [scenario's own]"),
    field<&RunSpec::delayMode>("--delay-mode", "delay_mode", "M",
                               "priority | hold override [scenario's own]"),
    field<&RunSpec::apps>("--apps", "apps", "A,B,..",
                          "apps round-robin over cores (--app: one)",
                          nullptr, "--app"),
    field<&RunSpec::seed>("--seed", "seed", "N", "experiment seed"),
    field<&RunSpec::warmup>("--warmup", "warmup", "N", "warm-up cycles"),
    field<&RunSpec::cycles>("--cycles", "cycles", "N", "measured cycles"),
    {"--mesh", nullptr, "WxH", "mesh size", setMesh, showMesh, nullptr},
    field<&RunSpec::meshWidth>(nullptr, "mesh_width", nullptr, nullptr),
    field<&RunSpec::meshHeight>(nullptr, "mesh_height", nullptr, nullptr),
    field<&RunSpec::threads>("--threads", "threads", "N",
                             "engine threads (bit-identical for any N)"),
    field<&RunSpec::elide>("--no-elide", "elide", nullptr,
                           "tick quiescent components too (bit-identical)",
                           "false"),
    field<&RunSpec::interval>("--interval", "interval", "N",
                              "interval telemetry period, 0 = off"),
    field<&RunSpec::faultSpec>("--fault-spec", "fault_spec", "SPEC",
                               "fault campaign (implies the watchdog)"),
    field<&RunSpec::realTags>("--real-tags", "real_tags", nullptr,
                              "real L2 tag arrays, not annotations", "true"),
};

const Field *
fieldOfFlag(const std::string &flag)
{
    for (const Field &f : kFields)
        if ((f.flag != nullptr && flag == f.flag) ||
            (f.alias != nullptr && flag == f.alias))
            return &f;
    return nullptr;
}

/** The argv text of JSON member @p v: a string as it is, a bool, a
 *  number as written (the field's parser judges it), or a string
 *  array as a comma list. */
std::string
jsonText(const JsonValue &v, std::string &out)
{
    std::vector<std::string> items;
    for (const JsonValue &e : v.elements())
        if (e.isString())
            items.push_back(e.asString());
    if (v.isString())
        out = v.asString();
    else if (v.type() == JsonValue::Type::Bool)
        out = v.asBool() ? "true" : "false";
    else if (v.isNumber())
        out = v.numberToken();
    else if (v.isArray() && items.size() == v.size())
        out = joinList(items);
    else
        return "must be a string, bool, number or string array";
    return {};
}

} // namespace

std::string
RunSpec::set(const std::string &flag, const std::string &text)
{
    const Field *f = fieldOfFlag(flag);
    if (f == nullptr)
        return "'" + flag + "' is not a run-spec flag";
    const std::string err = f->set(*this, text);
    return err.empty() ? err : flag + ": " + err;
}

bool
RunSpec::takeArg(int argc, char *const *argv, int &i, std::string &err)
{
    const std::string flag = argv[i];
    const Field *f = fieldOfFlag(flag);
    if (f == nullptr)
        return false;
    if (f->switchText != nullptr)
        err = set(flag, f->switchText);
    else if (i + 1 < argc)
        err = set(flag, argv[++i]);
    else
        err = flag + " needs a value";
    return true;
}

std::string
RunSpec::readJson(const JsonValue &v)
{
    if (!v.isObject())
        return "request is not a JSON object";
    for (const Field &f : kFields) {
        const JsonValue *m = f.key != nullptr ? v.find(f.key) : nullptr;
        std::string text, err;
        if (m != nullptr && (err = jsonText(*m, text)).empty())
            err = f.set(*this, text);
        if (!err.empty())
            return std::string(f.key) + ": " + err;
    }
    return {};
}

std::vector<std::string>
RunSpec::toArgs() const
{
    std::vector<std::string> out;
    for (const Field &f : kFields) {
        const auto text = f.flag != nullptr ? f.show(*this) : std::nullopt;
        if (text && f.switchText == nullptr)
            out.insert(out.end(), {f.flag, *text});
        else if (text && *text == f.switchText)
            out.push_back(f.flag);
    }
    return out;
}

void
RunSpec::writeJson(JsonWriter &w) const
{
    for (const Field &f : kFields) {
        if (f.key != nullptr && f.show(*this)) {
            w.key(f.key);
            f.put(w, *this);
        }
    }
}

std::string
RunSpec::resolve(SystemConfig &cfg) const
{
    if (!scenarios::byName(scenario, cfg.scenario))
        return "--scenario: unknown scenario '" + scenario +
               "' (known: " + scenarios::knownNames() + ")";
    Scenario &sc = cfg.scenario;
    const auto bad = [&](const std::string &flag, const char *why) {
        return flag + " for " + sc.name + ": " + why;
    };
    const bool tsbs = sc.tsbRegions > 0;
    if (regions && (!tsbs || *regions < 1))
        return bad("--regions " + std::to_string(*regions),
                   !tsbs ? "it has no region TSBs (all vertical links open)"
                   : sc.scheme ? "its STT-RAM-aware scheme needs region TSBs"
                               : "0 lifts its path restriction (that design "
                                 "is MRAM-64TSB)");
    if (placement && !tsbs)
        return bad("--placement", "it has no region TSBs to place");
    if (hops && *hops < 1)
        return "--hops must be >= 1";
    if ((hops || delayMode) && !sc.scheme)
        return bad(hops ? "--hops" : "--delay-mode",
                   "it has no STT-RAM-aware scheme");
    sc.tsbRegions = regions.value_or(sc.tsbRegions);
    sc.placement = placement.value_or(sc.placement);
    sc.parentHops = hops.value_or(sc.parentHops);
    sc.delayMode = delayMode.value_or(sc.delayMode);
    // CmpSystem builds the region map even without region TSBs (at 4
    // regions), so every mesh must tile. n equal rectangles tile a WxH
    // mesh iff n divides W*H: each prime power of n splits between W
    // and H, which is the factorisation sttnoc::RegionMap searches for.
    const int tiled = tsbs ? sc.tsbRegions : 4;
    if (meshWidth < 1 || meshHeight < 1 ||
        meshWidth * meshHeight % tiled != 0)
        return detail::format("%s: %d regions cannot tile a %dx%d mesh",
                              regions ? "--regions" : "--mesh", tiled,
                              meshWidth, meshHeight);
    if (cycles == 0)
        return "--cycles must be >= 1";
    if (threads < 1)
        return "--threads must be >= 1";
    if (apps.empty())
        return "--apps needs at least one app";

    cfg.meshWidth = meshWidth;
    cfg.meshHeight = meshHeight;
    cfg.apps = expandApps(apps, meshWidth * meshHeight);
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.elide = elide;
    cfg.realTags = realTags;
    if (const std::string err = applyFaultSpec(faultSpec, cfg);
        !err.empty())
        return "bad --fault-spec: " + err;
    const NodeId stuck = cfg.faults.stuckRouter;
    if (cfg.faultsEnabled && stuck != kInvalidNode &&
        (stuck < 0 || stuck >= 2 * meshWidth * meshHeight))
        return detail::format("bad --fault-spec: router_stuck node %d is "
                              "outside the %dx%dx2 mesh",
                              static_cast<int>(stuck), meshWidth,
                              meshHeight);
    return {};
}

std::vector<std::string>
RunSpec::flags()
{
    std::vector<std::string> out;
    for (const Field &f : kFields)
        if (f.flag != nullptr)
            out.push_back(f.flag);
    return out;
}

std::string
RunSpec::usage()
{
    const RunSpec defaults;
    std::ostringstream os;
    for (const Field &f : kFields) {
        if (f.help == nullptr)
            continue;
        std::string head = std::string("  ") + f.flag + " " +
                           (f.switchText == nullptr ? f.meta : "");
        head.resize(std::max<std::size_t>(head.size(), 20), ' ');
        const auto d = f.switchText == nullptr ? f.show(defaults)
                                               : std::nullopt;
        os << head << f.help << (d ? " [" + *d + "]" : "") << "\n";
    }
    std::string line = "  scenarios:";
    for (const auto &name : splitList(scenarios::knownNames())) {
        if (line.size() + name.size() > 76) {
            os << line << "\n";
            line.assign(19, ' ');
        }
        line += " " + name.substr(name.find_first_not_of(' '));
    }
    os << line << "\n";
    return os.str();
}

std::vector<std::string>
splitList(const std::string &list, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(list);
    for (std::string item; std::getline(ss, item, sep);)
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const auto &a : items)
        out += (out.empty() ? "" : ",") + a;
    return out;
}

std::vector<std::string>
expandApps(const std::vector<std::string> &apps, int cores)
{
    if (apps.size() <= 1)
        return apps;
    std::vector<std::string> out;
    for (int c = 0; c < cores; ++c)
        out.push_back(apps[static_cast<std::size_t>(c) % apps.size()]);
    return out;
}

std::string
applyFaultSpec(const std::string &spec, SystemConfig &cfg)
{
    cfg.faults = fault::FaultSpec{};
    std::string err;
    if (!spec.empty() && !fault::parseFaultSpec(spec, cfg.faults, err))
        return err;
    cfg.faultsEnabled = cfg.faults.any();
    cfg.watchdogEnabled = cfg.faultsEnabled;
    return {};
}

} // namespace stacknoc::system
