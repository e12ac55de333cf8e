/**
 * @file
 * Minimal JSON support for machine-readable statistics export: a
 * streaming writer (compact output, automatic commas and escaping), a
 * small recursive-descent parser used by round-trip tests and tools,
 * and helpers serialising stats::Group and the interval time series.
 *
 * Deliberately not a general-purpose JSON library: no incremental
 * parsing, numbers read as doubles (each keeps its source token, so a
 * re-render is exact), inputs are trusted (our own output).
 */

#ifndef STACKNOC_TELEMETRY_JSON_HH
#define STACKNOC_TELEMETRY_JSON_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "telemetry/interval.hh"

namespace stacknoc::telemetry {

/** Escape @p s for inclusion in a JSON string literal (no quotes). */
std::string jsonEscape(const std::string &s);

/**
 * A streaming JSON writer. The caller drives structure with
 * beginObject/endObject/beginArray/endArray and key(); commas are
 * inserted automatically. Output is compact (single line), so files
 * written one object at a time concatenate into JSON-lines.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; the next value call supplies its value. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);
    JsonWriter &null();

    /** Emit @p token, a JSON number literal, verbatim. */
    JsonWriter &number(const std::string &token);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    kv(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

  private:
    void separate();

    std::ostream &os_;
    std::vector<bool> firstInScope_{true}; //!< per nesting level
    bool pendingKey_ = false;
};

/**
 * Write @p frames as the heatmap schema's frame array,
 * [{"start", "end", "grids": [[...] per layer]}], each frame's grids
 * ([layer][y * width + x]) read from its member @p grids.
 */
template <typename Frame, typename T>
void
writeGridFrames(JsonWriter &w, const std::vector<Frame> &frames,
                const std::vector<std::vector<T>> Frame::*grids)
{
    w.beginArray();
    for (const Frame &f : frames) {
        w.beginObject();
        w.kv("start", static_cast<std::uint64_t>(f.start));
        w.kv("end", static_cast<std::uint64_t>(f.end));
        w.key("grids");
        w.beginArray();
        for (const auto &grid : f.*grids) {
            w.beginArray();
            for (const T v : grid)
                w.value(v);
            w.endArray();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
}

/**
 * Write one grid file renderable by tools/heatmap_render.py:
 * {"metric", "width", "height", "layers", "period", "frames_dropped",
 *  "frames": writeGridFrames(...)}. @return false when the file could
 * not be opened.
 */
template <typename Frame, typename T>
bool
writeGridFile(const std::string &path, const char *metric, int width,
              int height, int layers, std::uint64_t period,
              std::uint64_t frames_dropped,
              const std::vector<Frame> &frames,
              const std::vector<std::vector<T>> Frame::*grids)
{
    std::ofstream os(path);
    if (!os)
        return false;
    JsonWriter w(os);
    w.beginObject();
    w.kv("metric", metric);
    w.kv("width", width);
    w.kv("height", height);
    w.kv("layers", layers);
    w.kv("period", period);
    w.kv("frames_dropped", frames_dropped);
    w.key("frames");
    writeGridFrames(w, frames, grids);
    w.endObject();
    os << "\n";
    return true;
}

/** A parsed JSON document node. */
class JsonValue
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }

    bool asBool() const { return boolean_; }
    double asDouble() const { return number_; }
    const std::string &asString() const { return string_; }

    /** A number's source token, exact where asDouble() may round. */
    const std::string &numberToken() const { return string_; }

    /** Array / object element count. */
    std::size_t size() const;

    /** Array element @p i (nullptr when out of range / not an array). */
    const JsonValue *at(std::size_t i) const;

    /** Object member @p key (nullptr when absent / not an object). */
    const JsonValue *find(const std::string &key) const;

    const std::map<std::string, JsonValue> &members() const
    {
        return object_;
    }
    const std::vector<JsonValue> &elements() const { return array_; }

    /**
     * Parse @p text. @return std::nullopt on malformed input (the
     * optional error message lands in @p err).
     */
    static std::optional<JsonValue> parse(const std::string &text,
                                          std::string *err = nullptr);

  private:
    friend class JsonParser;

    Type type_ = Type::Null;
    bool boolean_ = false;
    double number_ = 0.0;
    std::string string_; //!< string value, or a number's source token
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

/** Render any parsed JsonValue back to compact JSON, each number as
 *  its source token. */
void writeJsonValue(JsonWriter &w, const JsonValue &v);
std::string jsonValueToString(const JsonValue &v);

/**
 * Serialise one statistics group as the value of the current key:
 * { "counters": {...}, "averages": {...}, "distributions": {...},
 *   "histograms": {...} }. Histograms carry p50/p95/p99/max plus their
 * non-empty log2 buckets.
 */
void writeGroupJson(JsonWriter &w, const stats::Group &group);

/**
 * Serialise the interval time series as the value of the current key:
 * { "period": N, "measure_start": C, "snapshots": [...] }.
 */
void writeIntervalJson(JsonWriter &w, const IntervalSampler &sampler);

} // namespace stacknoc::telemetry

#endif // STACKNOC_TELEMETRY_JSON_HH
