#include "server/protocol.hh"

#include <cstdio>
#include <sstream>

#include "snapshot/checkpoint.hh"
#include "snapshot/serialize.hh"

namespace stacknoc::server {

using telemetry::JsonValue;
using telemetry::JsonWriter;

std::uint64_t
cacheKeyDigest(const system::RunSpec &spec)
{
    system::SystemConfig cfg;
    const std::string err = spec.resolve(cfg);
    std::ostringstream os;
    if (!err.empty())
        os << "invalid:" << err;
    else
        os << snapshot::canonicalWarmSpec(cfg, spec.warmup)
           << "|cycles=" << spec.cycles << "|interval=" << spec.interval
           << "|threads=" << spec.threads
           << "|elide=" << (spec.elide ? 1 : 0)
           << "|proto=" << kProtocolVersion;
    return snapshot::fnv1a(os.str());
}

std::string
runCommand(const system::RunSpec &spec)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.kv("cmd", "run");
    spec.writeJson(w);
    w.endObject();
    return os.str();
}

void
writeJsonValue(JsonWriter &w, const JsonValue &v)
{
    switch (v.type()) {
    case JsonValue::Type::Null:
        w.null();
        break;
    case JsonValue::Type::Bool:
        w.value(v.asBool());
        break;
    case JsonValue::Type::Number:
        w.value(v.asDouble());
        break;
    case JsonValue::Type::String:
        w.value(v.asString());
        break;
    case JsonValue::Type::Array:
        w.beginArray();
        for (const JsonValue &e : v.elements())
            writeJsonValue(w, e);
        w.endArray();
        break;
    case JsonValue::Type::Object:
        w.beginObject();
        for (const auto &[k, m] : v.members()) {
            w.key(k);
            writeJsonValue(w, m);
        }
        w.endObject();
        break;
    }
}

std::string
jsonValueToString(const JsonValue &v)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeJsonValue(w, v);
    return os.str();
}

std::string
hexKey(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace stacknoc::server
