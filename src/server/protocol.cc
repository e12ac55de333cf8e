#include "server/protocol.hh"

#include <cstdio>
#include <sstream>

#include "snapshot/checkpoint.hh"
#include "snapshot/serialize.hh"

namespace stacknoc::server {

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

std::string
hexKey(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace stacknoc::server
