#include "snapshot/checkpoint.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "snapshot/state_io.hh"
#include "system/cmp_system.hh"

namespace stacknoc::snapshot {

const char kCheckpointMagic[8] = {'S', 'N', 'O', 'C', 'C', 'K', 'P', 'T'};

namespace {

void
putU32(std::ostream &out, std::uint32_t v)
{
    char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out.write(b, sizeof b);
}

void
putU64(std::ostream &out, std::uint64_t v)
{
    char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out.write(b, sizeof b);
}

bool
getU32(std::istream &in, std::uint32_t &v)
{
    char b[4];
    if (!in.read(b, sizeof b))
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= std::uint32_t(static_cast<unsigned char>(b[i])) << (8 * i);
    return true;
}

bool
getU64(std::istream &in, std::uint64_t &v)
{
    char b[8];
    if (!in.read(b, sizeof b))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= std::uint64_t(static_cast<unsigned char>(b[i])) << (8 * i);
    return true;
}

/** Bit-exact double rendering for the canonical spec. */
std::string
hexDouble(double d)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::bit_cast<std::uint64_t>(d);
    return os.str();
}

} // namespace

std::string
canonicalWarmSpec(const system::SystemConfig &cfg, Cycle warmupCycles)
{
    const system::Scenario &sc = cfg.scenario;
    std::ostringstream os;
    os << "v=" << kFormatVersion;
    os << ";mesh=" << cfg.meshWidth << "x" << cfg.meshHeight;
    os << ";scenario=" << sc.name;
    os << ";tech=" << static_cast<int>(sc.tech);
    os << ";tsb=" << sc.tsbRegions;
    os << ";placement=" << static_cast<int>(sc.placement);
    os << ";scheme="
       << (sc.scheme ? static_cast<int>(*sc.scheme) : -1);
    os << ";parent_hops=" << sc.parentHops;
    os << ";delay_mode=" << static_cast<int>(sc.delayMode);
    os << ";write_buffer=" << (sc.writeBuffer ? 1 : 0)
       << ":" << sc.writeBufferEntries;
    os << ";read_priority=" << (sc.readPriority ? 1 : 0);
    os << ";vcs=";
    for (int v : sc.vcsPerVnet)
        os << v << ",";
    os << ";apps=";
    for (const std::string &a : cfg.apps)
        os << a << ",";
    os << ";seed=" << cfg.seed;
    os << ";stream=" << hexDouble(cfg.stream.memFraction) << ","
       << hexDouble(cfg.stream.l2CapacityMissFactor) << ","
       << hexDouble(cfg.stream.shareProb) << ","
       << cfg.stream.sharedPoolBlocks << "," << cfg.stream.numBanks << ","
       << hexDouble(cfg.stream.burstContinueProb) << ","
       << cfg.stream.burstMaxLen << ","
       << hexDouble(cfg.stream.burstMissProb) << ","
       << hexDouble(cfg.stream.hotBankStickiness) << ","
       << hexDouble(cfg.stream.reuseProb) << ","
       << hexDouble(cfg.stream.storeHitFraction) << ","
       << hexDouble(cfg.stream.depProb);
    os << ";l1=" << cfg.l1.sets << "," << cfg.l1.ways << ","
       << cfg.l1.hitLatency << "," << cfg.l1.mshrs;
    os << ";dram=" << cfg.dram.accessCycles << ","
       << cfg.dram.maxInFlight;
    os << ";real_tags=" << (cfg.realTags ? 1 : 0);
    os << ";victim_dirty=" << hexDouble(cfg.victimDirtyProb);
    os << ";caps=" << cfg.bankRequestCap << "," << cfg.bankWriteCap;
    os << ";warmup=" << warmupCycles;
    os << ";faults="
       << (cfg.faultsEnabled ? cfg.faults.toString() : std::string("off"));
    return os.str();
}

std::uint64_t
warmConfigDigest(const system::SystemConfig &cfg, Cycle warmupCycles)
{
    return fnv1a(canonicalWarmSpec(cfg, warmupCycles));
}

void
saveCheckpoint(const system::CmpSystem &sys, std::ostream &out,
               std::uint64_t warmDigest)
{
    Saver s;
    StateIO::save(sys, s);
    const std::vector<std::uint8_t> &payload = s.bytes();

    out.write(kCheckpointMagic, sizeof kCheckpointMagic);
    putU32(out, kFormatVersion);
    putU64(out, warmDigest);
    putU64(out, sys.simulator().now());
    putU64(out, payload.size());
    putU64(out, fnv1a(payload.data(), payload.size()));
    out.write(reinterpret_cast<const char *>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
    out.flush();
}

std::string
restoreCheckpoint(system::CmpSystem &sys, std::istream &in,
                  std::uint64_t expectedDigest, Cycle *restoredCycle)
{
    char magic[sizeof kCheckpointMagic];
    if (!in.read(magic, sizeof magic))
        return "checkpoint truncated (missing magic)";
    if (std::memcmp(magic, kCheckpointMagic, sizeof magic) != 0)
        return "not a stacknoc checkpoint (bad magic)";

    std::uint32_t version = 0;
    if (!getU32(in, version))
        return "checkpoint truncated (missing version)";
    if (version != kFormatVersion) {
        std::ostringstream os;
        os << "checkpoint format version " << version
           << " unsupported (this build reads version " << kFormatVersion
           << "; re-create the checkpoint)";
        return os.str();
    }

    std::uint64_t warmDigest = 0, cycle = 0, size = 0, fnv = 0;
    if (!getU64(in, warmDigest) || !getU64(in, cycle) || !getU64(in, size)
        || !getU64(in, fnv))
        return "checkpoint truncated (short header)";
    if (warmDigest != expectedDigest) {
        std::ostringstream os;
        os << "checkpoint was taken under a different warm configuration "
              "(digest 0x"
           << std::hex << warmDigest << " != expected 0x" << expectedDigest
           << ")";
        return os.str();
    }
    if (size > (std::uint64_t{1} << 32))
        return "checkpoint payload size implausible (corrupt header)";

    std::vector<std::uint8_t> payload(static_cast<std::size_t>(size));
    if (!in.read(reinterpret_cast<char *>(payload.data()),
                 static_cast<std::streamsize>(payload.size())))
        return "checkpoint truncated (short payload)";
    if (fnv1a(payload.data(), payload.size()) != fnv)
        return "checkpoint payload checksum mismatch (corrupt file)";

    try {
        Loader l(payload.data(), payload.size());
        StateIO::load(sys, l);
    } catch (const SnapshotError &e) {
        return std::string("checkpoint restore failed: ") + e.what();
    }
    // Complete the warm boundary exactly as an uninterrupted run would:
    // stats groups are already zero, probes re-baseline from the
    // restored plain counters, measurement starts at the restored cycle.
    sys.warmupEnd();
    if (restoredCycle != nullptr)
        *restoredCycle = cycle;
    return {};
}

namespace {

bool
isCheckpointEntry(const std::filesystem::directory_entry &e)
{
    if (!e.is_regular_file())
        return false;
    const std::string name = e.path().filename().string();
    return name.rfind("ckpt_", 0) == 0 && name.size() > 9 &&
           name.compare(name.size() - 4, 4, ".bin") == 0;
}

} // namespace

CkptDirUsage
ckptDirUsage(const std::string &dir)
{
    CkptDirUsage usage;
    if (dir.empty())
        return usage;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec)) {
        if (!isCheckpointEntry(e))
            continue;
        std::error_code sec;
        const auto size = e.file_size(sec);
        if (sec)
            continue; // raced with a concurrent delete
        usage.bytes += size;
        ++usage.files;
    }
    return usage;
}

std::uint64_t
evictCheckpointsLru(const std::string &dir, std::uint64_t capBytes)
{
    std::uint64_t evicted = 0;
    if (dir.empty())
        return evicted;

    struct Entry
    {
        std::filesystem::path path;
        std::filesystem::file_time_type mtime;
        std::uint64_t bytes = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec)) {
        if (!isCheckpointEntry(e))
            continue;
        std::error_code sec;
        const auto size = e.file_size(sec);
        const auto mtime = e.last_write_time(sec);
        if (sec)
            continue;
        entries.push_back({e.path(), mtime, size});
        total += size;
    }
    if (total <= capBytes)
        return evicted;

    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.mtime < b.mtime;
              });
    for (const Entry &e : entries) {
        if (total <= capBytes)
            break;
        std::error_code rec;
        if (!std::filesystem::remove(e.path, rec) || rec)
            continue; // a concurrent server got it first
        total -= e.bytes;
        ++evicted;
    }
    return evicted;
}

void
touchCheckpoint(const std::string &path)
{
    std::error_code ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
}

} // namespace stacknoc::snapshot
