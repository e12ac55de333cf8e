/**
 * @file
 * The checkpoint/restore contract: a run restored from a warm-boundary
 * checkpoint must produce stats bit-identical to the uninterrupted run,
 * at any --threads and with elision on or off, for clean and faulty
 * configurations — across the {seeds} x {1,4 threads} x {elide,
 * no-elide} x {clean, faults} cross product, and for every named
 * scenario. The payload bytes of three configurations are pinned, so a
 * change to the transfer code that moves one byte fails here. Plus
 * rejection tests: corruption, truncation, version and warm-config
 * mismatches must fail with a one-line reason, never a crash or a
 * silently wrong run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_spec.hh"
#include "noc/packet.hh"
#include "snapshot/checkpoint.hh"
#include "snapshot/state_io.hh"
#include "system/cmp_system.hh"
#include "system/scenario.hh"

using namespace stacknoc;

namespace {

constexpr Cycle kWarmup = 1200;
constexpr Cycle kCycles = 2500;

system::SystemConfig
baseConfig(std::uint64_t seed, int threads, bool elide,
           bool with_faults)
{
    system::SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.scenario = system::scenarios::sttram4TsbWb();
    std::vector<std::string> apps;
    const std::vector<std::string> mix{"tpcc", "lbm", "mcf",
                                       "libquantum"};
    for (int c = 0; c < 16; ++c)
        apps.push_back(mix[static_cast<std::size_t>(c) % 4]);
    cfg.apps = apps;
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.elide = elide;
    cfg.stream.numBanks = 16;
    if (with_faults) {
        std::string err;
        const bool ok = fault::parseFaultSpec(
            "stt_write_ber=1e-3,link_flit_ber=2e-4,tsb_flit_ber=1e-4",
            cfg.faults, err);
        EXPECT_TRUE(ok) << err;
        cfg.faultsEnabled = true;
    }
    return cfg;
}

/** Uninterrupted reference run: warmup + measure, one process. */
std::uint64_t
runUninterrupted(const system::SystemConfig &cfg)
{
    noc::resetPacketIds();
    system::CmpSystem sys(cfg);
    sys.warmup(kWarmup);
    sys.run(kCycles);
    return snapshot::statsDigest(sys);
}

/** Capture a checkpoint at the warm boundary of a fresh run. */
std::string
captureCheckpoint(const system::SystemConfig &cfg)
{
    noc::resetPacketIds();
    system::CmpSystem sys(cfg);
    sys.warmupBegin();
    sys.run(kWarmup);
    sys.warmupEnd();
    std::ostringstream out(std::ios::binary);
    snapshot::saveCheckpoint(sys, out,
                             snapshot::warmConfigDigest(cfg, kWarmup));
    return out.str();
}

/** Restore the checkpoint into a fresh system and run to completion. */
std::uint64_t
runRestored(const system::SystemConfig &cfg, const std::string &ckpt)
{
    noc::resetPacketIds();
    system::CmpSystem sys(cfg);
    std::istringstream in(ckpt, std::ios::binary);
    const std::string err = snapshot::restoreCheckpoint(
        sys, in, snapshot::warmConfigDigest(cfg, kWarmup));
    EXPECT_EQ(err, "");
    sys.run(kCycles);
    return snapshot::statsDigest(sys);
}

} // namespace

TEST(Snapshot, RoundTripBitIdentityMatrix)
{
    for (const bool faults : {false, true}) {
        for (const std::uint64_t seed : {1ull, 23ull}) {
            // The reference digest and the checkpoint both come from
            // the canonical sequential elided configuration...
            const auto ref_cfg = baseConfig(seed, 1, true, faults);
            const std::uint64_t ref = runUninterrupted(ref_cfg);
            const std::string ckpt = captureCheckpoint(ref_cfg);
            ASSERT_FALSE(ckpt.empty());

            // ...and every restore target must reproduce it exactly,
            // whatever engine the restored run uses.
            for (const int threads : {1, 4}) {
                for (const bool elide : {true, false}) {
                    const auto cfg =
                        baseConfig(seed, threads, elide, faults);
                    EXPECT_EQ(runRestored(cfg, ckpt), ref)
                        << "seed=" << seed << " threads=" << threads
                        << " elide=" << elide << " faults=" << faults;
                }
            }
        }
    }
}

/** Every named scenario exercises a different set of transfer branches:
 *  the write buffer (BUFF-20), the RCA fabric, no bank-aware policy
 *  (64-TSB, MRAM-RP), the extra VC (+1VC), and real L2 tags. */
TEST(Snapshot, RoundTripEveryScenario)
{
    std::vector<system::SystemConfig> cfgs;
    const std::string names = system::scenarios::knownNames();
    for (std::size_t at = 0; at != std::string::npos;) {
        const std::size_t comma = names.find(", ", at);
        auto cfg = baseConfig(1, 1, true, false);
        ASSERT_TRUE(system::scenarios::byName(
            names.substr(at, comma - at), cfg.scenario));
        cfgs.push_back(cfg);
        at = comma == std::string::npos ? comma : comma + 2;
    }
    ASSERT_GE(cfgs.size(), 10u);
    auto tags = baseConfig(1, 1, true, false);
    tags.realTags = true;
    cfgs.push_back(tags);

    for (const auto &ref_cfg : cfgs) {
        const std::uint64_t ref = runUninterrupted(ref_cfg);
        const std::string ckpt = captureCheckpoint(ref_cfg);
        for (const int threads : {1, 4}) {
            auto cfg = ref_cfg;
            cfg.threads = threads;
            EXPECT_EQ(runRestored(cfg, ckpt), ref)
                << ref_cfg.scenario.name << " realTags=" << ref_cfg.realTags
                << " threads=" << threads;
        }
    }
}

/** The whole checkpoint file, header and payload, for three
 *  configurations that between them reach every optional section. The
 *  values are fixed: a transfer-code change that alters a single byte
 *  must bump kFormatVersion and re-record them on purpose. */
TEST(Snapshot, PayloadBytesArePinned)
{
    const auto fnv = [](const system::SystemConfig &cfg) {
        return snapshot::fnv1a(captureCheckpoint(cfg));
    };
    ASSERT_EQ(snapshot::kFormatVersion, 1u);

    EXPECT_EQ(fnv(baseConfig(1, 1, true, true)), 0xf01021b1f8c3e3dfull)
        << "MRAM-4TSB-WB with faults";

    auto buff = baseConfig(1, 1, true, false);
    buff.scenario = system::scenarios::sttramBuff20();
    EXPECT_EQ(fnv(buff), 0x430f1b25c46b2bc6ull) << "BUFF-20";

    auto rca = baseConfig(1, 1, true, false);
    rca.scenario = system::scenarios::sttram4TsbRca();
    rca.realTags = true;
    EXPECT_EQ(fnv(rca), 0xe10d08e1fb44af1cull)
        << "MRAM-4TSB-RCA with real tags";
}

TEST(Snapshot, WarmDigestIgnoresEngineKnobs)
{
    const auto a = baseConfig(1, 1, true, false);
    auto b = baseConfig(1, 4, false, false);
    b.intervalPeriod = 64; // observer-only
    EXPECT_EQ(snapshot::warmConfigDigest(a, kWarmup),
              snapshot::warmConfigDigest(b, kWarmup));

    auto c = baseConfig(1, 1, true, false);
    c.seed = 2;
    EXPECT_NE(snapshot::warmConfigDigest(a, kWarmup),
              snapshot::warmConfigDigest(c, kWarmup));
    EXPECT_NE(snapshot::warmConfigDigest(a, kWarmup),
              snapshot::warmConfigDigest(a, kWarmup + 1));
}

TEST(Snapshot, RejectsCorruptionTruncationAndMismatch)
{
    const auto cfg = baseConfig(5, 1, true, false);
    const std::string ckpt = captureCheckpoint(cfg);
    const std::uint64_t digest =
        snapshot::warmConfigDigest(cfg, kWarmup);

    const auto restoreErr = [&](const std::string &bytes,
                                std::uint64_t expect) {
        noc::resetPacketIds();
        system::CmpSystem sys(cfg);
        std::istringstream in(bytes, std::ios::binary);
        return snapshot::restoreCheckpoint(sys, in, expect);
    };

    // The pristine checkpoint restores.
    EXPECT_EQ(restoreErr(ckpt, digest), "");

    // Warm-config mismatch.
    EXPECT_NE(restoreErr(ckpt, digest ^ 1).find("different warm"),
              std::string::npos);

    // Bad magic.
    std::string bad = ckpt;
    bad[0] = 'X';
    EXPECT_NE(restoreErr(bad, digest).find("bad magic"),
              std::string::npos);

    // Unsupported format version.
    bad = ckpt;
    bad[8] = static_cast<char>(snapshot::kFormatVersion + 1);
    EXPECT_NE(restoreErr(bad, digest).find("version"),
              std::string::npos);

    // Payload corruption is caught by the checksum.
    bad = ckpt;
    bad[bad.size() / 2] ^= char(0xff);
    EXPECT_NE(restoreErr(bad, digest).find("checksum"),
              std::string::npos);

    // Truncation.
    bad = ckpt.substr(0, ckpt.size() - 16);
    EXPECT_NE(restoreErr(bad, digest).find("truncated"),
              std::string::npos);
    bad = ckpt.substr(0, 10);
    EXPECT_NE(restoreErr(bad, digest).find("truncated"),
              std::string::npos);

    // A corrupt element count under a valid checksum: the packet-id
    // stream count (payload bytes 0..3, file offset 44) claims 2^32-1
    // entries. It must be refused before anything is sized by it.
    constexpr std::size_t kPayload = 44, kChecksum = 36;
    bad = ckpt;
    bad.replace(kPayload, 4, "\xff\xff\xff\xff");
    std::uint64_t sum =
        snapshot::fnv1a(bad.data() + kPayload, bad.size() - kPayload);
    for (std::size_t i = 0; i < 8; ++i, sum >>= 8)
        bad[kChecksum + i] = static_cast<char>(sum & 0xff);
    EXPECT_NE(restoreErr(bad, digest).find("restore failed"),
              std::string::npos);
}

TEST(Snapshot, RefusesValidationSystems)
{
    auto cfg = baseConfig(1, 1, true, false);
    cfg.validate = true;
    noc::resetPacketIds();
    system::CmpSystem sys(cfg);
    sys.warmupBegin();
    sys.run(64);
    sys.warmupEnd();
    std::ostringstream out(std::ios::binary);
    EXPECT_THROW(snapshot::saveCheckpoint(
                     sys, out, snapshot::warmConfigDigest(cfg, 64)),
                 snapshot::SnapshotError);
}
