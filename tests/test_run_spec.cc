/**
 * @file
 * RunSpec: both grammars round-trip through both renderings, the cache
 * key stays compatible with results recorded before the spec existed,
 * scenario names resolve to themselves, and resolve() rejects every
 * override a scenario cannot honour with a reason naming the flag.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "server/protocol.hh"
#include "system/run_spec.hh"

namespace stacknoc {
namespace {

using system::RunSpec;

std::vector<RunSpec>
sampleSpecs()
{
    std::vector<RunSpec> specs(6);
    specs[1].scenario = "BUFF-20";
    specs[1].apps = {"tpcc", "lbm", "mcf", "libquantum"};
    specs[1].seed = 7;
    specs[1].elide = false;
    specs[1].realTags = true;
    specs[2].regions = 8;
    specs[2].placement = sttnoc::TsbPlacement::Stagger;
    specs[2].hops = 3;
    specs[2].delayMode = sttnoc::DelayMode::Hold;
    specs[3].regions = 0; // set-but-invalid still round-trips
    specs[3].meshWidth = 4;
    specs[3].meshHeight = 2;
    specs[3].threads = 4;
    specs[3].interval = 250;
    specs[3].faultSpec = "stt_write_ber=1e-3,tsb_flit_ber=1e-6";
    specs[4].seed = (std::uint64_t{1} << 53) - 1; // widest exact double
    specs[4].warmup = 0;
    specs[4].cycles = 1;
    // Past 2^53 a double would round; the number's token is exact.
    specs[5].seed = 18364758544493064720ull;
    return specs;
}

RunSpec
fromArgs(const std::vector<std::string> &words)
{
    std::vector<char *> argv{const_cast<char *>("tool")};
    for (const auto &w : words)
        argv.push_back(const_cast<char *>(w.c_str()));
    RunSpec s;
    // Start from non-defaults so every rendered field must be read.
    s.scenario = "SRAM-64TSB";
    s.apps = {"x264"};
    const int argc = static_cast<int>(argv.size());
    for (int i = 1; i < argc; ++i) {
        std::string err;
        EXPECT_TRUE(s.takeArg(argc, argv.data(), i, err)) << argv[i];
        EXPECT_EQ(err, "");
    }
    return s;
}

TEST(RunSpec, ArgvRoundTrip)
{
    for (const RunSpec &spec : sampleSpecs())
        EXPECT_EQ(fromArgs(spec.toArgs()), spec);
}

TEST(RunSpec, JsonRoundTrip)
{
    for (const RunSpec &spec : sampleSpecs()) {
        std::ostringstream os;
        telemetry::JsonWriter w(os);
        w.beginObject();
        spec.writeJson(w);
        w.endObject();
        const auto doc = telemetry::JsonValue::parse(os.str());
        ASSERT_TRUE(doc) << os.str();
        RunSpec back;
        back.scenario = "SRAM-64TSB";
        EXPECT_EQ(back.readJson(*doc), "") << os.str();
        EXPECT_EQ(back, spec) << os.str();
    }
}

TEST(RunSpec, JsonMembersAcceptTheirCliSpelling)
{
    RunSpec s;
    const auto doc = telemetry::JsonValue::parse(
        R"({"seed":"18364758544493064720","elide":"false",)"
        R"("apps":"tpcc,lbm","placement":"stagger"})");
    ASSERT_EQ(s.readJson(*doc), "");
    EXPECT_EQ(s.seed, 18364758544493064720ull);
    EXPECT_FALSE(s.elide);
    EXPECT_EQ(s.apps, (std::vector<std::string>{"tpcc", "lbm"}));
    EXPECT_EQ(s.placement, sttnoc::TsbPlacement::Stagger);
}

TEST(RunSpec, UnsetOverridesAreNotRendered)
{
    const RunSpec spec;
    for (const auto &word : spec.toArgs())
        for (const char *flag :
             {"--regions", "--placement", "--hops", "--delay-mode"})
            EXPECT_NE(word, flag);
    std::ostringstream os;
    telemetry::JsonWriter w(os);
    w.beginObject();
    spec.writeJson(w);
    w.endObject();
    EXPECT_EQ(os.str().find("regions"), std::string::npos) << os.str();
}

TEST(RunSpec, GrammarErrorsNameTheField)
{
    RunSpec s;
    EXPECT_NE(s.set("--regions", "abc").find("--regions"),
              std::string::npos);
    EXPECT_NE(s.set("--seed", "-3").find("--seed"), std::string::npos);
    EXPECT_NE(s.set("--mesh", "8by8").find("--mesh"), std::string::npos);
    EXPECT_NE(s.set("--placement", "diagonal").find("--placement"),
              std::string::npos);
    EXPECT_EQ(s, RunSpec{}) << "a rejected value must not stick";

    const auto json = [](const char *text) {
        RunSpec r;
        return r.readJson(*telemetry::JsonValue::parse(text));
    };
    EXPECT_NE(json(R"({"regions":"four"})").find("regions"),
              std::string::npos);
    EXPECT_NE(json(R"({"cycles":1.5})").find("cycles"), std::string::npos);
    EXPECT_NE(json(R"({"apps":[]})").find("apps"), std::string::npos);
    EXPECT_NE(json(R"({"elide":1})").find("elide"), std::string::npos);
    EXPECT_EQ(json(R"({"cmd":"run","id":3})"), "");
    // A number is read as written, so a seed past 2^53 is exact.
    RunSpec big;
    ASSERT_EQ(big.readJson(*telemetry::JsonValue::parse(
                  R"({"seed":18364758544493064720})")),
              "");
    EXPECT_EQ(big.seed, 18364758544493064720ull);
}

/** config_digest values recorded by the sweep before RunSpec existed
 *  (3000 + 20000 cycles, seed 1, one thread). */
TEST(RunSpec, CacheKeyMatchesRecordedDigests)
{
    RunSpec wb;
    EXPECT_EQ(server::cacheKeyDigest(wb), 0x125775864942ec18ull);

    RunSpec restricted;
    restricted.scenario = "MRAM-4TSB";
    EXPECT_EQ(server::cacheKeyDigest(restricted), 0x2cee6c6d3bab0d02ull);
    restricted.regions = 4; // the scenario's own count: same design
    EXPECT_EQ(server::cacheKeyDigest(restricted), 0x2cee6c6d3bab0d02ull);

    RunSpec mixed;
    mixed.apps = {"tpcc", "lbm", "mcf", "libquantum"};
    EXPECT_EQ(server::cacheKeyDigest(mixed), 0xbe071920c3bd8452ull);
}

TEST(RunSpec, ScenarioNamesResolveToThemselves)
{
    using namespace system::scenarios;
    const system::Scenario all[] = {
        sram64Tsb(),           sttram64Tsb(),     sttram4Tsb(),
        sttram4TsbSS(),        sttram4TsbRca(),   sttram4TsbWb(),
        sttramBuff20(),        sttram4TsbWbPlus1Vc(),
        sttramReadPriority(),  sttram4TsbWbReadPriority(),
    };
    const std::string known = knownNames();
    for (const auto &s : all) {
        system::Scenario out;
        ASSERT_TRUE(byName(s.name, out)) << s.name;
        EXPECT_EQ(out.name, s.name);
        EXPECT_NE(known.find(s.name), std::string::npos) << s.name;
    }
    system::Scenario alias;
    ASSERT_TRUE(byName("+1VC", alias));
    EXPECT_EQ(alias.name, "MRAM-4TSB-WB+1VC");
}

TEST(RunSpec, ResolveAppliesOverridesAndKeepsCallerFields)
{
    RunSpec spec;
    spec.regions = 8;
    spec.hops = 3;
    spec.apps = {"tpcc", "lbm"};
    spec.faultSpec = "stt_write_ber=1e-3";
    spec.interval = 500;
    system::SystemConfig cfg;
    cfg.power = true;
    cfg.intervalPeriod = 7;
    ASSERT_EQ(spec.resolve(cfg), "");
    EXPECT_EQ(cfg.scenario.name, "MRAM-4TSB-WB");
    EXPECT_EQ(cfg.scenario.tsbRegions, 8);
    EXPECT_EQ(cfg.scenario.parentHops, 3);
    ASSERT_EQ(cfg.apps.size(), 64u);
    EXPECT_EQ(cfg.apps[63], "lbm");
    EXPECT_TRUE(cfg.faultsEnabled);
    EXPECT_TRUE(cfg.watchdogEnabled) << "faults imply the watchdog";
    EXPECT_TRUE(cfg.power) << "observer knobs belong to the caller";
    EXPECT_EQ(cfg.intervalPeriod, 7u) << "so does the sampler period";

    RunSpec zero;
    zero.faultSpec = "stt_write_ber=0";
    ASSERT_EQ(zero.resolve(cfg), "");
    EXPECT_FALSE(cfg.faultsEnabled) << "an all-zero spec injects nothing";
    EXPECT_FALSE(cfg.watchdogEnabled);
}

TEST(RunSpec, ResolveRejectsWhatTheScenarioCannotHonour)
{
    struct Case
    {
        const char *scenario;
        std::vector<std::pair<const char *, const char *>> flags;
        const char *named; //!< flag the one-line reason must name
    };
    const Case cases[] = {
        {"MRAM-64TSB", {{"--regions", "8"}}, "--regions"},
        {"SRAM-64TSB", {{"--regions", "4"}}, "--regions"},
        {"BUFF-20", {{"--regions", "4"}}, "--regions"},
        {"MRAM-RP", {{"--regions", "4"}}, "--regions"},
        {"MRAM-4TSB-WB", {{"--regions", "0"}}, "--regions"},
        {"MRAM-4TSB", {{"--regions", "0"}}, "--regions"},
        {"MRAM-4TSB-WB", {{"--regions", "3"}}, "--regions"},
        {"MRAM-4TSB-WB", {{"--mesh", "3x3"}}, "--mesh"},
        {"MRAM-4TSB-WB", {{"--hops", "0"}}, "--hops"},
        {"MRAM-4TSB", {{"--hops", "2"}}, "--hops"},
        {"MRAM-4TSB", {{"--delay-mode", "hold"}}, "--delay-mode"},
        {"MRAM-64TSB", {{"--placement", "stagger"}}, "--placement"},
        {"MRAM-4TSB-WB", {{"--cycles", "0"}}, "--cycles"},
        {"MRAM-4TSB-WB", {{"--threads", "0"}}, "--threads"},
        {"MRAM-4TSB-WB", {{"--mesh", "0x8"}}, "--mesh"},
        {"NOPE", {}, "--scenario"},
        {"MRAM-4TSB-WB", {{"--fault-spec", "nonsense=9"}}, "--fault-spec"},
        {"MRAM-4TSB-WB", {{"--fault-spec", "router_stuck=500:1-2"}},
         "--fault-spec"},
    };
    for (const Case &c : cases) {
        RunSpec spec;
        spec.scenario = c.scenario;
        for (const auto &[flag, value] : c.flags)
            ASSERT_EQ(spec.set(flag, value), "") << flag;
        system::SystemConfig cfg;
        const std::string err = spec.resolve(cfg);
        EXPECT_NE(err.find(c.named), std::string::npos)
            << c.scenario << ": '" << err << "'";
        EXPECT_EQ(err.find('\n'), std::string::npos) << err;
    }
}

} // namespace
} // namespace stacknoc
