/**
 * @file
 * Smoke tests of the stacknoc_run command-line tool: option handling,
 * scenario selection, and output format stability.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include <sys/wait.h>

namespace stacknoc {
namespace {

/** Run a tool (relative to the test binary's build directory). */
int
runTool(const std::string &tool, const std::string &args, std::string *out)
{
    const std::string cmd = "../tools/" + tool + " " + args + " 2>&1";
    std::FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return -1;
    std::array<char, 512> buf;
    out->clear();
    while (std::fgets(buf.data(), buf.size(), p))
        *out += buf.data();
    return ::pclose(p);
}

int
runCli(const std::string &args, std::string *out)
{
    return runTool("stacknoc_run", args, out);
}

TEST(Cli, ListAppsPrintsFortyTwo)
{
    std::string out;
    ASSERT_EQ(runCli("--list-apps", &out), 0);
    int lines = 0;
    for (const char c : out)
        lines += c == '\n';
    EXPECT_EQ(lines, 42);
    EXPECT_NE(out.find("tpcc"), std::string::npos);
    EXPECT_NE(out.find("calculix"), std::string::npos);
}

TEST(Cli, SmallRunPrintsMetrics)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-4TSB-WB --app lbm --mesh 4x4 "
                     "--cycles 3000 --warmup 500", &out), 0);
    EXPECT_NE(out.find("scenario=MRAM-4TSB-WB"), std::string::npos);
    EXPECT_NE(out.find("cores=16"), std::string::npos);
    EXPECT_NE(out.find("mean_ipc="), std::string::npos);
    EXPECT_NE(out.find("energy_uj="), std::string::npos);
}

TEST(Cli, AppsListReplicatesAcrossCores)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario SRAM-64TSB --apps tpcc,lbm --mesh 4x4 "
                     "--cycles 2000 --warmup 500", &out), 0);
    EXPECT_NE(out.find("mean_ipc="), std::string::npos);
}

TEST(Cli, BadScenarioFails)
{
    std::string out;
    EXPECT_NE(runCli("--scenario NOPE --cycles 100", &out), 0);
    EXPECT_NE(out.find("unknown scenario"), std::string::npos);
}

TEST(Cli, BadFlagShowsUsage)
{
    std::string out;
    EXPECT_NE(runCli("--frobnicate", &out), 0);
    EXPECT_NE(out.find("unknown option '--frobnicate'"),
              std::string::npos);
    EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST(Cli, TypoedFlagSuggestsCorrection)
{
    std::string out;
    EXPECT_NE(runCli("--cycels 100", &out), 0);
    EXPECT_NE(out.find("unknown option '--cycels'"), std::string::npos);
    EXPECT_NE(out.find("did you mean '--cycles'?"), std::string::npos);
}

TEST(Cli, ImplausibleTypoGetsNoSuggestion)
{
    std::string out;
    EXPECT_NE(runCli("--zzzzqqqqxxxx", &out), 0);
    EXPECT_NE(out.find("unknown option"), std::string::npos);
    EXPECT_EQ(out.find("did you mean"), std::string::npos);
}

TEST(Cli, ThreadsFlagRunsShardedEngine)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-4TSB-WB --app tpcc --mesh 4x4 "
                     "--cycles 1500 --warmup 200 --threads 2", &out), 0);
    EXPECT_NE(out.find("engine=sharded threads=2"), std::string::npos);
    EXPECT_NE(out.find("mean_ipc="), std::string::npos);
}

TEST(Cli, ThreadsZeroRejected)
{
    std::string out;
    EXPECT_NE(runCli("--threads 0", &out), 0);
    EXPECT_NE(out.find("--threads must be >= 1"), std::string::npos);
}

TEST(Cli, FuzzRejectsUnknownFlagWithHint)
{
    std::string out;
    const std::string cmd =
        "../tools/stacknoc_fuzz --rnus 3 2>&1";
    std::FILE *p = ::popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::array<char, 512> buf;
    out.clear();
    while (std::fgets(buf.data(), buf.size(), p))
        out += buf.data();
    EXPECT_NE(::pclose(p), 0);
    EXPECT_NE(out.find("unknown option '--rnus'"), std::string::npos);
    EXPECT_NE(out.find("did you mean '--runs'?"), std::string::npos);
}

TEST(Cli, StatsFlagDumpsGroups)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-64TSB --app x264 --mesh 4x4 "
                     "--cycles 2000 --warmup 500 --stats", &out), 0);
    EXPECT_NE(out.find("cache.l1_hits"), std::string::npos);
    EXPECT_NE(out.find("net.packets_injected"), std::string::npos);
}

/** Input the run spec cannot honour exits 2 with one line naming the
 *  offending flag — never a fatal inside the simulator. */
TEST(Cli, UnhonourableSpecExitsTwoWithOneLine)
{
    const std::pair<const char *, const char *> cases[] = {
        {"--scenario MRAM-64TSB --regions 8", "--regions"},
        {"--scenario SRAM-64TSB --regions 4", "--regions"},
        {"--scenario BUFF-20 --regions 4", "--regions"},
        {"--scenario MRAM-RP --regions 4", "--regions"},
        {"--scenario MRAM-4TSB-WB --regions 0", "--regions"},
        {"--scenario MRAM-4TSB-WB --regions 3", "--regions"},
        {"--scenario MRAM-4TSB-WB --mesh 4x4 --regions 32", "--regions"},
        {"--scenario MRAM-4TSB-WB --hops 0", "--hops"},
        {"--regions abc", "--regions"},
        {"--hops two", "--hops"},
        {"--cycles 0", "--cycles"},
        {"--cycles 1e4", "--cycles"},
    };
    for (const auto &[args, flag] : cases) {
        std::string out;
        const int rc = runCli(std::string(args) + " --warmup 0", &out);
        ASSERT_TRUE(WIFEXITED(rc)) << args;
        EXPECT_EQ(WEXITSTATUS(rc), 2) << args << ": " << out;
        EXPECT_NE(out.find(flag), std::string::npos) << args << ": " << out;
        EXPECT_EQ(out.find('\n'), out.size() - 1)
            << args << ": want one line, got: " << out;
        EXPECT_EQ(out.find("fatal"), std::string::npos) << out;
    }
}

/** stacknoc_serve reads its integer flags whole and in range: a
 *  malformed value exits 2 with one line naming the flag. Every case is
 *  rejected before the socket is bound, so none can leave a server
 *  running. */
TEST(Cli, ServeMalformedIntegerFlagExitsTwoWithOneLine)
{
    const std::pair<const char *, const char *> cases[] = {
        {"--workers 0", "--workers"},
        {"--workers 2x", "--workers"},
        {"--http abc", "--http"},
        {"--http -7", "--http"},
        {"--http 65536", "--http"},
        {"--max-queue abc", "--max-queue"},
        {"--max-queue -1", "--max-queue"},
        {"--job-retries -1", "--job-retries"},
        {"--job-backoff-ms 1.5", "--job-backoff-ms"},
        {"--job-deadline-sec 99999999999", "--job-deadline-sec"},
        {"--ckpt-cap-bytes 1G", "--ckpt-cap-bytes"},
        {"--ckpt-cap-bytes -1", "--ckpt-cap-bytes"},
        {"--log-rotate-bytes ''", "--log-rotate-bytes"},
        {"--chaos-seed 0x10", "--chaos-seed"},
    };
    for (const auto &[args, flag] : cases) {
        std::string out;
        const int rc = runTool(
            "stacknoc_serve",
            std::string("--socket never-bound.sock ") + args, &out);
        ASSERT_TRUE(WIFEXITED(rc)) << args;
        EXPECT_EQ(WEXITSTATUS(rc), 2) << args << ": " << out;
        EXPECT_NE(out.find(flag), std::string::npos) << args << ": " << out;
        EXPECT_EQ(out.find('\n'), out.size() - 1)
            << args << ": want one line, got: " << out;
    }
}

TEST(Cli, MalformedFaultSpecFailsWithGrammar)
{
    std::string out;
    const int rc = runCli("--fault-spec nonsense=9 --cycles 100", &out);
    EXPECT_NE(rc, 0);
    // A clean non-zero exit with a one-line reason plus the accepted
    // grammar — not an assert or a stack trace.
    EXPECT_EQ(out.find("Assertion"), std::string::npos);
    EXPECT_NE(out.find("bad --fault-spec"), std::string::npos);
    EXPECT_NE(out.find("unknown fault-spec key 'nonsense'"),
              std::string::npos);
    EXPECT_NE(out.find("fault-spec grammar"), std::string::npos);
    EXPECT_NE(out.find("stt_write_ber"), std::string::npos);
}

TEST(Cli, OutOfRangeFaultRateRejected)
{
    std::string out;
    EXPECT_NE(runCli("--fault-spec stt_write_ber=1.5 --cycles 100",
                     &out), 0);
    EXPECT_NE(out.find("bad --fault-spec"), std::string::npos);
}

TEST(Cli, FaultSpecRunProducesFaultStats)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-4TSB-WB --app tpcc --mesh 4x4 "
                     "--cycles 4000 --warmup 500 --validate --stats "
                     "--fault-spec stt_write_ber=1e-2", &out), 0);
    EXPECT_NE(out.find("faults.stt_write_failures"), std::string::npos);
    EXPECT_NE(out.find("faults.retries_per_write"), std::string::npos);
}

TEST(Cli, WatchdogFlagAccepted)
{
    std::string out;
    ASSERT_EQ(runCli("--scenario MRAM-4TSB-WB --app tpcc --mesh 4x4 "
                     "--cycles 2000 --warmup 200 --watchdog 5000",
                     &out), 0);
    EXPECT_NE(out.find("mean_ipc="), std::string::npos);
}

TEST(Cli, TimeoutGuardExits124AndFlushesStats)
{
    std::string out;
    const std::string json = "cli_timeout_stats.json";
    const int rc = runCli("--scenario MRAM-4TSB-WB --app tpcc "
                          "--mesh 4x4 --cycles 2000000000 --warmup 100 "
                          "--timeout-sec 1 --json-stats " + json, &out);
    ASSERT_TRUE(WIFEXITED(rc));
    EXPECT_EQ(WEXITSTATUS(rc), 124);
    EXPECT_NE(out.find("TIMEOUT"), std::string::npos);
    std::ifstream in(json);
    ASSERT_TRUE(in.good()) << "partial stats were not flushed";
    std::string doc((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(doc.find("\"timed_out\":true"), std::string::npos);
    std::remove(json.c_str());
}

} // namespace
} // namespace stacknoc
