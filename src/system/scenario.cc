#include "system/scenario.hh"

#include <utility>

namespace stacknoc::system::scenarios {

Scenario
sram64Tsb()
{
    Scenario s;
    s.name = "SRAM-64TSB";
    s.tech = mem::CacheTech::Sram;
    s.tsbRegions = 0;
    s.scheme.reset();
    return s;
}

Scenario
sttram64Tsb()
{
    Scenario s;
    s.name = "MRAM-64TSB";
    s.tech = mem::CacheTech::SttRam;
    s.tsbRegions = 0;
    s.scheme.reset();
    return s;
}

Scenario
sttram4Tsb()
{
    Scenario s;
    s.name = "MRAM-4TSB";
    s.tsbRegions = 4;
    s.scheme.reset();
    return s;
}

Scenario
sttram4TsbSS()
{
    Scenario s;
    s.name = "MRAM-4TSB-SS";
    s.scheme = sttnoc::EstimatorKind::Simple;
    return s;
}

Scenario
sttram4TsbRca()
{
    Scenario s;
    s.name = "MRAM-4TSB-RCA";
    s.scheme = sttnoc::EstimatorKind::Rca;
    return s;
}

Scenario
sttram4TsbWb()
{
    Scenario s;
    s.name = "MRAM-4TSB-WB";
    s.scheme = sttnoc::EstimatorKind::Window;
    return s;
}

Scenario
sttramBuff20()
{
    Scenario s;
    s.name = "BUFF-20";
    s.tsbRegions = 0;
    s.scheme.reset();
    s.writeBuffer = true;
    return s;
}

Scenario
sttram4TsbWbPlus1Vc()
{
    Scenario s = sttram4TsbWb();
    s.name = "MRAM-4TSB-WB+1VC";
    s.vcsPerVnet = {2, 3, 1, 1};
    return s;
}

Scenario
sttramReadPriority()
{
    Scenario s;
    s.name = "MRAM-RP";
    s.tsbRegions = 0;
    s.scheme.reset();
    s.readPriority = true;
    return s;
}

Scenario
sttram4TsbWbReadPriority()
{
    Scenario s = sttram4TsbWb();
    s.name = "MRAM-4TSB-WB+RP";
    s.readPriority = true;
    return s;
}

std::array<Scenario, 6>
figureSix()
{
    return {sram64Tsb(),    sttram64Tsb(),    sttram4Tsb(),
            sttram4TsbSS(), sttram4TsbRca(), sttram4TsbWb()};
}

namespace {

/** Every named scenario, in usage order; each factory's .name is the
 *  canonical name byName() accepts. */
constexpr Scenario (*kNamed[])() = {
    sram64Tsb,          sttram64Tsb,       sttram4Tsb,
    sttram4TsbSS,       sttram4TsbRca,     sttram4TsbWb,
    sttramBuff20,       sttram4TsbWbPlus1Vc, sttramReadPriority,
    sttram4TsbWbReadPriority,
};

} // namespace

bool
byName(const std::string &name, Scenario &out)
{
    // "+1VC" is the short spelling older command lines use.
    const std::string canonical =
        name == "+1VC" ? std::string("MRAM-4TSB-WB+1VC") : name;
    for (const auto make : kNamed) {
        if (Scenario s = make(); s.name == canonical) {
            out = std::move(s);
            return true;
        }
    }
    return false;
}

const char *
knownNames()
{
    static const std::string names = [] {
        std::string joined;
        for (const auto make : kNamed)
            joined += (joined.empty() ? "" : ", ") + make().name;
        return joined;
    }();
    return names.c_str();
}

} // namespace stacknoc::system::scenarios
