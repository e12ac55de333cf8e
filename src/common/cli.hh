/**
 * @file
 * Small command-line helpers shared by the tools: unknown-flag
 * suggestions ("did you mean --cycles?") so typos fail loudly instead
 * of being silently ignored, and whole-value integer and number flag
 * parsing.
 */

#ifndef STACKNOC_COMMON_CLI_HH
#define STACKNOC_COMMON_CLI_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace stacknoc::cli {

/**
 * Case-sensitive Levenshtein edit distance between @p a and @p b.
 * O(|a|*|b|) time, O(min) memory — fine for option names.
 */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * @return the option in @p options closest to @p arg by edit distance,
 * or an empty string when nothing is plausibly close (distance greater
 * than half the typed flag's length, so "--frobnicate" suggests
 * nothing rather than something absurd).
 */
std::string closestOption(const std::string &arg,
                          const std::vector<std::string> &options);

/**
 * Print "unknown option 'X'" plus a "did you mean" hint (when one is
 * plausible) to stderr. The caller decides the exit path.
 */
void reportUnknownOption(const char *tool, const std::string &arg,
                         const std::vector<std::string> &options);

/**
 * The value @p text of integer flag @p flag: the whole string must be
 * a decimal integer in [@p lo, @p hi] (no sign on unsigned types, no
 * spaces, no suffix). Anything else prints one line,
 * "<tool>: <flag> needs an integer in [lo, hi], got '<text>'", and
 * exits 2, so a typo never silently becomes 0 or a default.
 */
template <class T>
T
parseInt(const char *tool, const char *flag, const char *text, T lo, T hi)
{
    const char *end = text + std::strlen(text);
    T v{};
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
        std::fprintf(stderr,
                     "%s: %s needs an integer in [%s, %s], got '%s'\n", tool,
                     flag, std::to_string(lo).c_str(),
                     std::to_string(hi).c_str(), text);
        std::exit(2);
    }
    return v;
}

/**
 * The value @p text of number flag @p flag: the whole string must be a
 * finite decimal number (no `nan`, `inf`, suffix or spaces) at least
 * @p lo, or above it when @p loExclusive. Anything else prints one
 * line, "<tool>: <flag> needs a finite number >= lo, got '<text>'" (or
 * "> lo"), and exits 2, the number twin of parseInt.
 */
inline double
parseNumber(const char *tool, const char *flag, const char *text, double lo,
            bool loExclusive = false)
{
    const char *end = text + std::strlen(text);
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(text, end, v);
    if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v < lo ||
        (loExclusive && v == lo)) {
        std::fprintf(stderr, "%s: %s needs a finite number %s %g, got '%s'\n",
                     tool, flag, loExclusive ? ">" : ">=", lo, text);
        std::exit(2);
    }
    return v;
}

} // namespace stacknoc::cli

#endif // STACKNOC_COMMON_CLI_HH
