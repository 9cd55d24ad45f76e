/**
 * @file
 * Environment-variable configuration knobs.
 *
 * Benchmarks default to a reduced-but-faithful scale; DIFFTUNE_SCALE
 * multiplies dataset sizes and training epochs so the same binaries can
 * run paper-scale experiments.
 */

#ifndef DIFFTUNE_BASE_ENV_HH
#define DIFFTUNE_BASE_ENV_HH

#include <cstdint>
#include <limits>
#include <string>

namespace difftune
{

/** Read an environment variable as double, with a default. */
double envDouble(const char *name, double default_value);

/** Read an environment variable as long, with a default. */
long envLong(const char *name, long default_value);

/**
 * Parse a command-line integer: @p text must be base-10 digits with
 * an optional leading '-' and nothing else, in [@p min_value,
 * @p max_value]. Anything else is fatal, with a message naming
 * @p what (the flag or argument) and the allowed range.
 */
long parseLong(const char *what, const std::string &text, long min_value,
               long max_value = std::numeric_limits<long>::max());

/**
 * Parse a command-line unsigned 64-bit integer (a seed): @p text must
 * be base-10 digits and nothing else — no sign — within the full
 * uint64 range. Anything else is fatal, with parseLong's message
 * shape.
 */
uint64_t parseU64(const char *what, const std::string &text);

/**
 * Parse a command-line real number: the whole of @p text must be a
 * finite decimal number (no 'nan' or 'inf', no leading '+' or
 * whitespace) in [@p min_value, @p max_value]. Anything else is
 * fatal, with a message naming @p what and the allowed range.
 */
double parseDouble(
    const char *what, const std::string &text,
    double min_value = -std::numeric_limits<double>::infinity(),
    double max_value = std::numeric_limits<double>::infinity());

/** Cap on a command-line worker or thread count: each is an OS thread. */
inline constexpr long maxThreadsArg = 1024;

/** Read an environment variable as string, with a default. */
std::string envString(const char *name, const std::string &default_value);

/** Global experiment scale factor (DIFFTUNE_SCALE, default 1.0). */
double experimentScale();

/** Scale a count by experimentScale(), with a floor of @p min_value. */
long scaledCount(long base, long min_value = 1);

/** Number of worker threads (DIFFTUNE_THREADS, default: hardware). */
int workerThreads();

} // namespace difftune

#endif // DIFFTUNE_BASE_ENV_HH
