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
