/**
 * @file
 * Implementation of environment-variable configuration knobs.
 */

#include "base/env.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "base/logging.hh"

namespace difftune
{

double
envDouble(const char *name, double default_value)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return default_value;
    char *end = nullptr;
    double parsed = std::strtod(value, &end);
    fatal_if(end == value, "environment variable {} is not a number: {}",
             name, value);
    return parsed;
}

long
envLong(const char *name, long default_value)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return default_value;
    char *end = nullptr;
    long parsed = std::strtol(value, &end, 10);
    fatal_if(end == value, "environment variable {} is not an integer: {}",
             name, value);
    return parsed;
}

long
parseLong(const char *what, const std::string &text, long min_value,
          long max_value)
{
    long parsed = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, parsed);
    if (error == std::errc() && stop == end && parsed >= min_value &&
        parsed <= max_value)
        return parsed;
    if (max_value == std::numeric_limits<long>::max())
        fatal("{} must be an integer >= {}, got '{}'", what, min_value,
              text);
    fatal("{} must be an integer in [{}, {}], got '{}'", what, min_value,
          max_value, text);
}

uint64_t
parseU64(const char *what, const std::string &text)
{
    uint64_t parsed = 0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, parsed);
    if (error == std::errc() && stop == end)
        return parsed;
    fatal("{} must be an integer in [0, {}], got '{}'", what,
          std::numeric_limits<uint64_t>::max(), text);
}

double
parseDouble(const char *what, const std::string &text, double min_value,
            double max_value)
{
    double parsed = 0.0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, parsed);
    if (error == std::errc() && stop == end && std::isfinite(parsed) &&
        parsed >= min_value && parsed <= max_value)
        return parsed;
    const bool low = std::isfinite(min_value);
    const bool high = std::isfinite(max_value);
    if (low && high)
        fatal("{} must be a number in [{}, {}], got '{}'", what,
              min_value, max_value, text);
    if (low)
        fatal("{} must be a number >= {}, got '{}'", what, min_value,
              text);
    if (high)
        fatal("{} must be a number <= {}, got '{}'", what, max_value,
              text);
    fatal("{} must be a finite number, got '{}'", what, text);
}

std::string
envString(const char *name, const std::string &default_value)
{
    const char *value = std::getenv(name);
    return (value && *value) ? std::string(value) : default_value;
}

double
experimentScale()
{
    static const double scale = envDouble("DIFFTUNE_SCALE", 1.0);
    return scale;
}

long
scaledCount(long base, long min_value)
{
    long scaled = static_cast<long>(base * experimentScale());
    return scaled < min_value ? min_value : scaled;
}

int
workerThreads()
{
    static const int threads = [] {
        long requested = envLong("DIFFTUNE_THREADS", 0);
        if (requested > 0)
            return static_cast<int>(requested);
        unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : static_cast<int>(hw);
    }();
    return threads;
}

} // namespace difftune
