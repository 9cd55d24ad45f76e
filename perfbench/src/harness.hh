/**
 * @file
 * Shared plumbing for the perfbench workloads: run options, the
 * metric report every workload fills, wall clocks, order statistics
 * and the process's peak resident set.
 *
 * Everything here sits outside the difftune library: the benchmark
 * measures the library only by timing calls into its public entry
 * points.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Worker threads every workload pins (the reference host's nproc). */
constexpr int kWorkers = 4;

/** Command-line options shared by all workloads. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny sizes for the harness self-test (not for measurement). */
    bool tiny = false;
    /** Scratch directory for files a workload writes (checkpoints). */
    std::string workdir = ".";
};

/** One named measurement. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What a workload hands back to main(). */
struct Report
{
    std::vector<Metric> metrics;
    /** Operations attempted and failed (requests, tuning runs). */
    long attempted = 0;
    long failed = 0;
    /** Correctness-gate failures, one line each. */
    std::vector<std::string> errors;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a gate: @p ok false adds @p what to errors. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            errors.push_back(what);
    }
};

/** Monotonic wall clock in seconds. */
inline double
nowSeconds()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/** Median of @p values (0 for an empty set). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Smallest of @p values (0 for an empty set). */
inline double
minimum(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

/** Nearest-rank percentile @p q in [0, 100] of @p values. */
inline double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = size_t(q / 100.0 * double(values.size()) + 0.999999);
    rank = std::clamp<size_t>(rank, 1, values.size());
    return values[rank - 1];
}

/**
 * Peak resident set of this process so far, in MiB. Workloads read
 * it after their first unit: glibc's per-thread arenas keep freed
 * memory, so the process peak creeps up with every later unit and
 * would make the figure depend on how many units fit in a run.
 */
double peakRssMb();

/** Options → workload entry points (one per workload). */
Report runTune(const Options &options);
Report runSearch(const Options &options);
Report runServe(const Options &options, bool hot);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
