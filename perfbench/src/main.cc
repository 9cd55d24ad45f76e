/**
 * @file
 * perfbench: the repository benchmark binary. Runs one workload and
 * prints, as its last stdout line, one JSON object:
 *
 *   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end set; with --trace 1
 * the per-layer metrics of the layers the workload runs (run.py
 * checks both against BENCHMARK.json and reports the layers a
 * workload never runs as 0). The line before it stamps the host and
 * build so results from different hosts or dispatch paths are never
 * compared. See perfbench/README.md; perfbench/run.py builds and
 * runs this.
 *
 *   perfbench --workload tune|search|serve_hot|serve_cold
 *             --seed N --seconds S --trace 0|1
 *             [--tiny] [--workdir DIR] [--git-sha SHA]
 *             [--source-digest HEX]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sys/resource.h>
#include <unistd.h>

#include "base/logging.hh"
#include "harness.hh"
#include "nn/matvec_dispatch.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "tune|search|serve_hot|serve_cold --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--workdir DIR] [--git-sha SHA] "
                 "[--source-digest HEX]\n",
                 why);
    std::exit(2);
}

/** Gate: every metric is named once and has a finite value. */
void
checkMetrics(Report &report)
{
    std::set<std::string> seen;
    for (const Metric &metric : report.metrics) {
        report.check(seen.insert(metric.name).second,
                     "duplicate metric " + metric.name);
        report.check(std::isfinite(metric.value),
                     "non-finite metric " + metric.name);
    }
}

void
printResult(const Report &report)
{
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                report.errors.empty() ? "true" : "false",
                std::max(1L, report.attempted), report.failed);
    const char *sep = "";
    for (const Metric &metric : report.metrics) {
        const double value = std::isfinite(metric.value) ? metric.value
                                                         : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    metric.name.c_str(), value, metric.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    // Pin the library's worker pool before anything sizes it.
    setenv("DIFFTUNE_THREADS", std::to_string(kWorkers).c_str(), 1);
    difftune::setVerbose(false);

    Options options;
    std::string git_sha = "unknown", digest = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            options.workload = value();
        } else if (arg == "--seed") {
            options.seed = std::stoull(value());
            have_seed = true;
        } else if (arg == "--seconds") {
            options.seconds = std::stod(value());
            have_seconds = true;
        } else if (arg == "--trace") {
            options.trace = value() == "1";
            have_trace = true;
        } else if (arg == "--tiny") {
            options.tiny = true;
        } else if (arg == "--workdir") {
            options.workdir = value();
        } else if (arg == "--git-sha") {
            git_sha = value();
        } else if (arg == "--source-digest") {
            digest = value();
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace)
        usage("--seed, --seconds and --trace are required");

    std::printf("perfbench-stamp {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"nproc\": %ld, \"workers\": %d, "
                "\"matvec_path\": \"%s\", \"build_type\": \"%s\", "
                "\"git_sha\": \"%s\", \"source_digest\": \"%s\"}\n",
                options.workload.c_str(),
                (unsigned long long)options.seed, int(options.trace),
                sysconf(_SC_NPROCESSORS_ONLN), kWorkers,
                difftune::nn::matvecPathName(), PERFBENCH_BUILD_TYPE,
                git_sha.c_str(), digest.c_str());
    std::fflush(stdout);

    Report report;
    if (options.workload == "tune")
        report = runTune(options);
    else if (options.workload == "search")
        report = runSearch(options);
    else if (options.workload == "serve_hot")
        report = runServe(options, true);
    else if (options.workload == "serve_cold")
        report = runServe(options, false);
    else
        usage(("unknown workload '" + options.workload + "'").c_str());

    checkMetrics(report);
    for (const std::string &error : report.errors)
        std::fprintf(stderr, "perfbench: FAILED GATE: %s\n",
                     error.c_str());
    printResult(report);
    return 0;
}
