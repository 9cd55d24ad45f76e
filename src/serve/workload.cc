/**
 * @file
 * Serving-workload helpers.
 */

#include "serve/workload.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>

#include "obs/metrics.hh"
#include "serve/daemon.hh"
#include "stats/metrics.hh"

namespace difftune::serve
{

std::vector<std::string>
powerLawWorkload(const bhive::Corpus &corpus, size_t requests,
                 size_t unique, uint64_t seed)
{
    panic_if(unique == 0 || unique > corpus.size(),
             "workload wants {} unique blocks, corpus has {}", unique,
             corpus.size());
    Rng rng(seed);
    std::vector<std::string> texts;
    texts.reserve(requests);
    for (size_t i = 0; i < requests; ++i) {
        const double u = rng.uniformReal();
        const size_t rank = size_t(double(unique) * u * u * u);
        texts.push_back(
            isa::toString(corpus[std::min(rank, unique - 1)].block));
    }
    return texts;
}

NaiveRun
runNaive(const AsyncEngine &engine, const std::vector<std::string> &workload)
{
    NaiveRun run;
    run.predictions.reserve(workload.size());
    const auto begin = std::chrono::steady_clock::now();
    for (const auto &text : workload)
        run.predictions.push_back(engine.predictUncached(text));
    run.seconds =
        secondsBetween(begin, std::chrono::steady_clock::now());
    return run;
}

ThroughputComparison
engineVsNaive(AsyncEngine &engine, const std::vector<std::string> &workload,
              const NaiveRun &naive, size_t wave)
{
    panic_if(naive.predictions.size() != workload.size(),
             "engineVsNaive: naive run has {} predictions for {} "
             "requests",
             naive.predictions.size(), workload.size());
    ThroughputComparison result;
    result.naiveSeconds = naive.seconds;

    std::vector<double> served;
    served.reserve(workload.size());
    const auto begin = std::chrono::steady_clock::now();
    for (size_t start = 0; start < workload.size(); start += wave) {
        const auto first = workload.begin() + long(start);
        const auto last =
            workload.begin() +
            long(std::min(workload.size(), start + wave));
        for (double r : engine.predictAll(
                 std::vector<std::string>(first, last)))
            served.push_back(r);
    }
    result.engineSeconds =
        secondsBetween(begin, std::chrono::steady_clock::now());

    // Every served prediction must match the reference bit-exactly.
    for (size_t i = 0; i < workload.size(); ++i)
        fatal_if(served[i] != naive.predictions[i],
                 "engine and naive predictions diverged at "
                 "request {} ({} vs {})",
                 i, served[i], naive.predictions[i]);
    return result;
}

namespace
{

void
checkAgainstReference(const NaiveRun &reference, size_t index,
                      double got)
{
    fatal_if(got != reference.predictions[index],
             "async and naive predictions diverged at request {} "
             "({} vs {})",
             index, got, reference.predictions[index]);
}

} // namespace

AsyncClientComparison
compareAsyncClients(const io::ModelSnapshot &artifact,
                    const std::vector<std::string> &workload,
                    int threads, const NaiveRun &reference)
{
    panic_if(threads < 1, "compareAsyncClients: {} threads", threads);
    panic_if(reference.predictions.size() != workload.size(),
             "compareAsyncClients: reference has {} predictions for "
             "{} requests",
             reference.predictions.size(), workload.size());
    AsyncClientComparison result;
    result.threads = threads;

    // One pass on a fresh engine (cold caches): client t owns
    // requests t, t + clients, t + 2*clients, ... and blocks on each
    // future before its next submit, so at most `clients` requests
    // are in flight — the dispatchers' backlog is all that turns
    // them into batches. A multi-client pass records every
    // request's latency into one wait-free histogram.
    obs::LatencyHistogram latency_hist;
    const auto pass = [&](int clients, obs::LatencyHistogram *latency) {
        AsyncEngine engine(artifact);
        std::vector<double> served(workload.size(), 0.0);
        const auto begin = std::chrono::steady_clock::now();
        std::vector<std::thread> runners;
        runners.reserve(size_t(clients));
        for (int t = 0; t < clients; ++t) {
            runners.emplace_back([&, t] {
                for (size_t i = size_t(t); i < workload.size();
                     i += size_t(clients)) {
                    const auto t0 = std::chrono::steady_clock::now();
                    served[i] = engine.submit(workload[i]).get();
                    if (latency)
                        latency->recordSeconds(secondsBetween(
                            t0, std::chrono::steady_clock::now()));
                }
            });
        }
        for (std::thread &runner : runners)
            runner.join();
        const double seconds =
            secondsBetween(begin, std::chrono::steady_clock::now());
        for (size_t i = 0; i < workload.size(); ++i)
            checkAgainstReference(reference, i, served[i]);
        return seconds;
    };
    // Interleaved pairs, alternating which pass goes first, each on
    // fresh engines (cold caches): a slow spell on a shared host
    // hits both passes of a pair alike, and a burst inside one pass
    // spoils one pair, which the median ignores. Short workloads
    // repeat until the passes add up to two seconds, so the result
    // never rests on a moment of the host.
    constexpr double min_seconds = 2.0;
    std::vector<double> singles, asyncs, ratios;
    double total = 0.0;
    while (ratios.size() < 3 || total < min_seconds) {
        double single = 0.0;
        double async = 0.0;
        if (ratios.size() % 2 == 0) {
            single = pass(1, nullptr);
            async = pass(threads, &latency_hist);
        } else {
            async = pass(threads, &latency_hist);
            single = pass(1, nullptr);
        }
        singles.push_back(single);
        asyncs.push_back(async);
        ratios.push_back(single / async);
        total += single + async;
    }
    result.pairs = int(ratios.size());
    result.singleSeconds = stats::median(singles);
    result.asyncSeconds = stats::median(asyncs);
    result.speedup = stats::median(ratios);
    result.latency = latencyFromHistogram(latency_hist);
    return result;
}

LatencyStats
latencyFromHistogram(const obs::LatencyHistogram &hist)
{
    LatencyStats stats;
    const obs::HistogramSnapshot snap = hist.snapshot();
    // An empty workload (or one where every request errored before
    // being timed) has no order statistics — report explicit zeros
    // instead of querying percentiles of nothing.
    if (snap.count() == 0)
        return stats;
    stats.p50 = snap.percentile(0.50) * 1e-9;
    stats.p95 = snap.percentile(0.95) * 1e-9;
    stats.p99 = snap.percentile(0.99) * 1e-9;
    return stats;
}

DaemonClientRun
runDaemonClients(const std::string &host, uint16_t port,
                 const std::string &model,
                 const std::vector<std::string> &workload,
                 int threads)
{
    panic_if(threads < 1, "runDaemonClients: {} threads", threads);
    DaemonClientRun run;
    run.predictions.assign(
        workload.size(), std::numeric_limits<double>::quiet_NaN());
    std::atomic<uint64_t> errors{0};
    obs::LatencyHistogram latency_hist;

    const auto begin = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(size_t(threads));
    for (int t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            // Connect inside the per-request try: connectTo throws
            // DaemonError on a refused or draining daemon, and an
            // exception escaping a thread body terminates the whole
            // process — a failed connect must count as errors (the
            // slots keep their NaN markers), not abort the run.
            std::unique_ptr<DaemonClient> client;
            for (size_t i = size_t(t); i < workload.size();
                 i += size_t(threads)) {
                const auto t0 = std::chrono::steady_clock::now();
                try {
                    if (!client)
                        client = std::make_unique<DaemonClient>(
                            host, port);
                    run.predictions[i] =
                        client->predict(model, workload[i]);
                } catch (const DaemonError &) {
                    errors.fetch_add(1, std::memory_order_relaxed);
                    continue; // slot keeps its NaN marker
                }
                latency_hist.recordSeconds(secondsBetween(
                    t0, std::chrono::steady_clock::now()));
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    run.seconds =
        secondsBetween(begin, std::chrono::steady_clock::now());
    run.errors = errors.load(std::memory_order_relaxed);
    run.latency = latencyFromHistogram(latency_hist);
    return run;
}

} // namespace difftune::serve
