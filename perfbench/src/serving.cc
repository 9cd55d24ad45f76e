/**
 * @file
 * The `serve_hot` and `serve_cold` workloads: a serve::Daemon on an
 * ephemeral loopback port serves an untrained, deterministic
 * surrogate checkpoint of the experiment shape; kWorkers
 * DaemonClient connections in this process replay a
 * lab::TraceWorkload trace closed-loop (arrival times ignored).
 *
 * One unit is: load the checkpoint, start a fresh daemon (set-up),
 * replay the whole trace (wall), read /statsz, drain. Units repeat
 * until the time budget is spent; every unit starts with cold
 * caches, so units are alike. Every reply is checked bit for bit
 * against AsyncEngine::predictUncached for its block.
 */

#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <thread>

#include "base/parallel.hh"
#include "bhive/corpus.hh"
#include "harness.hh"
#include "hw/default_table.hh"
#include "hw/ref_machine.hh"
#include "io/checkpoint.hh"
#include "isa/parse.hh"
#include "lab/trace.hh"
#include "obs/export.hh"
#include "probes.hh"
#include "serve/daemon.hh"
#include "stats/metrics.hh"

namespace perfbench
{

using namespace difftune;

namespace
{

const std::string kModel = "m";

/** The served checkpoint is fixed; --seed makes the trace. */
constexpr uint64_t kModelSeed = 5;

/** Held-out blocks the served model's accuracy is measured on. */
constexpr size_t kQualityBlocks = 2048;

lab::TraceConfig
traceConfig(const Options &options, bool hot)
{
    lab::TraceConfig config;
    config.seed = options.seed;
    config.corpusSeed = 0x5e4e0000ULL + options.seed;
    config.respellProb = 0.25;
    if (hot) {
        config.zipfSkew = 1.1;
        config.corpusTarget = options.tiny ? 64 : 256;
        config.requests = options.tiny ? 2000 : 60000;
    } else {
        // 4x the default 8192-entry prediction cache.
        config.zipfSkew = 0.0;
        config.corpusTarget = options.tiny ? 512 : 32768;
        config.requests = options.tiny ? 1000 : 3000;
    }
    return config;
}

/** Write the untrained experiment-shape checkpoint; returns path
 *  (named by the seed so concurrent runs do not collide). */
std::string
saveCheckpoint(const Options &options)
{
    const params::SamplingDist dist = params::SamplingDist::full();
    const auto model = experimentModel(dist, kModelSeed);
    const params::ParamTable table = hw::defaultTable(hw::Uarch::Haswell);
    std::filesystem::create_directories(options.workdir);
    const std::string path =
        options.workdir + "/serve_" + std::to_string(options.seed) + ".ckpt";
    io::saveCheckpoint(path, model.get(), &dist, &table);
    return path;
}

uint64_t
bitsOf(double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** A statsz counter, or 0 when absent. */
double
counter(const std::string &dump, const std::string &name)
{
    return double(obs::statszCounter(dump, name).value_or(0));
}

/** The p50 field of histogram @p name in a statsz dump (0: absent). */
double
histogramP50(const std::string &dump, const std::string &name)
{
    std::istringstream lines(dump);
    std::string line;
    const std::string head = "histogram " + name + " ";
    while (std::getline(lines, line)) {
        if (line.rfind(head, 0) != 0)
            continue;
        std::istringstream fields(line.substr(head.size()));
        std::string key;
        double value = 0.0;
        while (fields >> key >> value)
            if (key == "p50")
                return value;
    }
    return 0.0;
}

/** What one unit measured. */
struct Unit
{
    double setupS = 0.0;
    double loadS = 0.0;
    double wallS = 0.0;
    std::vector<double> latenciesUs;
    long failed = 0; ///< errored or bit-mismatched requests
    std::string statsz;
    std::string prefix; ///< the engine's metric prefix
};

/**
 * Run @p count closed-loop clients over @p texts: client c sends
 * requests c, c + count, ... through @p ask(c, text). Fills
 * per-request latencies (us) and replies; returns wall seconds.
 */
template <typename Ask>
double
closedLoop(int count, const std::vector<std::string> &texts,
           std::vector<double> &latencies, std::vector<double> &replies,
           std::vector<char> &errored, const Ask &ask)
{
    latencies.assign(texts.size(), 0.0);
    replies.assign(texts.size(), 0.0);
    errored.assign(texts.size(), 0);
    std::vector<std::thread> threads;
    const double start = nowSeconds();
    for (int c = 0; c < count; ++c) {
        threads.emplace_back([&, c] {
            for (size_t i = size_t(c); i < texts.size(); i += count) {
                const double sent = nowSeconds();
                try {
                    replies[i] = ask(c, texts[i]);
                } catch (const std::exception &) {
                    errored[i] = 1;
                }
                latencies[i] = (nowSeconds() - sent) * 1e6;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    return nowSeconds() - start;
}

/** Load, start, replay, read /statsz, drain — one unit. */
Unit
runUnit(const std::string &ckpt, const std::vector<std::string> &texts,
        const std::vector<uint64_t> &expected, Report &report)
{
    Unit unit;
    obs::MetricRegistry metrics;
    const double start = nowSeconds();
    io::ModelSnapshot snapshot = io::loadModelSnapshot(ckpt);
    unit.loadS = nowSeconds() - start;
    serve::DaemonConfig config;
    config.registry.registry = &metrics;
    serve::Daemon daemon(config);
    daemon.registry().load(kModel, std::move(snapshot));
    daemon.start();
    unit.setupS = nowSeconds() - start;

    std::vector<double> replies;
    std::vector<char> errored;
    {
        std::vector<serve::DaemonClient> clients;
        for (int c = 0; c < kWorkers; ++c)
            clients.emplace_back(daemon.port());
        unit.wallS = closedLoop(
            kWorkers, texts, unit.latenciesUs, replies, errored,
            [&](int c, const std::string &text) {
                return clients[size_t(c)].predict(kModel, text);
            });
        unit.statsz = clients[0].statsz();
    }
    daemon.drain();

    for (size_t i = 0; i < texts.size(); ++i)
        if (errored[i] || bitsOf(replies[i]) != expected[i])
            ++unit.failed;
    report.attempted += long(texts.size());
    report.failed += unit.failed;
    report.check(unit.failed == 0,
                 std::to_string(unit.failed) +
                     " replies errored or differ from predictUncached");
    report.check(daemon.errorsServed() == 0, "the daemon reported errors");
    const auto engine = daemon.registry().acquire(kModel);
    const serve::ServeStats &stats = engine->stats();
    report.check(stats.requests == stats.hits + stats.misses,
                 "requests != hits + misses after drain");
    report.check(stats.requests == texts.size(),
                 "the engine saw a different request count");
    unit.prefix = engine->metricPrefix();
    return unit;
}

} // namespace

Report
runServe(const Options &options, bool hot)
{
    Report report;
    const lab::TraceWorkload trace =
        lab::TraceWorkload::generate(traceConfig(options, hot));
    const std::vector<std::string> texts = trace.requestTexts();
    const std::vector<std::string> &corpus = trace.corpusTexts();
    const std::string ckpt = saveCheckpoint(options);

    // Reference answers: predictUncached for every requested block.
    std::vector<char> wanted(corpus.size(), 0);
    for (const lab::TraceRequest &request : trace.requests())
        wanted[request.block] = 1;
    std::vector<uint32_t> ranks;
    for (uint32_t r = 0; r < corpus.size(); ++r)
        if (wanted[r])
            ranks.push_back(r);
    obs::MetricRegistry reference_metrics;
    serve::AsyncConfig reference_config;
    reference_config.registry = &reference_metrics;
    serve::AsyncEngine reference(io::loadModelSnapshot(ckpt),
                                 reference_config);
    std::vector<double> reference_value(corpus.size(), 0.0);
    parallelFor(ranks.size(), kWorkers, [&](size_t i) {
        reference_value[ranks[i]] =
            reference.predictUncached(corpus[ranks[i]]);
    });
    std::vector<uint64_t> expected;
    for (const lab::TraceRequest &request : trace.requests())
        expected.push_back(bitsOf(reference_value[request.block]));

    std::vector<Unit> units;
    double rss_mb = 0.0;
    const double start = nowSeconds();
    const size_t min_units = options.trace ? 2 : 3;
    while (units.size() < min_units ||
           (!options.trace && nowSeconds() - start < options.seconds)) {
        units.push_back(runUnit(ckpt, texts, expected, report));
        if (units.size() == 1)
            rss_mb = peakRssMb();
    }
    std::optional<io::ModelSnapshot> snapshot;
    if (options.trace)
        snapshot = io::loadModelSnapshot(ckpt);
    std::filesystem::remove(ckpt);

    std::vector<double> setup, load, wall, p50, p99;
    for (const Unit &unit : units) {
        setup.push_back(unit.setupS);
        load.push_back(unit.loadS);
        wall.push_back(unit.wallS);
        p50.push_back(percentile(unit.latenciesUs, 50));
        p99.push_back(percentile(unit.latenciesUs, 99));
    }

    // Accuracy of the served model against the reference machine on
    // held-out blocks made from the seed. predictUncached is the
    // answer the daemon serves (bit-equal, gated above).
    const bhive::Corpus held_out =
        bhive::Corpus::generate(kQualityBlocks, 0x7e570000ULL + options.seed);
    std::vector<double> predicted(held_out.size()), measured(held_out.size());
    const hw::RefMachine machine(hw::Uarch::Haswell);
    parallelFor(held_out.size(), kWorkers, [&](size_t i) {
        predicted[i] =
            reference.predictUncached(isa::toString(held_out[i].block));
        measured[i] = machine.measure(held_out[i].block);
    });

    if (!options.trace) {
        // Best unit, as in the tuning workloads (see pipeline.cc).
        const double best_wall = minimum(wall);
        report.add("setup_s", median(setup), "s");
        report.add("wall_s", best_wall, "s");
        report.add("throughput_per_s", double(texts.size()) / best_wall,
                   "1/s");
        report.add("latency_p50_us", minimum(p50), "us");
        report.add("latency_p99_us", minimum(p99), "us");
        report.add("test_mape", stats::mape(predicted, measured) * 100.0,
                   "%");
        report.add("peak_rss_mb", rss_mb, "MB");
        return report;
    }

    // Traced: unit 0 ran untraced, unit 1's /statsz is the trace.
    const Unit &traced = units[1];
    const std::string &dump = traced.statsz;
    const std::string p = traced.prefix + ".";
    const double requests = counter(dump, p + "requests");
    report.add("io.load_ms", median(load) * 1e3, "ms");
    report.add("serve.text_hit_rate",
               counter(dump, p + "text_hits") / requests, "ratio");
    report.add("serve.hit_rate", counter(dump, p + "hits") / requests,
               "ratio");
    report.add("serve.intern_hits", counter(dump, p + "intern_hits"),
               "count");
    report.add("serve.forwards", counter(dump, p + "forwards"), "count");
    report.add("serve.distinct_blocks", double(ranks.size()), "count");
    report.add("serve.mean_batch",
               counter(dump, p + "forwards") /
                   counter(dump, p + "batches"),
               "blocks");
    for (const char *stage : {"queue_wait", "coalesce", "forward"})
        report.add(std::string("serve.stage.") + stage + "_p50_us",
                   histogramP50(dump, p + "stage." + stage + "_ns") / 1e3,
                   "us");
    report.add("trace.wall_s", traced.wallS, "s");
    report.add("trace.overhead_pct",
               (traced.wallS - units[0].wallS) / units[0].wallS * 100.0,
               "%");
    report.add("quality.test_kendall_tau",
               stats::kendallTau(predicted, measured), "tau");

    // The same trace through the in-process engine (no wire).
    const auto model = snapshot->model;
    const auto dist = snapshot->dist;
    const auto table = snapshot->table;
    {
        obs::MetricRegistry metrics;
        serve::AsyncConfig config;
        config.registry = &metrics;
        serve::AsyncEngine engine(std::move(*snapshot), config);
        std::vector<double> engine_latencies, replies;
        std::vector<char> errored;
        closedLoop(kWorkers, texts, engine_latencies, replies, errored,
                   [&](int, const std::string &text) {
                       return engine.submit(text).get();
                   });
        size_t mismatched = 0;
        for (size_t i = 0; i < texts.size(); ++i)
            mismatched += errored[i] || bitsOf(replies[i]) != expected[i];
        report.check(mismatched == 0,
                     "in-process engine replies differ from "
                     "predictUncached");
        report.add("serve.engine_p50_us", percentile(engine_latencies, 50),
                   "us");
    }

    ProbeInputs probe;
    probe.model = model.get();
    probe.dist = dist.get();
    probe.base = table.get();
    probe.seed = options.seed;
    for (size_t i = 0; i < std::min<size_t>(ranks.size(), 256); ++i)
        probe.blocks.push_back(isa::parseBlock(corpus[ranks[i]]));
    probe.texts = texts;
    addLayerProbes(report, probe);
    return report;
}

} // namespace perfbench
