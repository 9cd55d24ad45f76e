/**
 * @file
 * The `tune` and `search` workloads: the paper's pipeline
 * (core::DiffTune) and its black-box baseline (tuner::OpenTuner),
 * both learning XMca's Haswell table from a fixed synthetic
 * BHive-style dataset.
 *
 * An untraced run repeats one whole tuning run until the time budget
 * is spent and reports medians. A traced run does one untraced and
 * one traced tuning run (the difference is the tracing overhead);
 * the traced one wraps XMca in TimedSimulator and, for `tune`, calls
 * the four phase methods one by one.
 */

#include <cstring>
#include <limits>

#include "bhive/dataset.hh"
#include "core/difftune.hh"
#include "core/evaluate.hh"
#include "harness.hh"
#include "hw/default_table.hh"
#include "isa/instruction.hh"
#include "mca/xmca.hh"
#include "probes.hh"
#include "timed_sim.hh"
#include "tuner/opentuner.hh"

namespace perfbench
{

using namespace difftune;

namespace
{

constexpr hw::Uarch kUarch = hw::Uarch::Haswell;

/**
 * The tuning problem is fixed: the corpus, its measured dataset and
 * the tuners' own seeds do not depend on --seed, so every run of a
 * set learns the same table and reports the same test_mape. --seed
 * makes the held-out corpus on which the tuned simulator's per-block
 * latency is measured.
 */
constexpr uint64_t kCorpusSeed = 0xb41c5eed;
constexpr uint64_t kTunerSeed = 1;
constexpr size_t kLatencyBlocks = 4000;

/** Workload sizes; `tiny` is for the harness self-test only. */
struct Sizes
{
    size_t corpusBlocks;
    double simulatedMultiple;
    int surrogateLoops;
    int tableEpochs;
    int refineRounds;
    double refineMultiple;
    int batchSize;
    long searchBudget;
};

Sizes
sizesFor(bool tiny)
{
    if (tiny)
        return {120, 0.5, 1, 2, 1, 0.25, 64, 2000};
    return {1000, 1.0, 3, 3, 2, 0.25, 32, 30000};
}

/** The fixed corpus, its measured dataset, and set-up timings. */
struct Inputs
{
    std::unique_ptr<bhive::Corpus> corpus;
    std::unique_ptr<bhive::Dataset> dataset;
    /** Seed-made blocks for the per-block latency measurement. */
    std::unique_ptr<bhive::Corpus> latencyCorpus;
    std::vector<double> setupS;   ///< corpus generation + measurement
    std::vector<double> datasetS; ///< bhive::Dataset measurement alone
};

/** Set up (again): generate the corpus, measure it, time both. */
void
setUp(Inputs &in, const Sizes &sizes)
{
    in.dataset.reset();
    const double start = nowSeconds();
    in.corpus = std::make_unique<bhive::Corpus>(
        bhive::Corpus::generate(sizes.corpusBlocks, kCorpusSeed));
    const double generated = nowSeconds();
    in.dataset = std::make_unique<bhive::Dataset>(*in.corpus, kUarch);
    const double end = nowSeconds();
    in.setupS.push_back(end - start);
    in.datasetS.push_back(end - generated);
}

Inputs
makeInputs(uint64_t seed, const Sizes &sizes)
{
    Inputs in;
    in.latencyCorpus = std::make_unique<bhive::Corpus>(
        bhive::Corpus::generate(kLatencyBlocks, 0x1a7e0000ULL + seed));
    for (int rep = 0; rep < 3; ++rep)
        setUp(in, sizes);
    return in;
}

bool
sameBits(const params::ParamTable &a, const params::ParamTable &b)
{
    const std::vector<double> fa = a.flatten(), fb = b.flatten();
    return fa.size() == fb.size() &&
           std::memcmp(fa.data(), fb.data(), fa.size() * sizeof(double)) ==
               0;
}

/**
 * Per-block prediction latency of the tuned simulator: one
 * single-thread timing() call with @p table per block of @p corpus,
 * folded into @p best (each block's fastest call so far; the p99 of
 * kLatencyBlocks blocks has 40 blocks beyond it).
 */
void
measureLatenciesUs(const params::Simulator &sim,
                   const params::ParamTable &table,
                   const bhive::Corpus &corpus, std::vector<double> &best)
{
    best.resize(corpus.size(), std::numeric_limits<double>::infinity());
    for (size_t i = 0; i < corpus.size(); ++i) {
        const double start = nowSeconds();
        sim.timing(corpus[i].block, table);
        best[i] = std::min(best[i], (nowSeconds() - start) * 1e6);
    }
}

/** One tuning run's outcome, as the gates compare it. */
struct Outcome
{
    params::ParamTable table;
    double wallS = 0.0;
    double testError = 0.0;
};

/**
 * The end-to-end loop shared by both workloads: call @p tune_once
 * until @p options.seconds have passed (at least twice), gate that
 * every run produced the same table and test error, and report.
 * Each tuning run is followed by latency passes with its table and
 * one more set-up, so set-up samples span the run too.
 *
 * Times are the best unit of the run, and a block's latency its best
 * call (set-up: the median): the shared reference host slows by ~40%
 * for episodes of 5-20 s, and the best of many short units tracks
 * the program rather than its neighbours.
 */
template <typename TuneOnce>
void
measureRuns(Report &report, const Options &options, const Sizes &sizes,
            Inputs &in, const params::Simulator &sim, double work_items,
            const TuneOnce &tune_once)
{
    std::vector<Outcome> runs;
    std::vector<double> latencies;
    double rss_mb = 0.0;
    const double start = nowSeconds();
    while (runs.size() < 2 || nowSeconds() - start < options.seconds) {
        Outcome run = tune_once(sim);
        run.testError = core::evaluate(sim, run.table, *in.dataset,
                                       in.dataset->test())
                            .error;
        // About one latency pass per second of tuning, so long and
        // short units sample the tuned simulator alike.
        for (int pass = 0; pass < std::max(1, int(run.wallS)); ++pass)
            measureLatenciesUs(sim, run.table, *in.latencyCorpus,
                               latencies);
        runs.push_back(std::move(run));
        if (runs.size() == 1)
            rss_mb = peakRssMb();
        setUp(in, sizes);
    }

    std::vector<double> walls;
    for (const Outcome &run : runs) {
        walls.push_back(run.wallS);
        const bool same = sameBits(run.table, runs[0].table) &&
                          run.testError == runs[0].testError;
        ++report.attempted;
        if (!same)
            ++report.failed;
        report.check(same, "a repeated run produced a different table "
                           "or test error");
    }
    const double wall = minimum(walls);
    report.add("setup_s", median(in.setupS), "s");
    report.add("wall_s", wall, "s");
    report.add("throughput_per_s", work_items / wall, "1/s");
    report.add("latency_p50_us", percentile(latencies, 50), "us");
    report.add("latency_p99_us", percentile(latencies, 99), "us");
    report.add("test_mape", runs[0].testError * 100.0, "%");
    report.add("peak_rss_mb", rss_mb, "MB");
}

/** Probe inputs over the dataset's first blocks and their texts. */
ProbeInputs
probeInputs(const Inputs &in, const surrogate::Model &model,
            const params::SamplingDist &dist,
            const params::ParamTable &base, uint64_t seed)
{
    ProbeInputs probe;
    probe.model = &model;
    probe.dist = &dist;
    probe.base = &base;
    probe.seed = seed;
    for (size_t i = 0; i < in.corpus->size(); ++i) {
        probe.blocks.push_back((*in.corpus)[i].block);
        probe.texts.push_back(isa::toString((*in.corpus)[i].block));
    }
    return probe;
}

void
addTestQuality(Report &report, const params::Simulator &sim,
               const params::ParamTable &table, const Inputs &in)
{
    const auto eval =
        core::evaluate(sim, table, *in.dataset, in.dataset->test());
    report.add("quality.test_kendall_tau", eval.kendallTau, "tau");
}

core::DiffTuneConfig
tuneConfig(const Sizes &sizes)
{
    core::DiffTuneConfig config;
    config.simulatedMultiple = sizes.simulatedMultiple;
    config.surrogateLoops = sizes.surrogateLoops;
    config.tableEpochs = sizes.tableEpochs;
    config.refineRounds = sizes.refineRounds;
    config.refineMultiple = sizes.refineMultiple;
    config.snapshotEvery = 1;
    config.model.hidden = 64;
    config.model.embedDim = 32;
    config.model.tokenLayers = 1;
    config.model.blockLayers = 2;
    config.batchSize = sizes.batchSize;
    config.workers = kWorkers;
    config.seed = kTunerSeed;
    return config;
}

/** Forward+backward samples one DiffTune run trains on. */
double
tuneSamples(const core::DiffTuneConfig &config, size_t train)
{
    const double phase3 =
        double(size_t(config.simulatedMultiple * double(train))) *
        config.surrogateLoops;
    const int segments = config.refineRounds + 1;
    const int per_segment = std::max(1, config.tableEpochs / segments);
    const double phase4 = double(segments * per_segment) * double(train);
    const double refine =
        double(config.refineRounds) * config.refineLoops * 2.0 *
        double(size_t(config.refineMultiple * double(train)));
    return phase3 + phase4 + refine;
}

} // namespace

Report
runTune(const Options &options)
{
    Report report;
    const Sizes sizes = sizesFor(options.tiny);
    Inputs in = makeInputs(options.seed, sizes);
    const mca::XMca xmca;
    const params::ParamTable base = hw::defaultTable(kUarch);
    const core::DiffTuneConfig config = tuneConfig(sizes);

    auto tune_once = [&](const params::Simulator &sim) {
        core::DiffTune difftune(sim, *in.dataset, base, config);
        Outcome run;
        const double start = nowSeconds();
        const core::DiffTuneResult result = difftune.run();
        run.wallS = nowSeconds() - start;
        run.table = result.learned;
        return run;
    };

    if (!options.trace) {
        measureRuns(report, options, sizes, in, xmca,
                    tuneSamples(config, in.dataset->train().size()),
                    tune_once);
        return report;
    }

    // Traced: one plain run, then the same run phase by phase through
    // the timing decorator. The tables must match bit for bit.
    const Outcome plain = tune_once(xmca);
    TimedSimulator timed(xmca);
    core::DiffTune difftune(timed, *in.dataset, base, config);
    double phase[4];
    double fidelity = 0.0;
    params::ParamTable learned;
    for (int slot = 0; slot < 4; ++slot) {
        timed.setSlot(slot);
        const double start = nowSeconds();
        switch (slot) {
          case 0: difftune.collectSimulatedDataset(); break;
          case 1: difftune.trainSurrogate(); break;
          case 2: fidelity = difftune.surrogateFidelity(); break;
          default: learned = difftune.trainTable(); break;
        }
        phase[slot] = nowSeconds() - start;
    }
    const double traced_wall = phase[0] + phase[1] + phase[2] + phase[3];
    report.attempted = 2;
    const bool same = sameBits(plain.table, learned);
    report.failed = same ? 0 : 1;
    report.check(same, "traced tune run learned a different table");

    const size_t train = in.dataset->train().size();
    const double phase3_samples =
        double(size_t(config.simulatedMultiple * double(train))) *
        config.surrogateLoops;
    report.add("bhive.dataset_s", median(in.datasetS), "s");
    report.add("core.phase2_s", phase[0], "s");
    report.add("core.phase3_s", phase[1], "s");
    report.add("core.fidelity_s", phase[2], "s");
    report.add("core.phase4_s", phase[3], "s");
    report.add("core.phase3_samples_per_s", phase3_samples / phase[1],
               "1/s");
    report.add("core.phase4_self_s",
               phase[3] - timed.busySeconds(3) / kWorkers, "s");
    report.add("core.fidelity_mape", fidelity * 100.0, "%");
    const char *slot_names[4] = {"phase2", "phase3", "fidelity",
                                 "phase4"};
    for (int slot = 0; slot < 4; ++slot) {
        if (slot == 1)
            continue; // phase 3 never calls the simulator
        report.add(std::string("mca.") + slot_names[slot] + ".calls",
                   double(timed.calls(slot)), "count");
        report.add(std::string("mca.") + slot_names[slot] + ".busy_s",
                   timed.busySeconds(slot), "s");
    }
    report.check(timed.calls(1) == 0,
                 "phase 3 called the simulator");
    report.add("mca.calls", double(timed.totalCalls()), "count");
    report.add("mca.busy_s", timed.totalBusySeconds(), "s");
    report.add("mca.us_per_call",
               timed.totalBusySeconds() / double(timed.totalCalls()) * 1e6,
               "us");
    report.add("base.parallel_eff",
               timed.totalBusySeconds() / kWorkers / traced_wall, "ratio");
    report.add("trace.wall_s", traced_wall, "s");
    report.add("trace.overhead_pct",
               (traced_wall - plain.wallS) / plain.wallS * 100.0, "%");
    addTestQuality(report, xmca, learned, in);
    addLayerProbes(report, probeInputs(in, difftune.model(), config.dist,
                                       base, options.seed));
    return report;
}

Report
runSearch(const Options &options)
{
    Report report;
    const Sizes sizes = sizesFor(options.tiny);
    Inputs in = makeInputs(options.seed, sizes);
    const mca::XMca xmca;
    const params::ParamTable base = hw::defaultTable(kUarch);
    tuner::TunerConfig config;
    config.evalBudget = sizes.searchBudget;
    config.workers = kWorkers;
    config.seed = kTunerSeed;

    long iterations = 0;
    auto tune_once = [&](const params::Simulator &sim) {
        tuner::OpenTuner tuner(sim, *in.dataset, base, config);
        Outcome run;
        const double start = nowSeconds();
        const tuner::TunerResult result = tuner.run();
        run.wallS = nowSeconds() - start;
        run.table = result.best;
        iterations = result.iterations;
        return run;
    };

    if (!options.trace) {
        measureRuns(report, options, sizes, in, xmca,
                    double(config.evalBudget), tune_once);
        return report;
    }

    const Outcome plain = tune_once(xmca);
    TimedSimulator timed(xmca);
    const Outcome traced = tune_once(timed);
    report.attempted = 2;
    const bool same = sameBits(plain.table, traced.table);
    report.failed = same ? 0 : 1;
    report.check(same, "traced search run found a different table");

    report.add("bhive.dataset_s", median(in.datasetS), "s");
    report.add("tuner.iterations", double(iterations), "count");
    report.add("mca.calls", double(timed.totalCalls()), "count");
    report.add("mca.busy_s", timed.totalBusySeconds(), "s");
    report.add("mca.us_per_call",
               timed.totalBusySeconds() / double(timed.totalCalls()) * 1e6,
               "us");
    report.add("base.parallel_eff",
               timed.totalBusySeconds() / kWorkers / traced.wallS, "ratio");
    report.add("trace.wall_s", traced.wallS, "s");
    report.add("trace.overhead_pct",
               (traced.wallS - plain.wallS) / plain.wallS * 100.0, "%");
    addTestQuality(report, xmca, traced.table, in);
    const auto model = experimentModel(config.dist, options.seed);
    addLayerProbes(report,
                   probeInputs(in, *model, config.dist, base, options.seed));
    return report;
}

} // namespace perfbench
