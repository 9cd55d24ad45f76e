/**
 * @file
 * Tests for the telemetry layer (obs::): histogram bucket math and
 * the documented percentile error bound against an exact sorted
 * reference, snapshot merge algebra, multi-threaded record()
 * conservation, registry find-or-create and collision handling,
 * the DIFFTUNE_OBS_OFF kill switch, the /statsz text and JSON
 * exporters, and the AsyncEngine mirroring contract
 * (requests == text_hits + text_misses == hits + misses) through a
 * private registry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bhive/corpus.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "io/checkpoint.hh"
#include "isa/parse.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/stage_timer.hh"
#include "params/sampling.hh"
#include "serve/async_engine.hh"

namespace difftune::obs
{
namespace
{

/** Deterministic 64-bit LCG (no global RNG state in tests). */
uint64_t
nextRand(uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 16;
}

// ------------------------------------------------------- bucket math

TEST(LatencyHistogram, UnitBucketsAreExact)
{
    // Values below 2*kSub (16) land in per-value buckets whose
    // midpoint reproduces the value exactly.
    for (uint64_t v = 0; v < 2 * LatencyHistogram::kSub; ++v) {
        EXPECT_EQ(LatencyHistogram::bucketIndex(v), size_t(v));
        EXPECT_EQ(LatencyHistogram::bucketMidpoint(size_t(v)),
                  double(v));
    }
}

TEST(LatencyHistogram, BucketBoundsAreMonotoneAndTight)
{
    for (size_t i = 0; i + 1 < LatencyHistogram::kNumBuckets; ++i) {
        const uint64_t lo = LatencyHistogram::bucketLowerBound(i);
        const uint64_t next = LatencyHistogram::bucketLowerBound(i + 1);
        ASSERT_LT(lo, next) << "bucket " << i;
        // Every bucket's lower bound maps back to that bucket, and
        // the last value before the next bucket does too.
        EXPECT_EQ(LatencyHistogram::bucketIndex(lo), i);
        EXPECT_EQ(LatencyHistogram::bucketIndex(next - 1), i);
    }
}

TEST(LatencyHistogram, OverflowClampsIntoTopBucket)
{
    LatencyHistogram hist;
    hist.record(~uint64_t(0));
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count(), 1u);
    EXPECT_EQ(snap.counts.back(), 1u);
    EXPECT_GT(snap.maxEstimate(), 0.0);
}

// -------------------------------------------- percentile error bound

TEST(LatencyHistogram, PercentilesWithinDocumentedBound)
{
    // Log-uniform samples across the interesting range, estimated
    // percentiles checked against the exact nearest-rank order
    // statistic of the same data. kMaxRelativeError (1/16) is the
    // documented contract; see the metrics.hh file comment for the
    // derivation.
    LatencyHistogram hist;
    std::vector<uint64_t> exact;
    uint64_t state = 0x5eed;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t magnitude = 1ull
                                   << (nextRand(state) % 30);
        const uint64_t value =
            magnitude + nextRand(state) % magnitude;
        hist.record(value);
        exact.push_back(value);
    }
    std::sort(exact.begin(), exact.end());
    const HistogramSnapshot snap = hist.snapshot();
    ASSERT_EQ(snap.count(), exact.size());
    for (const double p : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
        size_t rank =
            size_t(std::ceil(p * double(exact.size())));
        rank = std::max<size_t>(rank, 1) - 1;
        const double truth = double(exact[rank]);
        EXPECT_NEAR(snap.percentile(p), truth,
                    truth * LatencyHistogram::kMaxRelativeError)
            << "p = " << p;
    }
}

TEST(LatencyHistogram, SmallValueGoldens)
{
    // Sub-16 values are exact, so these percentiles are equalities,
    // not bounds.
    LatencyHistogram hist;
    for (const uint64_t v : {3u, 5u, 5u, 7u})
        hist.record(v);
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count(), 4u);
    EXPECT_EQ(snap.sum, 20u);
    EXPECT_DOUBLE_EQ(snap.mean(), 5.0);
    EXPECT_DOUBLE_EQ(snap.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(snap.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(snap.percentile(0.99), 7.0);
    EXPECT_DOUBLE_EQ(snap.maxEstimate(), 7.0);
}

TEST(LatencyHistogram, EmptySnapshotHasSanePercentiles)
{
    // Pins the zero-sample contract serving reports rely on
    // (serve::latencyFromHistogram): an empty snapshot answers 0.0
    // for every percentile and statistic — no NaN, no UB, no
    // crash — so a workload where nothing was recorded renders as
    // zeros rather than garbage.
    LatencyHistogram hist;
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count(), 0u);
    EXPECT_EQ(snap.sum, 0u);
    EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
    for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(snap.percentile(p), 0.0) << "p=" << p;
    EXPECT_DOUBLE_EQ(snap.maxEstimate(), 0.0);
}

// ------------------------------------------------------ merge algebra

TEST(HistogramSnapshot, MergeIsAssociativeAndMatchesUnion)
{
    LatencyHistogram a, b, c, all;
    uint64_t state = 77;
    for (int i = 0; i < 300; ++i) {
        const uint64_t v = nextRand(state) % 100000;
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(v);
        all.record(v);
    }
    HistogramSnapshot left = a.snapshot(); // (a + b) + c
    left.merge(b.snapshot());
    left.merge(c.snapshot());
    HistogramSnapshot bc = b.snapshot(); // a + (b + c)
    bc.merge(c.snapshot());
    HistogramSnapshot right = a.snapshot();
    right.merge(bc);
    const HistogramSnapshot whole = all.snapshot();
    EXPECT_EQ(left.counts, right.counts);
    EXPECT_EQ(left.sum, right.sum);
    EXPECT_EQ(left.counts, whole.counts);
    EXPECT_EQ(left.sum, whole.sum);
}

// ------------------------------------------------- concurrent records

TEST(LatencyHistogram, ConcurrentRecordsConserveCountAndSum)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50000;
    LatencyHistogram hist;
    std::vector<std::thread> threads;
    std::atomic<uint64_t> expected_sum{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&hist, &expected_sum, t] {
            uint64_t state = uint64_t(t) + 1;
            uint64_t local = 0;
            for (int i = 0; i < kPerThread; ++i) {
                const uint64_t v = nextRand(state) % (1u << 20);
                hist.record(v);
                local += v;
            }
            expected_sum.fetch_add(local);
        });
    }
    for (auto &thread : threads)
        thread.join();
    const HistogramSnapshot snap = hist.snapshot();
    EXPECT_EQ(snap.count(), uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(snap.sum, expected_sum.load());
}

// ------------------------------------------------------------ registry

TEST(MetricRegistry, FindOrCreateReturnsSameInstance)
{
    MetricRegistry reg;
    Counter &c1 = reg.counter("a.count");
    Counter &c2 = reg.counter("a.count");
    EXPECT_EQ(&c1, &c2);
    c1.inc(3);
    EXPECT_EQ(c2.value(), 3u);
    EXPECT_EQ(&reg.histogram("a.hist"), &reg.histogram("a.hist"));
    EXPECT_EQ(&reg.gauge("a.gauge"), &reg.gauge("a.gauge"));
    EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricRegistry, KindCollisionIsFatal)
{
    MetricRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.histogram("x"), std::runtime_error);
    EXPECT_THROW(reg.gauge("x"), std::runtime_error);
    std::atomic<uint64_t> src{0};
    EXPECT_THROW(reg.linkCounter("x", &src), std::runtime_error);
}

TEST(MetricRegistry, InvalidNamesAreFatal)
{
    MetricRegistry reg;
    EXPECT_THROW(reg.counter(""), std::runtime_error);
    EXPECT_THROW(reg.counter("white space"), std::runtime_error);
    EXPECT_THROW(reg.counter("new\nline"), std::runtime_error);
}

TEST(MetricRegistry, LinkedCountersReadLiveAndUnlinkByPrefix)
{
    MetricRegistry reg;
    std::atomic<uint64_t> a{5}, b{7};
    reg.linkCounter("eng.a", &a);
    reg.linkCounter("eng.b", &b);
    reg.counter("eng.owned").inc(); // owned: must survive unlink
    reg.histogram("other.hist");
    a.fetch_add(10);
    auto samples = reg.samples();
    ASSERT_EQ(samples.size(), 4u);
    EXPECT_EQ(samples[0].name, "eng.a");
    EXPECT_EQ(samples[0].counterValue, 15u);
    // Re-linking a taken name is the two-live-engines error.
    EXPECT_THROW(reg.linkCounter("eng.a", &b), std::runtime_error);
    reg.unlinkCounters("eng.");
    samples = reg.samples();
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0].name, "eng.owned");
    EXPECT_EQ(samples[1].name, "other.hist");
}

// --------------------------------------------------------- kill switch

TEST(ObsEnabled, KillSwitchAndEnvReload)
{
    // Process-global switch: restore before leaving either way.
    struct Restore
    {
        ~Restore()
        {
            unsetenv("DIFFTUNE_OBS_OFF");
            setEnabled(true);
        }
    } restore;
    setEnabled(true);
    EXPECT_TRUE(enabled());
    setEnabled(false);
    EXPECT_FALSE(enabled());
    setenv("DIFFTUNE_OBS_OFF", "1", 1);
    reloadEnabledFromEnv();
    EXPECT_FALSE(enabled());
    // "0" and empty both mean on, any other value means off.
    setenv("DIFFTUNE_OBS_OFF", "0", 1);
    reloadEnabledFromEnv();
    EXPECT_TRUE(enabled());
    unsetenv("DIFFTUNE_OBS_OFF");
    reloadEnabledFromEnv();
    EXPECT_TRUE(enabled());
}

TEST(ObsEnabled, DisabledStageTimersRecordNothing)
{
    LatencyHistogram hist;
    {
        StageTimer span(nullptr); // disabled subsystem passes null
        StageClock clock(false);
        clock.restart();
        clock.lap(&hist);
    }
    EXPECT_EQ(hist.snapshot().count(), 0u);
    {
        StageTimer span(&hist);
        EXPECT_GT(span.stop(), 0u);
        EXPECT_EQ(span.stop(), 0u); // idempotent
    }
    EXPECT_EQ(hist.snapshot().count(), 1u);
}

TEST(ObsClock, MonotoneAndElapsedClamps)
{
    const uint64_t a = nowNs();
    const uint64_t b = nowNs();
    EXPECT_GE(b, a);
    EXPECT_EQ(elapsedNs(a, b), b - a);
    EXPECT_EQ(elapsedNs(b + 1000, b), 0u); // skew clamps, no wrap
}

// ----------------------------------------------------------- exporters

TEST(Statsz, TextAndJsonGoldens)
{
    MetricRegistry reg;
    reg.counter("app.requests").inc(42);
    reg.gauge("app.depth").set(-3);
    LatencyHistogram &hist = reg.histogram("app.lat_ns");
    for (const uint64_t v : {3u, 5u, 5u, 7u})
        hist.record(v);
    EXPECT_EQ(renderStatsz(reg),
              "gauge app.depth -3\n"
              "histogram app.lat_ns count 4 sum 20 mean 5.0 "
              "p50 5.0 p90 7.0 p95 7.0 p99 7.0 max 7.0\n"
              "counter app.requests 42\n");
    EXPECT_EQ(renderStatszJson(reg),
              "{\"counters\":{\"app.requests\":42},"
              "\"gauges\":{\"app.depth\":-3},"
              "\"histograms\":{\"app.lat_ns\":{\"count\":4,"
              "\"sum\":20,\"mean\":5.0,\"p50\":5.0,\"p90\":7.0,"
              "\"p95\":7.0,\"p99\":7.0,\"max\":7.0}}}");
}

TEST(Statsz, CounterParsesBackOutOfDump)
{
    MetricRegistry reg;
    reg.counter("a.b").inc(9);
    reg.counter("a.bb").inc(11);
    const std::string dump = renderStatsz(reg);
    EXPECT_EQ(statszCounter(dump, "a.b"), std::optional<uint64_t>(9));
    EXPECT_EQ(statszCounter(dump, "a.bb"),
              std::optional<uint64_t>(11));
    EXPECT_EQ(statszCounter(dump, "a.missing"), std::nullopt);
    EXPECT_EQ(statszCounter("", "a.b"), std::nullopt);
}

// ------------------------------------------------- engine integration

io::Checkpoint
tinyCheckpoint()
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.seed = 5;
    const params::SamplingDist dist = params::SamplingDist::full();
    const core::ParamNormalizer norm(dist);
    cfg.paramDim = norm.paramDim();
    io::Checkpoint ckpt;
    ckpt.model = std::make_unique<surrogate::Model>(
        cfg, isa::theVocab().size());
    ckpt.vocabSize = isa::theVocab().size();
    ckpt.dist = dist;
    ckpt.table = hw::defaultTable(hw::Uarch::Haswell);
    return ckpt;
}

std::vector<std::string>
corpusTexts(size_t count, uint64_t seed)
{
    const auto corpus = bhive::Corpus::generate(count, seed);
    std::vector<std::string> texts;
    texts.reserve(corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i)
        texts.push_back(isa::toString(corpus[i].block));
    return texts;
}

TEST(EngineTelemetry, MirrorsReconcileInPrivateRegistry)
{
    MetricRegistry reg;
    serve::AsyncConfig cfg;
    cfg.metricPrefix = "t1";
    cfg.registry = &reg;
    const auto texts = corpusTexts(12, 0x0b5);
    {
        serve::AsyncEngine engine(tinyCheckpoint(), cfg);
        EXPECT_EQ(engine.metricPrefix(), "t1");
        for (const auto &text : texts)
            engine.predict(text);
        for (const auto &text : texts)
            engine.predict(text); // warm pass: text-cache hits
        const std::string dump = renderStatsz(reg);
        const auto counter = [&dump](const char *name) {
            const auto v = statszCounter(dump, name);
            return v ? *v : ~uint64_t(0);
        };
        // The mirroring contract, audited through the exporter.
        EXPECT_EQ(counter("t1.requests"),
                  counter("t1.text_hits") +
                      counter("t1.text_misses"));
        EXPECT_EQ(counter("t1.requests"),
                  counter("t1.hits") + counter("t1.misses"));
        EXPECT_EQ(counter("t1.requests"), 2 * texts.size());
        EXPECT_EQ(counter("t1.text_hits"), texts.size());
        // request_ns records every request that reached a
        // dispatcher (the 12 cold predicts) and no front-cache hit;
        // only the per-block stage laps are sampled, 1 in
        // kStageSamplePeriod batches, starting with the first.
        HistogramSnapshot req, parse;
        for (const auto &sample : reg.samples()) {
            if (sample.name == "t1.request_ns")
                req = sample.hist;
            if (sample.name == "t1.stage.parse_ns")
                parse = sample.hist;
        }
        EXPECT_EQ(req.count(), texts.size());
        EXPECT_GE(parse.count(), 1u);
    }
    // Engine teardown unlinks the ServeStats mirrors (their atomics
    // died with it) but registry-owned histograms survive.
    const std::string dump = renderStatsz(reg);
    EXPECT_EQ(statszCounter(dump, "t1.requests"), std::nullopt);
    EXPECT_NE(dump.find("histogram t1.request_ns"),
              std::string::npos);
}

TEST(EngineTelemetry, SecondLiveEngineOnSamePrefixIsFatal)
{
    MetricRegistry reg;
    serve::AsyncConfig cfg;
    cfg.metricPrefix = "dup";
    cfg.registry = &reg;
    serve::AsyncEngine first(tinyCheckpoint(), cfg);
    EXPECT_THROW(serve::AsyncEngine(tinyCheckpoint(), cfg),
                 std::runtime_error);
    // The failed construction rolled back cleanly: the first
    // engine's mirrors still read and a fresh prefix still works.
    EXPECT_NE(renderStatsz(reg).find("counter dup.requests"),
              std::string::npos);
    serve::AsyncConfig other = cfg;
    other.metricPrefix = "dup2";
    serve::AsyncEngine second(tinyCheckpoint(), other);
    EXPECT_EQ(second.metricPrefix(), "dup2");
}

TEST(EngineTelemetry, KillSwitchDisablesRegistration)
{
    MetricRegistry reg;
    serve::AsyncConfig cfg;
    cfg.metricPrefix = "off";
    cfg.registry = &reg;
    setEnabled(false);
    serve::AsyncEngine engine(tinyCheckpoint(), cfg);
    setEnabled(true);
    EXPECT_TRUE(engine.metricPrefix().empty());
    EXPECT_EQ(reg.size(), 0u);
    // And it still serves (the no-op instrumentation path).
    const auto texts = corpusTexts(4, 0x0ff);
    for (const auto &text : texts)
        EXPECT_GT(engine.predict(text), 0.0);
    EXPECT_EQ(reg.size(), 0u);
}

} // namespace
} // namespace difftune::obs
