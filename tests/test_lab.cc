/**
 * @file
 * Tests for the traffic lab (lab/): trace generation determinism
 * and the serialized round trip, Zipf popularity shape, respelling
 * canonicalization, the model-mix bounds, and bit-exact engine
 * replay for every dispatcher count, plus pool behavior under
 * concurrent submission and registry hot-swap (the TSan target).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "io/serialize.hh"
#include "io/snapshot.hh"
#include "isa/parse.hh"
#include "lab/trace.hh"
#include "serve/registry.hh"

namespace difftune::lab
{
namespace
{

surrogate::ModelConfig
tinyConfig()
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.paramDim = 0;
    cfg.seed = 5;
    return cfg;
}

io::Checkpoint
tinyCheckpoint()
{
    io::Checkpoint ckpt;
    ckpt.model = std::make_unique<surrogate::Model>(
        tinyConfig(), isa::theVocab().size());
    ckpt.vocabSize = isa::theVocab().size();
    return ckpt;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** A small trace config the engine tests can replay quickly. */
TraceConfig
smallTrace(uint64_t seed)
{
    TraceConfig cfg;
    cfg.seed = seed;
    cfg.corpusSeed = 11;
    cfg.corpusTarget = 24;
    cfg.requests = 160;
    cfg.zipfSkew = 1.1;
    cfg.respellProb = 0.3;
    return cfg;
}

// ------------------------------------------------------------ traces

TEST(TraceWorkload, SameSeedIsByteIdentical)
{
    const TraceConfig cfg = smallTrace(42);
    const std::string a = TraceWorkload::generate(cfg).serialize();
    const std::string b = TraceWorkload::generate(cfg).serialize();
    EXPECT_EQ(a, b);

    TraceConfig other = cfg;
    other.seed = 43;
    EXPECT_NE(a, TraceWorkload::generate(other).serialize());
}

TEST(TraceWorkload, SerializeRoundTripsBitExact)
{
    TraceConfig cfg = smallTrace(7);
    cfg.models = 3;
    cfg.modelWeights = {0.6, 0.3, 0.1};
    const TraceWorkload trace = TraceWorkload::generate(cfg);
    const std::string bytes = trace.serialize();
    const TraceWorkload back = TraceWorkload::deserialize(bytes);
    EXPECT_EQ(back.serialize(), bytes);

    ASSERT_EQ(back.requests().size(), trace.requests().size());
    for (size_t i = 0; i < trace.requests().size(); ++i) {
        EXPECT_EQ(back.requests()[i].block, trace.requests()[i].block);
        EXPECT_EQ(back.requests()[i].model, trace.requests()[i].model);
        EXPECT_EQ(back.requests()[i].respell,
                  trace.requests()[i].respell);
        EXPECT_EQ(back.requests()[i].arrivalNs,
                  trace.requests()[i].arrivalNs);
    }
    // The corpus regenerates from its recorded seed, so the
    // materialized request texts match too.
    EXPECT_EQ(back.requestTexts(), trace.requestTexts());
}

TEST(TraceWorkload, SaveLoadRoundTrip)
{
    const TraceWorkload trace =
        TraceWorkload::generate(smallTrace(9));
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "difftune_test_trace.bin")
            .string();
    trace.save(path);
    const TraceWorkload back = TraceWorkload::load(path);
    std::filesystem::remove(path);
    EXPECT_EQ(back.serialize(), trace.serialize());
}

TEST(TraceWorkload, ZipfSkewShapesPopularity)
{
    TraceConfig cfg;
    cfg.seed = 3;
    cfg.corpusTarget = 64;
    cfg.requests = 20000;
    cfg.zipfSkew = 1.1;
    cfg.respellProb = 0.0;
    const TraceWorkload trace = TraceWorkload::generate(cfg);
    const size_t n = trace.corpusTexts().size();
    ASSERT_GT(n, 8u);

    std::vector<uint64_t> counts(n, 0);
    for (const TraceRequest &req : trace.requests()) {
        ASSERT_LT(req.block, n);
        ++counts[req.block];
    }
    // Empirical rank-0 share vs the theoretical 1 / (H * 1^s).
    double harmonic = 0.0;
    for (size_t r = 0; r < n; ++r)
        harmonic += std::exp(-cfg.zipfSkew * std::log(double(r + 1)));
    const double expected0 = 1.0 / harmonic;
    const double actual0 =
        double(counts[0]) / double(cfg.requests);
    EXPECT_NEAR(actual0, expected0, 0.25 * expected0);
    // Monotone-in-expectation head: the hottest rank clearly beats
    // the mid-pack and the tail.
    EXPECT_GT(counts[0], counts[8] * 2);
    EXPECT_GT(counts[0], counts[n - 1] * 4);
}

TEST(TraceWorkload, ArrivalsAreMonotone)
{
    const TraceWorkload trace =
        TraceWorkload::generate(smallTrace(21));
    uint64_t last = 0;
    for (const TraceRequest &req : trace.requests()) {
        EXPECT_GE(req.arrivalNs, last);
        last = req.arrivalNs;
    }
    EXPECT_GT(last, 0u);
}

TEST(TraceWorkload, ModelMixStaysInRange)
{
    TraceConfig cfg = smallTrace(5);
    cfg.models = 3;
    cfg.modelWeights = {0.7, 0.2, 0.1};
    cfg.requests = 3000;
    const TraceWorkload trace = TraceWorkload::generate(cfg);
    uint64_t per_model[3] = {0, 0, 0};
    for (const TraceRequest &req : trace.requests()) {
        ASSERT_LT(req.model, cfg.models);
        ++per_model[req.model];
    }
    // The weights order the mix.
    EXPECT_GT(per_model[0], per_model[1]);
    EXPECT_GT(per_model[1], per_model[2]);
}

TEST(TraceWorkload, ModelMixIsBoundedByTheOneByteIndex)
{
    // A request's model index is one byte, so 256 models is the
    // largest mix; a larger one would wrap indices silently.
    TraceConfig cfg = smallTrace(6);
    cfg.models = kMaxModels;
    cfg.requests = 2000;
    const TraceWorkload trace = TraceWorkload::generate(cfg);
    uint32_t highest = 0;
    for (const TraceRequest &req : trace.requests())
        highest = std::max<uint32_t>(highest, req.model);
    EXPECT_GT(highest, 200u);
    EXPECT_EQ(TraceWorkload::deserialize(trace.serialize()).serialize(),
              trace.serialize());

    cfg.models = kMaxModels + 1;
    EXPECT_THROW(TraceWorkload::generate(cfg), std::runtime_error);
}

TEST(TraceWorkload, DeserializeRejectsModelIndexOutsideTheMix)
{
    TraceConfig cfg = smallTrace(4);
    cfg.models = 2;
    const TraceWorkload trace = TraceWorkload::generate(cfg);
    bool uses_model_1 = false;
    for (const TraceRequest &req : trace.requests())
        uses_model_1 = uses_model_1 || req.model == 1;
    ASSERT_TRUE(uses_model_1);

    // Rewrite the header's model count to 1 and reseal the CRC, so
    // the file is intact but the requests drawn for model 1 index
    // outside its mix. The count follows the magic, the version,
    // three u64 and five f64 fields.
    const std::string bytes = trace.serialize();
    std::string payload = bytes.substr(0, bytes.size() - 4);
    constexpr size_t kModelsOffset = 4 + 4 + 3 * 8 + 5 * 8;
    ASSERT_EQ(payload.substr(kModelsOffset, 4), std::string("\2\0\0\0", 4));
    payload[kModelsOffset] = 1;
    io::ByteWriter crc;
    crc.u32(io::crc32(payload));
    EXPECT_THROW(TraceWorkload::deserialize(payload + crc.take()),
                 std::runtime_error);
}

TEST(TraceWorkload, RespellingPreservesCanonicalForm)
{
    const TraceWorkload trace =
        TraceWorkload::generate(smallTrace(13));
    size_t respelled = 0;
    for (size_t i = 0; i < trace.requests().size(); ++i) {
        const TraceRequest &req = trace.requests()[i];
        const std::string &canonical =
            trace.corpusTexts()[req.block];
        const std::string text = trace.requestText(i);
        if (req.respell == 0) {
            EXPECT_EQ(text, canonical);
            continue;
        }
        ++respelled;
        EXPECT_NE(text, canonical);
        // The near-miss parses back to the same canonical block.
        EXPECT_EQ(isa::toString(isa::parseBlock(text)), canonical);
    }
    // respellProb = 0.3 over 160 requests: expect a healthy sample.
    EXPECT_GT(respelled, 20u);
}

// ------------------------------------------------------ engine replay

TEST(LabReplay, BitStableForEveryPoolSize)
{
    // The lab acceptance assertion: replaying one trace through
    // AsyncEngine must produce bit-identical predictions for every
    // dispatcher count (AsyncConfig::workers) — the pool may only
    // ever change speed, never results. A deliberately tiny cache
    // forces eviction churn.
    const TraceWorkload trace = TraceWorkload::generate(smallTrace(1));
    const std::vector<std::string> texts = trace.requestTexts();

    serve::AsyncEngine reference(tinyCheckpoint());
    std::vector<double> expected;
    expected.reserve(texts.size());
    for (const std::string &text : texts)
        expected.push_back(reference.predict(text));

    for (int pool : {1, 2, 4}) {
        serve::AsyncConfig cfg;
        cfg.workers = pool;
        cfg.cacheCapacity = 8;
        serve::AsyncEngine engine(tinyCheckpoint(), cfg);
        std::vector<std::future<double>> futures =
            engine.submitAll(texts);
        ASSERT_EQ(futures.size(), expected.size());
        for (size_t i = 0; i < futures.size(); ++i)
            ASSERT_TRUE(sameBits(futures[i].get(), expected[i]))
                << "pool " << pool << " req " << i;
        // Replay reconciles: every request counted exactly once.
        const serve::ServeStats &stats = engine.stats();
        EXPECT_EQ(stats.requests.load(), texts.size());
        EXPECT_EQ(stats.hits.load() + stats.misses.load(),
                  stats.requests.load());
    }
}

TEST(LabReplay, PoolServesConcurrentClientsBitExact)
{
    // Concurrent clients x 4 dispatchers: any interleaving, any
    // stripe assignment, any steal must still produce the reference
    // bits. (This is the pool's TSan workout too.)
    const TraceWorkload trace = TraceWorkload::generate(smallTrace(2));
    const std::vector<std::string> texts = trace.requestTexts();
    serve::AsyncEngine reference(tinyCheckpoint());
    std::vector<double> expected;
    expected.reserve(texts.size());
    for (const std::string &text : texts)
        expected.push_back(reference.predict(text));

    serve::AsyncConfig cfg;
    cfg.workers = 4;
    cfg.cacheCapacity = 16;
    serve::AsyncEngine engine(tinyCheckpoint(), cfg);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
        clients.emplace_back([&, t] {
            for (size_t i = 0; i < texts.size(); ++i) {
                const size_t at =
                    (i * 13 + size_t(t) * 7) % texts.size();
                if (!sameBits(engine.submit(texts[at]).get(),
                              expected[at]))
                    ++mismatches;
            }
        });
    }
    for (std::thread &client : clients)
        client.join();
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(LabReplay, PoolSurvivesRegistryHotSwapUnderLoad)
{
    // Two-dispatcher engines behind the registry: clients hammer
    // submit through acquire() while another thread hot-swaps the
    // model. Every answer must be bit-exact against the reference
    // (both generations serve the same checkpoint) and no request
    // may be dropped — the TSan job replays this under
    // ThreadSanitizer.
    const TraceWorkload trace = TraceWorkload::generate(smallTrace(3));
    const std::vector<std::string> texts = trace.requestTexts();
    serve::AsyncEngine reference(tinyCheckpoint());
    std::vector<double> expected;
    expected.reserve(texts.size());
    for (const std::string &text : texts)
        expected.push_back(reference.predict(text));

    obs::MetricRegistry metrics;
    serve::RegistryConfig rcfg;
    rcfg.engine.workers = 2;
    rcfg.engine.cacheCapacity = 16;
    rcfg.registry = &metrics;
    rcfg.metricRoot = "labswap";
    serve::ModelRegistry registry(rcfg);
    registry.load("m", io::makeModelSnapshot(tinyCheckpoint()));

    std::atomic<int> mismatches{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t) {
        clients.emplace_back([&, t] {
            for (int round = 0; round < 2; ++round)
                for (size_t i = 0; i < texts.size(); ++i) {
                    const size_t at =
                        (i * 5 + size_t(t) * 11) % texts.size();
                    const std::shared_ptr<serve::AsyncEngine>
                        engine = registry.acquire("m");
                    try {
                        if (!sameBits(
                                engine->submit(texts[at]).get(),
                                expected[at]))
                            ++mismatches;
                    } catch (const serve::EngineStoppedError &) {
                        // A request racing the swap's drain: retry
                        // on the fresh generation.
                        if (!sameBits(registry.acquire("m")
                                          ->submit(texts[at])
                                          .get(),
                                      expected[at]))
                            ++mismatches;
                    }
                }
        });
    }
    std::thread swapper([&] {
        while (!done.load()) {
            registry.load("m",
                          io::makeModelSnapshot(tinyCheckpoint()));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
    });
    for (std::thread &client : clients)
        client.join();
    done.store(true);
    swapper.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GE(registry.swaps(), 1u);
}

} // namespace
} // namespace difftune::lab
