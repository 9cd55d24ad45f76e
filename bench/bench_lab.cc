/**
 * @file
 * Traffic-lab benchmark: deterministic trace generation and engine
 * replay throughput.
 *
 * Two sections (docs/TRAFFIC_LAB.md):
 *
 *  1. Trace generation — how fast lab::TraceWorkload materializes a
 *     Zipf-skewed bursty request stream, plus a serialize ->
 *     deserialize -> serialize round trip that must be byte-exact
 *     (the replayability contract; always enforced).
 *
 *  2. Engine replay — the same trace served end-to-end through
 *     serve::AsyncEngine's LRU caches at capacity 32, with 1 and
 *     with N dispatchers (AsyncConfig::workers). Predictions must be
 *     bit-identical across dispatcher counts (always enforced);
 *     throughput is reported, not floored.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "hw/default_table.hh"
#include "isa/intern.hh"
#include "lab/trace.hh"
#include "serve/async_engine.hh"
#include "surrogate/model.hh"

namespace
{

using namespace difftune;

double
secondsSince(const std::chrono::steady_clock::time_point &begin)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    difftune::bench::parseBenchArgs(argc, argv);
    setVerbose(false);
    bool floors_ok = true;
    const int rc = bench::runBench(
        "bench_lab: trace generation and engine replay",
        "serving-traffic extension (train once, serve many; Renda "
        "et al. 2021)",
        [&] {
            // ---- 1. Trace generation + round trip.
            lab::TraceConfig tcfg;
            tcfg.seed = 42;
            tcfg.corpusSeed = 9;
            tcfg.corpusTarget = 256;
            tcfg.requests = uint64_t(scaledCount(40000, 4000));
            tcfg.zipfSkew = 1.1;
            tcfg.respellProb = 0.25;

            const auto gen_begin = std::chrono::steady_clock::now();
            const lab::TraceWorkload trace =
                lab::TraceWorkload::generate(tcfg);
            const double gen_s = secondsSince(gen_begin);

            const std::string blob = trace.serialize();
            const bool round_trip =
                lab::TraceWorkload::deserialize(blob).serialize() ==
                blob;

            TextTable gen_table({"Trace", "Value", "Notes"});
            gen_table.addRow(
                {"requests",
                 std::to_string(trace.requests().size()),
                 "zipf " + fmtDouble(tcfg.zipfSkew, 1) + ", " +
                     std::to_string(trace.corpusTexts().size()) +
                     " distinct blocks"});
            gen_table.addRow(
                {"generation",
                 fmtDouble(double(trace.requests().size()) / gen_s /
                               1e6,
                           2) +
                     " Mreq/s",
                 "corpus + stream + arrivals"});
            gen_table.addRow(
                {"serialized size", std::to_string(blob.size()) +
                                        " bytes",
                 fmtDouble(double(blob.size()) /
                               double(trace.requests().size()),
                           1) +
                     " bytes/request"});
            gen_table.addRow({"round trip",
                              round_trip ? "byte-exact" : "DIVERGED",
                              "gate: byte-exact"});
            std::cout << gen_table.render() << "\n";
            if (!round_trip) {
                std::fprintf(stderr,
                             "FAIL: trace serialize round trip is "
                             "not byte-exact\n");
                floors_ok = false;
            }

            // ---- 2. Engine replay. A small cache keeps miss
            // traffic flowing (dispatcher parallelism only matters
            // on the forward path; front-cache hits resolve inline
            // in the submitting thread either way).
            const params::SamplingDist dist =
                params::SamplingDist::full();
            const core::ParamNormalizer norm(dist);
            surrogate::ModelConfig mcfg;
            mcfg.hidden = core::ExperimentScale::fromEnv().hidden;
            mcfg.embedDim = core::ExperimentScale::fromEnv().embed;
            mcfg.tokenLayers = 1;
            mcfg.blockLayers = 2;
            mcfg.paramDim = norm.paramDim();
            surrogate::Model model(mcfg, isa::theVocab().size());
            const params::ParamTable table =
                hw::defaultTable(hw::Uarch::Haswell);
            const std::string path =
                core::cacheDir() + "/bench_lab.ckpt";
            io::saveCheckpoint(path, &model, &dist, &table);
            const io::ModelSnapshot artifact =
                io::loadModelSnapshot(path);

            const std::vector<std::string> texts =
                trace.requestTexts();
            const auto replay = [&](int workers,
                                    std::vector<uint64_t> &bits) {
                serve::AsyncConfig acfg;
                acfg.workers = workers;
                acfg.cacheCapacity = 32;
                serve::AsyncEngine engine(artifact, acfg);
                std::vector<std::future<double>> futures;
                futures.reserve(texts.size());
                const auto begin = std::chrono::steady_clock::now();
                for (const std::string &text : texts)
                    futures.push_back(engine.submit(text));
                bits.reserve(futures.size());
                for (auto &f : futures)
                    bits.push_back(std::bit_cast<uint64_t>(f.get()));
                return secondsSince(begin);
            };

            // Bit-stability across dispatcher counts: always
            // enforced (the determinism contract — the count may
            // only change speed).
            const int pool = int(std::min(
                4u, std::max(2u, std::thread::hardware_concurrency())));
            std::vector<uint64_t> single_bits, pool_bits;
            const double single_s = replay(1, single_bits);
            const double pool_s = replay(pool, pool_bits);
            const bool bits_match = single_bits == pool_bits;

            TextTable pt({"Replay", "Throughput", "Notes"});
            pt.addRow({"1 dispatcher",
                       fmtDouble(double(texts.size()) / single_s, 0) +
                           " req/s",
                       "LRU, capacity 32"});
            pt.addRow({std::to_string(pool) + " dispatchers",
                       fmtDouble(double(texts.size()) / pool_s, 0) +
                           " req/s",
                       "striped intake + idle-steal"});
            pt.addRow({"bits across dispatcher counts",
                       bits_match ? "identical" : "DIVERGED",
                       "gate: identical"});
            std::cout << pt.render();
            std::cout << "(" << texts.size() << " requests)\n";

            if (!bits_match) {
                std::fprintf(stderr,
                             "FAIL: %d dispatchers diverged from the "
                             "1-dispatcher bits\n",
                             pool);
                floors_ok = false;
            }
        });
    return rc != 0 ? rc : (floors_ok ? 0 : 1);
}
