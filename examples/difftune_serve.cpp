/**
 * @file
 * difftune_serve — train-once / serve-many front end over the
 * checkpointing (src/io) and prediction-serving (src/serve) layers.
 *
 *   difftune_serve save <uarch> <out.ckpt> [corpus_size]
 *       Run the DiffTune pipeline and save a full serving checkpoint
 *       (surrogate model + sampling distribution + learned table).
 *   difftune_serve save-ithemal <uarch> <out.ckpt> [corpus_size]
 *       Train the Ithemal baseline and save a model-only checkpoint.
 *   difftune_serve info <ckpt> [--json]
 *       Print the checkpoint's sections, dimensions and the serving
 *       memory footprint (the derived bytes all workers share
 *       through one WeightSnapshot),
 *       followed by the full /statsz telemetry dump of the probe
 *       (--json renders the dump as JSON).
 *   difftune_serve predict <ckpt> <block.s|->...
 *       Load the checkpoint once and predict each block file's
 *       timing (one result line per file; '-' reads stdin). Printed
 *       with 17 significant digits so values can be compared
 *       bit-exactly across processes.
 *   difftune_serve bench <ckpt> [requests] [unique_blocks]
 *                        [--threads N] [--json]
 *       Measure cold-load latency, batched-engine vs naive
 *       throughput, cache-counter and shared-snapshot stats on a
 *       skewed synthetic workload; --threads N adds the
 *       multi-threaded async client mode (N concurrent submitters
 *       vs one, with latency percentiles). Ends
 *       with the full /statsz telemetry dump — per-stage latency
 *       histograms and the mirrored ServeStats counters (--json
 *       renders the dump as JSON; DIFFTUNE_OBS_OFF leaves it
 *       empty).
 *
 * Blocks use the canonical syntax printed by the library, one
 * instruction per line.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "bhive/corpus.hh"
#include "bhive/dataset.hh"
#include "core/difftune.hh"
#include "core/evaluate.hh"
#include "core/ithemal.hh"
#include "hw/default_table.hh"
#include "isa/parse.hh"
#include "mca/xmca.hh"
#include "nn/matvec_dispatch.hh"
#include "obs/export.hh"
#include "serve/workload.hh"

namespace
{

using namespace difftune;

hw::Uarch
parseUarch(const std::string &name)
{
    for (hw::Uarch uarch : hw::allUarches())
        if (name == hw::uarchName(uarch))
            return uarch;
    fatal("unknown microarchitecture '{}' (expected IvyBridge, "
          "Haswell, Skylake or Zen2)",
          name);
}

std::string
readFileOrStdin(const std::string &path)
{
    std::stringstream buffer;
    if (path == "-") {
        buffer << std::cin.rdbuf();
    } else {
        std::ifstream in(path);
        fatal_if(!in, "cannot open '{}'", path);
        buffer << in.rdbuf();
    }
    return buffer.str();
}

/**
 * Dump the global metric registry (info/bench epilogue). The text
 * form gets a "/statsz" banner; --json prints the bare JSON object
 * so the output stays machine-parseable.
 */
void
printStatsz(bool json)
{
    if (json)
        std::cout << obs::renderStatszJson() << "\n";
    else
        std::cout << "/statsz\n" << obs::renderStatsz();
}

/** Pull a "--json" flag out of @p argv, compacting the rest. */
bool
extractJsonFlag(int &argc, char **argv)
{
    bool json = false;
    int out = 0;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            json = true;
        else
            argv[out++] = argv[i];
    }
    argc = out;
    return json;
}

int
cmdSave(int argc, char **argv)
{
    fatal_if(argc < 4, "usage: save <uarch> <out.ckpt> [corpus]");
    const hw::Uarch uarch = parseUarch(argv[2]);
    const std::string path = argv[3];
    const size_t corpus_size =
        argc > 4 ? size_t(parseLong("corpus", argv[4], 1)) : 2000;
    setVerbose(true);

    auto corpus = bhive::Corpus::generate(corpus_size, 42);
    bhive::Dataset dataset(corpus, uarch);
    mca::XMca sim;
    auto base = hw::defaultTable(uarch);
    core::DiffTuneConfig cfg;
    cfg.checkpoint.path = path;
    cfg.checkpoint.every = 2; // crash-safe: keep the best-so-far fresh
    core::DiffTune difftune(sim, dataset, base, cfg);
    auto result = difftune.run();

    auto eval =
        core::evaluate(sim, result.learned, dataset, dataset.test());
    std::cout << "checkpoint -> " << path << "  (test error "
              << fmtPercent(eval.error) << ", surrogate fidelity "
              << fmtPercent(result.surrogateFidelity) << ")\n";

    // Print the in-process model's prediction for a probe block with
    // full precision: `difftune_serve predict <ckpt> -` on the same
    // block in a fresh process must print identical digits (the
    // round-trip is bit-exact).
    const std::string probe = "ADD32rr %ebx, %ecx\nNOP\n";
    const auto block = isa::parseBlock(probe);
    const core::ParamNormalizer norm(cfg.dist);
    nn::Graph graph;
    nn::Ctx ctx{graph, difftune.model().params(), nullptr};
    auto inputs =
        core::constParamInputs(graph, result.learned, block, norm);
    nn::Var pred = graph.exp(difftune.model().forward(
        ctx, surrogate::encodeBlock(block), inputs));
    std::cout.precision(17);
    std::cout << "probe ADD32rr+NOP -> " << graph.scalarValue(pred)
              << "\n";
    return 0;
}

int
cmdSaveIthemal(int argc, char **argv)
{
    fatal_if(argc < 4,
             "usage: save-ithemal <uarch> <out.ckpt> [corpus]");
    const hw::Uarch uarch = parseUarch(argv[2]);
    const std::string path = argv[3];
    const size_t corpus_size =
        argc > 4 ? size_t(parseLong("corpus", argv[4], 1)) : 2000;
    setVerbose(true);

    auto corpus = bhive::Corpus::generate(corpus_size, 42);
    bhive::Dataset dataset(corpus, uarch);
    core::IthemalConfig cfg;
    cfg.checkpoint.path = path;
    core::Ithemal ithemal(dataset, cfg);
    ithemal.train();

    auto eval = ithemal.evaluate(dataset.test());
    std::cout << "checkpoint -> " << path << "  (test error "
              << fmtPercent(eval.error) << ")\n";
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    const bool json = extractJsonFlag(argc, argv);
    fatal_if(argc < 3, "usage: info <ckpt> [--json]");
    io::Checkpoint ckpt = io::loadCheckpoint(argv[2]);
    std::cout << "checkpoint " << argv[2] << " ("
              << std::filesystem::file_size(argv[2]) << " bytes)\n";
    if (ckpt.model) {
        const auto &cfg = ckpt.model->config();
        std::cout << "  model: embed " << cfg.embedDim << ", hidden "
                  << cfg.hidden << ", token layers " << cfg.tokenLayers
                  << ", block layers " << cfg.blockLayers
                  << ", paramDim " << cfg.paramDim << ", vocab "
                  << ckpt.vocabSize << ", "
                  << ckpt.model->params().scalarCount()
                  << " f64 weights\n";
    }
    if (ckpt.dist)
        std::cout << "  sampling distribution: present\n";
    if (ckpt.table)
        std::cout << "  parameter table: " << ckpt.table->numOpcodes()
                  << " opcodes\n";
    if (ckpt.model) {
        // Serving footprint: what one engine (any worker count)
        // keeps resident through the shared WeightSnapshot.
        try {
            serve::AsyncEngine probe(
                io::makeModelSnapshot(std::move(ckpt)));
            probe.predict("NOP\n"); // materialize the projections
            const auto &snapshot = probe.snapshot();
            std::cout << "  serving: " << snapshot.f64Bytes()
                      << " weight bytes in place, "
                      << probe.sharedWeightBytes()
                      << " derived bytes shared across "
                      << probe.workers() << " workers\n";
            const auto &interner = probe.interner();
            std::cout << "  front end: matvec kernel "
                      << nn::matvecPathName() << "; intern tables "
                      << interner.numInsts() << " insts / "
                      << interner.numBlocks() << " blocks, "
                      << interner.bytes() << " bytes\n";
        } catch (const std::exception &error) {
            std::cout << "  serving: unavailable ("
                      << stripErrorPrefix(error.what()) << ")\n";
        }
    }
    // The probe's stage histograms (and the surrogate batch
    // counters) survive the probe engine; its ServeStats mirrors
    // were unlinked at destruction.
    printStatsz(json);
    return 0;
}

int
cmdPredict(int argc, char **argv)
{
    fatal_if(argc < 4, "usage: predict <ckpt> <block.s|->...");
    const auto engine = serve::AsyncEngine::loadFromFile(argv[2]);
    std::cout.precision(17);
    for (int i = 3; i < argc; ++i)
        std::cout << engine->predict(readFileOrStdin(argv[i])) << "\n";
    return 0;
}

int
cmdBench(int argc, char **argv)
{
    bool json = false;
    int threads = 0;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            json = true;
        } else if (std::string(argv[i]) == "--threads") {
            fatal_if(i + 1 >= argc, "--threads needs a count");
            threads =
                int(parseLong("--threads", argv[++i], 1, maxThreadsArg));
        } else {
            args.push_back(argv[i]);
        }
    }
    fatal_if(args.size() < 3,
             "usage: bench <ckpt> [requests] [unique] "
             "[--threads N] [--json]");
    const std::string path = args[2];
    const size_t requests =
        args.size() > 3 ? size_t(parseLong("requests", args[3], 1)) : 4000;
    const size_t unique =
        args.size() > 4 ? size_t(parseLong("unique", args[4], 1)) : 400;

    const auto load_begin = std::chrono::steady_clock::now();
    const io::ModelSnapshot artifact = io::loadModelSnapshot(path);
    serve::AsyncEngine engine(artifact);
    const auto load_end = std::chrono::steady_clock::now();
    const double load_ms =
        1e3 * serve::secondsBetween(load_begin, load_end);
    std::cout << "cold load: " << fmtDouble(load_ms, 1) << " ms ("
              << std::filesystem::file_size(path) << " bytes)\n";

    const auto corpus = bhive::Corpus::generate(unique, 0xbe7c);
    const auto workload = serve::powerLawWorkload(
        corpus, requests, corpus.size(), 0x5e77e);

    // Naive (fresh graph per request) vs the batched engine, waves
    // of requests as at a serving endpoint (serve/workload.hh). One
    // naive pass serves both this comparison and the client mode.
    const serve::NaiveRun naive = serve::runNaive(engine, workload);
    const auto timing = serve::engineVsNaive(engine, workload, naive);

    const auto &stats = engine.stats();
    std::cout << "workload: " << workload.size() << " requests over "
              << corpus.size() << " unique blocks\n"
              << "naive:  "
              << fmtDouble(double(requests) / timing.naiveSeconds, 0)
              << " blocks/s\n"
              << "engine: "
              << fmtDouble(double(requests) / timing.engineSeconds, 0)
              << " blocks/s ("
              << engine.workers() << " workers, speedup "
              << fmtDouble(timing.speedup(), 1) << "x)\n"
              << "stats:  " << stats.requests.load() << " requests, "
              << stats.textHits.load() << " raw-text hits / "
              << stats.textMisses.load() << " misses, "
              << stats.hits.load() << " total cache hits, "
              << stats.internHits.load() << " intern hits, "
              << stats.forwards.load() << " forwards, "
              << stats.batches.load() << " batches\n"
              << "front end: matvec kernel " << nn::matvecPathName()
              << "; intern tables "
              << engine.interner().numInsts() << " insts / "
              << engine.interner().numBlocks() << " blocks, "
              << engine.interner().bytes() << " bytes\n"
              << "shared snapshot: "
              << engine.sharedWeightBytes()
              << " derived bytes resident once (per-shard copies: "
              << (engine.snapshot().panelBytes() +
                  engine.snapshot().projBytes()) *
                     size_t(engine.workers()) +
                     engine.snapshot().inputColumnBytes()
              << ")\n";

    if (threads > 0) {
        // Client mode: N concurrent threads submitting through the
        // dispatchers vs one thread on the same path (bit-checked
        // against the naive pass). --threads 1 is allowed: both
        // passes then run one client.
        const auto clients = serve::compareAsyncClients(
            artifact, workload, threads, naive);
        std::cout
            << "1 client:      "
            << fmtDouble(double(requests) / clients.singleSeconds, 0)
            << " blocks/s\n"
            << "async x" << threads << ":      "
            << fmtDouble(double(requests) / clients.asyncSeconds, 0)
            << " blocks/s ("
            << fmtDouble(clients.speedup, 2)
            << "x aggregate over " << clients.pairs
            << " pass pairs, p50/p95/p99 "
            << fmtDouble(clients.latency.p50 * 1e6, 0) << "/"
            << fmtDouble(clients.latency.p95 * 1e6, 0) << "/"
            << fmtDouble(clients.latency.p99 * 1e6, 0) << " us)\n";
    }
    printStatsz(json);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: difftune_serve "
                     "<save|save-ithemal|info|predict|bench> ...\n";
        return 2;
    }
    const std::string command = argv[1];
    try {
        if (command == "save")
            return cmdSave(argc, argv);
        if (command == "save-ithemal")
            return cmdSaveIthemal(argc, argv);
        if (command == "info")
            return cmdInfo(argc, argv);
        if (command == "predict")
            return cmdPredict(argc, argv);
        if (command == "bench")
            return cmdBench(argc, argv);
        std::cerr << "unknown command '" << command << "'\n";
        return 2;
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 1;
    }
}
