/**
 * @file
 * difftune_lab — the traffic-lab CLI over src/lab/
 * (docs/TRAFFIC_LAB.md).
 *
 *   difftune_lab gen <out.trace> [--seed N] [--corpus N]
 *                [--corpus-seed N] [--requests N] [--zipf S]
 *                [--respell P] [--models N]
 *       Deterministically generate a trace and save its compact
 *       serialized form (same knobs -> byte-identical file).
 *   difftune_lab replay <trace>
 *       (--ckpt PATH [--workers N] [--capacity N] [--check]
 *        | --daemon PORT [--host H] [--model NAME])
 *       Replay the trace's request stream (respellings and all)
 *       against a local AsyncEngine or a running difftuned daemon,
 *       reporting throughput and cache behavior. Replay always
 *       verifies self-consistency — the same raw text must yield
 *       the same bits every time it appears; --check additionally
 *       verifies every reply bit-exact against the engine's
 *       uncached reference path (the determinism contract).
 *
 * Exit codes: 0 success, 1 a replay check failed (bits diverged),
 * 3 operational error (bad usage, unreadable file, connection
 * refused) — mirroring difftune_compare so scripts can tell a
 * harness breakage from a real divergence.
 */

#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/env.hh"
#include "base/logging.hh"
#include "lab/trace.hh"
#include "serve/async_engine.hh"
#include "serve/daemon.hh"

namespace
{

using namespace difftune;

int
cmdGen(int argc, char **argv)
{
    fatal_if(argc < 3, "usage: gen <out.trace> [--seed N] "
                       "[--corpus N] [--corpus-seed N] "
                       "[--requests N] [--zipf S] [--respell P] "
                       "[--models N]");
    const std::string out = argv[2];
    lab::TraceConfig config;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        fatal_if(i + 1 >= argc, "gen: {} needs a value", arg);
        const std::string value = argv[++i];
        if (arg == "--seed")
            config.seed = parseU64("--seed", value);
        else if (arg == "--corpus")
            config.corpusTarget = uint64_t(parseLong("--corpus", value, 1));
        else if (arg == "--corpus-seed")
            config.corpusSeed = parseU64("--corpus-seed", value);
        else if (arg == "--requests")
            config.requests = uint64_t(parseLong("--requests", value, 1));
        else if (arg == "--zipf")
            config.zipfSkew = parseDouble("--zipf", value, 0.0);
        else if (arg == "--respell")
            config.respellProb = parseDouble("--respell", value, 0.0, 1.0);
        else if (arg == "--models")
            config.models = uint32_t(
                parseLong("--models", value, 1, lab::kMaxModels));
        else
            fatal("gen: unknown argument '{}'", arg);
    }
    const lab::TraceWorkload trace =
        lab::TraceWorkload::generate(config);
    trace.save(out);
    std::cout << "gen: " << trace.requests().size() << " requests, "
              << trace.corpusTexts().size() << " distinct blocks, "
              << "zipf " << config.zipfSkew << ", seed "
              << config.seed << " -> " << out << "\n";
    return 0;
}

/** One replied request of a replay, for the consistency audits. */
struct Reply
{
    const std::string *text;
    double value;
};

/**
 * Self-consistency + (optionally) reference audit over a finished
 * replay. Returns the process exit code.
 */
int
auditReplies(const std::vector<Reply> &replies,
             const std::function<double(const std::string &)> &ref)
{
    std::unordered_map<std::string, uint64_t> first;
    first.reserve(replies.size());
    uint64_t inconsistent = 0, diverged = 0;
    for (const Reply &reply : replies) {
        const auto bits = std::bit_cast<uint64_t>(reply.value);
        const auto [it, fresh] = first.emplace(*reply.text, bits);
        if (!fresh && it->second != bits)
            ++inconsistent;
    }
    if (ref) {
        for (const auto &[text, bits] : first)
            if (std::bit_cast<uint64_t>(ref(text)) != bits)
                ++diverged;
    }
    if (inconsistent > 0)
        std::cout << "replay: FAIL — " << inconsistent
                  << " repeated request(s) answered with different "
                     "bits\n";
    if (diverged > 0)
        std::cout << "replay: FAIL — " << diverged
                  << " distinct text(s) diverged from the uncached "
                     "reference\n";
    if (inconsistent == 0 && diverged == 0) {
        std::cout << "replay: "
                  << (ref ? "bit-exact against the uncached "
                            "reference"
                          : "self-consistent")
                  << " (" << first.size() << " distinct texts)\n";
        return 0;
    }
    return 1;
}

int
cmdReplay(int argc, char **argv)
{
    fatal_if(argc < 3,
             "usage: replay <trace> (--ckpt PATH [--workers N] "
             "[--capacity N] [--check] | "
             "--daemon PORT [--host H] [--model NAME])");
    const lab::TraceWorkload trace = lab::TraceWorkload::load(argv[2]);
    std::string ckpt, host = "127.0.0.1", model = "default";
    int port = -1, workers = 0;
    size_t capacity = 8192;
    bool check = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--check") {
            check = true;
            continue;
        }
        fatal_if(i + 1 >= argc, "replay: {} needs a value", arg);
        const std::string value = argv[++i];
        if (arg == "--ckpt")
            ckpt = value;
        else if (arg == "--workers")
            workers = int(parseLong("--workers", value, 1, maxThreadsArg));
        else if (arg == "--capacity")
            capacity = size_t(parseLong("--capacity", value, 1));
        else if (arg == "--daemon")
            port = int(parseLong("--daemon", value, 1, 65535));
        else if (arg == "--host")
            host = value;
        else if (arg == "--model")
            model = value;
        else
            fatal("replay: unknown argument '{}'", arg);
    }
    fatal_if(ckpt.empty() && port < 0,
             "replay: need --ckpt PATH or --daemon PORT");
    fatal_if(!ckpt.empty() && port >= 0,
             "replay: --ckpt and --daemon are exclusive");
    fatal_if(check && port >= 0,
             "replay: --check needs a local engine (use "
             "difftune_compare check for daemon audits)");

    const std::vector<std::string> texts = trace.requestTexts();
    std::vector<Reply> replies;
    replies.reserve(texts.size());
    const auto start = std::chrono::steady_clock::now();

    std::unique_ptr<serve::AsyncEngine> engine;
    if (port < 0) {
        serve::AsyncConfig cfg;
        cfg.workers = workers;
        cfg.cacheCapacity = capacity;
        engine = serve::AsyncEngine::loadFromFile(ckpt, cfg);
        std::vector<std::future<double>> futures;
        futures.reserve(texts.size());
        for (const std::string &text : texts)
            futures.push_back(engine->submit(text));
        for (size_t i = 0; i < futures.size(); ++i)
            replies.push_back(Reply{&texts[i], futures[i].get()});
    } else {
        serve::DaemonClient client(host, uint16_t(port));
        for (const std::string &text : texts)
            replies.push_back(
                Reply{&text, client.predict(model, text)});
    }

    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::cout << "replay: " << replies.size() << " requests in "
              << seconds << " s ("
              << double(replies.size()) / seconds << " req/s)";
    if (engine) {
        const serve::ServeStats &stats = engine->stats();
        std::cout << " — workers " << engine->workers() << ", hits "
                  << stats.hits.load() << ", misses "
                  << stats.misses.load();
    }
    std::cout << "\n";

    std::function<double(const std::string &)> ref;
    if (check)
        ref = [&engine](const std::string &text) {
            return engine->predictUncached(text);
        };
    return auditReplies(replies, ref);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: difftune_lab <gen|replay> ...\n";
        return 3;
    }
    const std::string command = argv[1];
    // Operational failures exit 3: 0/1 belong to the replay-check
    // contract and must never come from a run that didn't replay.
    try {
        if (command == "gen")
            return cmdGen(argc, argv);
        if (command == "replay")
            return cmdReplay(argc, argv);
        std::cerr << "unknown command '" << command << "'\n";
        return 3;
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 3;
    }
}
