/**
 * @file
 * difftuned — the standalone serving daemon over serve::Daemon /
 * serve::ModelRegistry, plus the loopback client and a tiny-artifact
 * generator that together make the daemon drivable end to end (CI
 * runs exactly that loop: save-tiny -> serve -> client -> SIGTERM).
 *
 *   difftuned serve <name>=<ckpt>... [--port N] [--port-file PATH]
 *                   [--workers N]
 *       Load each checkpoint under its model name and serve them on
 *       loopback TCP (docs/SERVING.md documents the wire protocol;
 *       --port 0, the default, binds an ephemeral port and
 *       --port-file writes the pick where scripts can read it).
 *       SIGTERM/SIGINT trigger a graceful drain: intake closes,
 *       every in-flight request still gets its response, and the
 *       process exits 0 only once nothing is owed to any client.
 *   difftuned client <port> [--host H] [--model NAME] [--requests N]
 *                    [--unique N] [--threads N] [--swap NAME=CKPT]
 *                    [--check]
 *       Drive a running daemon with the synthetic power-law workload
 *       (serve::runDaemonClients). --swap hot-swaps NAME to CKPT
 *       from a side connection mid-run — the expected client-visible
 *       effect of a swap is *nothing*: zero errors, every response a
 *       well-formed prediction. --check then audits the daemon's
 *       /statsz over the wire: daemon.errors == 0 and every engine's
 *       requests == hits + misses (the serving-counter contract).
 *       Exits non-zero on any error or failed check.
 *   difftuned save-tiny <out.ckpt> [seed]
 *       Write an untrained tiny surrogate checkpoint (full sampling
 *       distribution + default Haswell table). Predictions are
 *       meaningless but deterministic per seed — two seeds give two
 *       artifacts whose predictions differ, which is exactly what a
 *       hot-swap smoke test needs, in milliseconds not minutes.
 */

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "bhive/corpus.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "io/checkpoint.hh"
#include "isa/tokens.hh"
#include "obs/export.hh"
#include "params/sampling.hh"
#include "serve/daemon.hh"
#include "serve/workload.hh"
#include "surrogate/model.hh"

namespace
{

using namespace difftune;

/** Self-pipe the signal handlers write to; main blocks reading it. */
int signalPipe[2] = {-1, -1};

extern "C" void
onSignal(int)
{
    const char byte = 1;
    // Best-effort: a full pipe just means a signal is already
    // pending, which is all we need recorded.
    [[maybe_unused]] ssize_t ignored =
        ::write(signalPipe[1], &byte, 1);
}

/** Split "name=path"; fatal if '=' is missing. */
std::pair<std::string, std::string>
splitModelArg(const std::string &arg)
{
    const size_t eq = arg.find('=');
    fatal_if(eq == std::string::npos || eq == 0 ||
                 eq + 1 == arg.size(),
             "expected <name>=<checkpoint>, got '{}'", arg);
    return {arg.substr(0, eq), arg.substr(eq + 1)};
}

int
cmdServe(int argc, char **argv)
{
    serve::DaemonConfig cfg;
    std::string port_file;
    std::vector<std::pair<std::string, std::string>> models;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port") {
            fatal_if(i + 1 >= argc, "--port needs a number");
            // 0 binds an ephemeral port.
            cfg.port = uint16_t(parseLong("--port", argv[++i], 0, 65535));
        } else if (arg == "--port-file") {
            fatal_if(i + 1 >= argc, "--port-file needs a path");
            port_file = argv[++i];
        } else if (arg == "--workers") {
            fatal_if(i + 1 >= argc, "--workers needs a count");
            cfg.registry.engine.workers =
                int(parseLong("--workers", argv[++i], 1, maxThreadsArg));
        } else {
            models.push_back(splitModelArg(arg));
        }
    }
    fatal_if(models.empty(),
             "usage: serve <name>=<ckpt>... [--port N] "
             "[--port-file PATH] [--workers N]");

    // The self-pipe must exist before the daemon can race a signal.
    fatal_if(::pipe(signalPipe) != 0, "pipe(): self-pipe failed");
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    serve::Daemon daemon(cfg);
    for (const auto &[name, path] : models) {
        daemon.registry().loadFromFile(name, path);
        std::cout << "loaded " << name << " <- " << path << "\n";
    }
    daemon.start();
    std::cout << "difftuned serving " << daemon.registry().size()
              << " model(s) on 127.0.0.1:" << daemon.port() << "\n"
              << std::flush;
    if (!port_file.empty()) {
        // Written after the socket is live: a reader that sees the
        // file can connect immediately.
        std::ofstream out(port_file);
        fatal_if(!out, "cannot write port file '{}'", port_file);
        out << daemon.port() << "\n";
    }

    // Block until SIGTERM/SIGINT, then drain: stop intake, answer
    // everything in flight, settle every engine future. Exit code 0
    // is the contract scripts assert on.
    char byte = 0;
    while (::read(signalPipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    std::cout << "difftuned: draining ("
              << daemon.requestsServed() << " requests served, "
              << daemon.connectionsAccepted() << " connections)\n";
    daemon.drain();
    std::cout << "difftuned: drained, exiting\n";
    return 0;
}

int
cmdClient(int argc, char **argv)
{
    std::string host = "127.0.0.1";
    std::string model = "default";
    std::string swap_arg;
    size_t requests = 400;
    size_t unique = 60;
    int threads = 4;
    bool check = false;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--host") {
            fatal_if(i + 1 >= argc, "--host needs an address");
            host = argv[++i];
        } else if (arg == "--model") {
            fatal_if(i + 1 >= argc, "--model needs a name");
            model = argv[++i];
        } else if (arg == "--requests") {
            fatal_if(i + 1 >= argc, "--requests needs a count");
            requests = size_t(parseLong("--requests", argv[++i], 1));
        } else if (arg == "--unique") {
            fatal_if(i + 1 >= argc, "--unique needs a count");
            unique = size_t(parseLong("--unique", argv[++i], 1));
        } else if (arg == "--threads") {
            fatal_if(i + 1 >= argc, "--threads needs a count");
            threads =
                int(parseLong("--threads", argv[++i], 1, maxThreadsArg));
        } else if (arg == "--swap") {
            fatal_if(i + 1 >= argc, "--swap needs <name>=<ckpt>");
            swap_arg = argv[++i];
        } else if (arg == "--check") {
            check = true;
        } else {
            args.push_back(argv[i]);
        }
    }
    fatal_if(args.size() < 3,
             "usage: client <port> [--host H] [--model NAME] "
             "[--requests N] [--unique N] [--threads N] "
             "[--swap NAME=CKPT] [--check]");
    const uint16_t port = uint16_t(parseLong("<port>", args[2], 1, 65535));

    const auto corpus = bhive::Corpus::generate(unique, 0xbe7c);
    const auto workload = serve::powerLawWorkload(
        corpus, requests, corpus.size(), 0x5e77e);

    // The optional hot-swap rides a side connection while the client
    // threads are mid-run; a short head start makes sure the swap
    // lands against live traffic rather than before or after it.
    std::thread swapper;
    std::atomic<bool> swap_failed{false};
    if (!swap_arg.empty()) {
        const auto [name, path] = splitModelArg(swap_arg);
        swapper = std::thread([&host, &swap_failed, port,
                               name = name, path = path] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
            // An exception escaping a thread body terminates the
            // whole client process; a refused connection or bad
            // checkpoint must fail the run with a message instead.
            try {
                serve::DaemonClient admin(host, port);
                admin.load(name, path);
            } catch (const std::exception &error) {
                std::cerr << "hot-swap failed: " << error.what()
                          << "\n";
                swap_failed.store(true, std::memory_order_relaxed);
            }
        });
    }
    const serve::DaemonClientRun run = serve::runDaemonClients(
        host, port, model, workload, threads);
    if (swapper.joinable())
        swapper.join();

    std::cout << "difftuned client: " << workload.size()
              << " requests, " << threads << " threads, "
              << run.errors << " errors, "
              << fmtDouble(double(requests) / run.seconds, 0)
              << " blocks/s (p50/p95/p99 "
              << fmtDouble(run.latency.p50 * 1e6, 0) << "/"
              << fmtDouble(run.latency.p95 * 1e6, 0) << "/"
              << fmtDouble(run.latency.p99 * 1e6, 0) << " us)\n";
    bool failed = run.errors != 0 ||
                  swap_failed.load(std::memory_order_relaxed);

    if (check) {
        // Audit the daemon's own telemetry over the wire: no request
        // errored, and every engine's cache counters reconcile
        // (requests == hits + misses — misses being forwards that
        // really ran; docs/OBSERVABILITY.md).
        serve::DaemonClient auditor(host, port);
        const std::string dump = auditor.statsz();
        const auto errors =
            obs::statszCounter(dump, "model.daemon.errors");
        if (!errors || *errors != 0) {
            std::cout << "check FAILED: model.daemon.errors = "
                      << (errors ? std::to_string(*errors)
                                 : std::string("absent"))
                      << "\n";
            failed = true;
        }
        size_t engines_checked = 0;
        std::istringstream lines(dump);
        std::string line;
        while (std::getline(lines, line)) {
            // Only counter lines are exactly "counter <name> <v>";
            // histogram lines carry more fields and must not desync
            // the scan.
            std::istringstream fields(line);
            std::string kind, name;
            uint64_t value = 0;
            if (!(fields >> kind >> name >> value) ||
                kind != "counter")
                continue;
            const std::string suffix = ".requests";
            if (name.size() <= suffix.size() ||
                name.compare(name.size() - suffix.size(),
                             suffix.size(), suffix) != 0)
                continue;
            const std::string prefix =
                name.substr(0, name.size() - suffix.size());
            const auto hits =
                obs::statszCounter(dump, prefix + ".hits");
            const auto misses =
                obs::statszCounter(dump, prefix + ".misses");
            if (!hits || !misses)
                continue; // not an engine prefix (e.g. daemon.*)
            ++engines_checked;
            if (*hits + *misses != value) {
                std::cout << "check FAILED: " << prefix << ": "
                          << value << " requests != " << *hits
                          << " hits + " << *misses << " misses\n";
                failed = true;
            }
        }
        if (engines_checked == 0) {
            std::cout << "check FAILED: no engine counters in "
                         "/statsz (is DIFFTUNE_OBS_OFF set?)\n";
            failed = true;
        }
        if (!failed)
            std::cout << "check ok: daemon errors 0, "
                      << engines_checked
                      << " engine(s) reconciled\n";
    }
    return failed ? 1 : 0;
}

int
cmdSaveTiny(int argc, char **argv)
{
    fatal_if(argc < 3, "usage: save-tiny <out.ckpt> [seed]");
    const std::string path = argv[2];
    const uint64_t seed =
        argc > 3 ? uint64_t(parseLong("seed", argv[3], 0)) : 5;

    const params::SamplingDist dist = params::SamplingDist::full();
    const core::ParamNormalizer norm(dist);
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.paramDim = norm.paramDim();
    cfg.seed = seed;
    const surrogate::Model model(cfg, isa::theVocab().size());
    const params::ParamTable table =
        hw::defaultTable(hw::Uarch::Haswell);
    io::saveCheckpoint(path, &model, &dist, &table);
    std::cout << "tiny checkpoint (seed " << seed << ") -> " << path
              << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr
            << "usage: difftuned <serve|client|save-tiny> ...\n";
        return 2;
    }
    const std::string command = argv[1];
    try {
        if (command == "serve")
            return cmdServe(argc, argv);
        if (command == "client")
            return cmdClient(argc, argv);
        if (command == "save-tiny")
            return cmdSaveTiny(argc, argv);
        std::cerr << "unknown command '" << command << "'\n";
        return 2;
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 1;
    }
}
