/**
 * @file
 * Serving-layer benchmark: checkpoint cold-load latency plus the
 * throughput of the batched serve::AsyncEngine against the naive
 * one-fresh-graph-per-block path, on a skewed request stream (a small
 * working set dominates, as in real serving traffic; see
 * serve/workload.hh for the shared experiment definition).
 *
 * The engine's advantage comes from the mechanisms measured
 * together: the raw-text and canonical LRU caches (repeat blocks
 * skip parsing / the LSTM entirely), within-batch deduplication, the
 * batched forward executor (nn/batched.hh: no tape, shared weight
 * reads, per-token input projections, instruction-hidden reuse).
 *
 * Serving API v2 additions: a resident-weight-bytes table showing
 * what the shared WeightSnapshot deduplicates versus the pre-v2
 * one-copy-per-executor layout, and a multi-threaded client mode
 * (serve/workload.hh compareAsyncClients) pitting N concurrent
 * client threads against one, all submitting through the
 * AsyncEngine dispatchers.
 *
 * Floors (see docs/BENCHMARKS.md): the engine must serve
 * bit-exactly at >= 3x over naive; under --smoke the speedup must
 * additionally reach >= 10x (the PR-4 batched-execution floor,
 * enforced by the CI bench-smoke job), and on >= 2 cores the
 * multi-client aggregate must beat one client by >= 1.5x, as the
 * median ratio of interleaved pass pairs (skipped, not failed, on
 * 1-core runners). The telemetry layer (src/obs/) adds two more
 * checks: the instrumented warm path must stay within 5% of an
 * engine built with the obs kill switch off, and the /statsz dump
 * printed at the end must reconcile exactly (requests == text_hits
 * + text_misses == hits + misses), parsed back out of the dump text
 * itself.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <bit>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "isa/intern.hh"
#include "isa/parse.hh"
#include "nn/matvec_dispatch.hh"
#include "obs/export.hh"
#include "obs/stage_timer.hh"
#include "serve/daemon.hh"
#include "serve/workload.hh"
#include "surrogate/model.hh"

namespace
{

using namespace difftune;

/** CI floors under --smoke (docs/BENCHMARKS.md). */
constexpr double smokeSpeedupFloor = 10.0;
/**
 * Multi-client floor: concurrent clients must beat one client on the
 * same submit path by this much in aggregate, as the median per-pair
 * ratio of interleaved pass pairs (serve::compareAsyncClients).
 * Only enforced on >= 2 cores — on a 1-core runner the comparison is
 * skipped (the dispatchers and the clients would just time-slice).
 */
constexpr double asyncSpeedupFloor = 1.5;

/**
 * Front-end floor: replaying known canonical forms through respelled
 * raw text (raw-text LRU miss, but interner + canonical-cache hit)
 * must serve at least this much faster per block than the cold
 * first-sight path that runs the LSTM forward. The gap is what the
 * interned warm path buys near-miss traffic.
 */
constexpr double frontEndWarmFloor = 3.0;

/**
 * Telemetry overhead gate: the respelled-warm path served by an
 * instrumented engine must cost at most this ratio of the same pass
 * on an engine built with the obs kill switch off, as the median
 * per-pair ratio of interleaved on/off pass pairs. Enforced under
 * --smoke only.
 */
constexpr double obsOverheadGate = 1.05;

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = difftune::bench::parseBenchArgs(argc, argv);
    setVerbose(false);
    bool floors_ok = true;
    const int rc = bench::runBench(
        "bench_serve: checkpoint cold-load latency and batched "
        "serving throughput",
        "serving-layer extension (train once, serve many; Renda et "
        "al. 2021)",
        [&] {
            // A full serving artifact: surrogate-shaped model +
            // learned-table stand-in + sampling distribution. The
            // weights are untrained — throughput and round-trip
            // fidelity do not depend on training.
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
                core::cacheDir() + "/bench_serve.ckpt";

            // ---- Checkpoint save + cold-load latency.
            const auto save_begin = std::chrono::steady_clock::now();
            io::saveCheckpoint(path, &model, &dist, &table);
            const auto save_end = std::chrono::steady_clock::now();

            // One load-once artifact serves every engine below; the
            // cold-load figure covers the read + promotion + first
            // engine bind (the v2 serving path).
            const auto load_begin = std::chrono::steady_clock::now();
            const io::ModelSnapshot artifact =
                io::loadModelSnapshot(path);
            serve::AsyncEngine engine(artifact);
            const auto load_end = std::chrono::steady_clock::now();

            TextTable io_table({"Checkpoint", "Value"});
            io_table.addRow(
                {"file size",
                 std::to_string(std::filesystem::file_size(path)) +
                     " bytes"});
            const double save_ms =
                1e3 * serve::secondsBetween(save_begin, save_end);
            const double load_ms =
                1e3 * serve::secondsBetween(load_begin, load_end);
            io_table.addRow({"save", fmtDouble(save_ms, 1) + " ms"});
            io_table.addRow(
                {"cold load", fmtDouble(load_ms, 1) + " ms"});
            std::cout << io_table.render() << "\n";
            std::cout << "matvec kernel: " << nn::matvecPathName()
                      << " (DIFFTUNE_FORCE_SCALAR pins scalar)\n\n";

            // ---- Throughput: naive vs the batched engine, against
            // one naive pass that the later sections reuse. The
            // working set is a fraction of the corpus, as at a
            // serving endpoint where a hot subset dominates the
            // traffic.
            const size_t requests = size_t(scaledCount(20000, 800));
            const auto &corpus = core::sharedCorpus();
            const size_t unique = std::min(
                corpus.size(), std::max<size_t>(50, requests / 8));
            const auto workload = serve::powerLawWorkload(
                corpus, requests, unique, 0xbe7c);

            const serve::NaiveRun naive =
                serve::runNaive(engine, workload);
            const auto timing =
                serve::engineVsNaive(engine, workload, naive);

            const auto &stats = engine.stats();
            TextTable table2({"Path", "Throughput", "Notes"});
            table2.addRow(
                {"naive (fresh graph/block)",
                 fmtDouble(double(requests) / timing.naiveSeconds, 0) +
                     " blk/s",
                 "no cache, no batching"});
            table2.addRow(
                {"engine (batched)",
                 fmtDouble(double(requests) / timing.engineSeconds,
                           0) +
                     " blk/s",
                 std::to_string(engine.workers()) + " workers, " +
                     std::to_string(stats.hits) + " hits, " +
                     std::to_string(stats.forwards) + " forwards"});
            table2.addRow({"speedup (bit-exact)",
                           fmtDouble(timing.speedup(), 1) + "x",
                           smoke ? "smoke floor: 10x"
                                 : "floor: 3x (BENCHMARKS.md)"});
            std::cout << table2.render();
            std::cout << "(" << workload.size() << " requests over "
                      << unique << " unique blocks)\n";

            if (smoke && timing.speedup() < smokeSpeedupFloor) {
                std::fprintf(stderr,
                             "FAIL: batched-vs-naive speedup %.1fx "
                             "is under the %.0fx smoke floor\n",
                             timing.speedup(), smokeSpeedupFloor);
                floors_ok = false;
            }

            // ---- Front-end breakdown: where a request spends its
            // time before the forward pass, and what the interned
            // warm path saves. Stage timings are per block over the
            // unique working set. The "warm" column replays the same
            // canonical forms through respelled raw text (extra tabs
            // and spaces), so the raw-text LRU misses but the
            // interner and the canonical prediction cache both hit —
            // the LSTM never runs.
            const size_t fe_n = std::min<size_t>(unique, 200);
            std::vector<std::string> fe_texts;
            std::vector<std::string> fe_warm_texts;
            fe_texts.reserve(fe_n);
            fe_warm_texts.reserve(fe_n);
            for (size_t i = 0; i < fe_n; ++i) {
                fe_texts.push_back(isa::toString(corpus[i].block));
                std::string spaced = "\t";
                for (const char c : fe_texts.back()) {
                    if (c == ',')
                        spaced += " ,";
                    else if (c == '\n')
                        spaced += "\n\t";
                    else
                        spaced += c;
                }
                fe_warm_texts.push_back(std::move(spaced));
            }

            const auto perBlockUs = [fe_n](auto &&fn) {
                const auto begin = std::chrono::steady_clock::now();
                fn();
                const auto end = std::chrono::steady_clock::now();
                return 1e6 * serve::secondsBetween(begin, end) /
                       double(fe_n);
            };

            size_t lexemes = 0;
            std::vector<isa::Lexeme> lex;
            const double tok_us = perBlockUs([&] {
                for (const std::string &text : fe_texts) {
                    lex.clear();
                    isa::lexBlock(text, lex);
                    lexemes += lex.size();
                }
            });

            std::vector<isa::BasicBlock> fe_blocks;
            fe_blocks.reserve(fe_n);
            const double parse_us = perBlockUs([&] {
                for (const std::string &text : fe_texts)
                    fe_blocks.push_back(isa::parseBlock(text));
            });

            isa::Interner fe_interner;
            const double intern_cold_us = perBlockUs([&] {
                for (const isa::BasicBlock &block : fe_blocks)
                    fe_interner.internBlock(block);
            });
            const double intern_warm_us = perBlockUs([&] {
                for (const isa::BasicBlock &block : fe_blocks)
                    fe_interner.internBlock(block);
            });

            size_t lanes = 0;
            const double encode_us = perBlockUs([&] {
                for (const isa::BasicBlock &block : fe_blocks)
                    lanes += surrogate::encodeBlock(block).size();
            });

            serve::AsyncEngine fe_engine(artifact);
            std::vector<double> fe_cold_preds;
            fe_cold_preds.reserve(fe_n);
            obs::LatencyHistogram fe_cold_hist;
            obs::LatencyHistogram fe_warm_hist;
            const double cold_us = perBlockUs([&] {
                for (const std::string &text : fe_texts) {
                    const uint64_t t0 = obs::nowNs();
                    fe_cold_preds.push_back(fe_engine.predict(text));
                    fe_cold_hist.record(
                        obs::elapsedNs(t0, obs::nowNs()));
                }
            });
            size_t fe_mismatch = 0;
            const double warm_us = perBlockUs([&] {
                for (size_t i = 0; i < fe_n; ++i) {
                    const uint64_t t0 = obs::nowNs();
                    if (fe_engine.predict(fe_warm_texts[i]) !=
                        fe_cold_preds[i]) {
                        ++fe_mismatch;
                    }
                    fe_warm_hist.record(
                        obs::elapsedNs(t0, obs::nowNs()));
                }
            });
            if (fe_mismatch != 0) {
                std::fprintf(stderr,
                             "FAIL: %zu respelled blocks diverged "
                             "from their cold predictions\n",
                             fe_mismatch);
                floors_ok = false;
            }

            const double fe_speedup = cold_us / warm_us;
            TextTable fe({"Front-end stage", "cold us/blk",
                          "warm us/blk"});
            fe.addRow({"tokenize (lexBlock)", fmtDouble(tok_us, 2),
                       "-"});
            fe.addRow({"parse -> canonical block",
                       fmtDouble(parse_us, 2),
                       fmtDouble(parse_us, 2)});
            fe.addRow({"intern (canonical -> BlockId)",
                       fmtDouble(intern_cold_us, 2),
                       fmtDouble(intern_warm_us, 2)});
            fe.addRow({"encode token lanes", fmtDouble(encode_us, 2),
                       "cached"});
            fe.addRow({"engine predict, end to end",
                       fmtDouble(cold_us, 1), fmtDouble(warm_us, 2)});
            const auto pctUs =
                [](const obs::HistogramSnapshot &snap) {
                    return fmtDouble(snap.percentile(0.50) * 1e-3,
                                     1) +
                           " / " +
                           fmtDouble(snap.percentile(0.95) * 1e-3,
                                     1) +
                           " / " +
                           fmtDouble(snap.percentile(0.99) * 1e-3,
                                     1);
                };
            fe.addRow({"predict p50/p95/p99 (us/blk)",
                       pctUs(fe_cold_hist.snapshot()),
                       pctUs(fe_warm_hist.snapshot())});
            fe.addRow({"warm speedup (end to end)",
                       fmtDouble(fe_speedup, 1) + "x",
                       smoke ? "smoke floor: 3x" : "floor: 3x"});
            std::cout << fe.render();
            const auto &fe_stats = fe_engine.stats();
            std::cout << "(" << fe_n << " unique blocks, " << lexemes
                      << " lexemes, " << lanes
                      << " encoded instructions; warm pass: "
                      << fe_stats.internHits << " intern hits, "
                      << fe_stats.forwards << " forwards total)\n\n";

            if (smoke && fe_speedup < frontEndWarmFloor) {
                std::fprintf(stderr,
                             "FAIL: warm interned path speedup "
                             "%.1fx is under the %.0fx smoke "
                             "floor\n",
                             fe_speedup, frontEndWarmFloor);
                floors_ok = false;
            }

            // ---- Telemetry overhead: the respelled-warm pass
            // (raw-text LRU miss, canonical hit — the cheapest path
            // that still crosses every stage timer) on an
            // instrumented engine versus one built with the obs kill
            // switch off. Each pass gets fresh spellings so the text
            // cache keeps misses; passes interleave the two engines
            // (alternating which runs first), and the gate is the
            // MEDIAN of per-pair on/off ratios — each pair runs
            // back-to-back so slow epochs on a shared runner are
            // common-mode within a pair, and a steal-time burst
            // landing inside one run makes one outlier pair the
            // median ignores. Pairs repeat until the timed passes
            // add up to two seconds (at least 32 pairs), as in
            // serve::compareAsyncClients, so the ratio never rests
            // on a moment of the host. Skipped entirely when
            // DIFFTUNE_OBS_OFF already disabled telemetry.
            const std::string obs_prefix = engine.metricPrefix();
            if (!obs_prefix.empty()) {
                // Every pass gets a distinct spelling (so the text
                // LRU keeps missing) of the SAME length: 7-char
                // whitespace gaps (6 space/tab bits and a space).
                // The gap that leads each text encodes the low 6
                // bits of the pass index, the gaps before commas and
                // after newlines (every canonical text ends in one)
                // the next 6, so 4096 passes stay distinct. Equal
                // lengths matter — parse cost scales with text, so
                // length-varying pads would skew some passes.
                constexpr int max_passes = 1 << 12;
                const auto gap = [](int bits) {
                    std::string out;
                    for (int bit = 0; bit < 6; ++bit)
                        out += (bits >> bit) & 1 ? '\t' : ' ';
                    return out + ' ';
                };
                const auto respell_pass = [&](int pass) {
                    const std::string lead = gap(pass & 63);
                    const std::string inner = gap(pass >> 6);
                    std::vector<std::string> texts;
                    texts.reserve(fe_n);
                    for (const std::string &text : fe_texts) {
                        std::string out = lead;
                        for (const char c : text) {
                            if (c == ',')
                                out += inner + ",";
                            else if (c == '\n')
                                out += "\n" + inner;
                            else
                                out += c;
                        }
                        texts.push_back(std::move(out));
                    }
                    return texts;
                };
                // Each pair of engines serves pairs_per_engines
                // timed pairs and is then replaced. Every predict
                // here is a hand-off to a dispatcher thread, whose
                // placement on the host's cores lasts as long as the
                // thread and skews every pass it serves: one on/off
                // engine pair per process read the two minimum
                // passes up to ~10% apart either way on the 4-vCPU
                // host, far more than the instrumentation costs.
                // Fresh engines draw fresh threads, so the median
                // spans many placements. The gate engines report to
                // a private registry, keeping the /statsz dump below
                // to the first engine's.
                constexpr int pairs_per_engines = 16;
                obs::MetricRegistry gate_metrics;
                serve::AsyncConfig gate_config;
                gate_config.registry = &gate_metrics;
                std::unique_ptr<serve::AsyncEngine> on_engine;
                std::unique_ptr<serve::AsyncEngine> off_engine;
                // The first pair on each engine pair is an untimed
                // warm-up: the first pass after process start, or on
                // fresh threads, consistently measures slow. Each
                // pass's spellings are built just before it runs, so
                // both engines read them from cache.
                constexpr size_t min_pairs = 32;
                constexpr double min_seconds = 2.0;
                double on_us = 1e300;
                double off_us = 1e300;
                double timed_seconds = 0.0;
                std::vector<double> ratios;
                for (int pass = 0;
                     pass < max_passes &&
                     (ratios.size() < min_pairs ||
                      timed_seconds < min_seconds);
                     ++pass) {
                    const bool fresh =
                        pass % (pairs_per_engines + 1) == 0;
                    if (fresh) {
                        on_engine.reset();
                        off_engine.reset();
                        on_engine = std::make_unique<serve::AsyncEngine>(
                            artifact, gate_config);
                        obs::setEnabled(false);
                        off_engine = std::make_unique<serve::AsyncEngine>(
                            artifact, gate_config);
                        obs::setEnabled(true);
                        on_engine->predictAll(fe_texts); // cold fill
                        off_engine->predictAll(fe_texts);
                    }
                    const std::vector<std::string> texts =
                        respell_pass(pass);
                    const auto run = [&](serve::AsyncEngine &e) {
                        return perBlockUs([&] {
                            for (const std::string &text : texts)
                                e.predict(text);
                        });
                    };
                    double on, off;
                    if (pass % 2 == 0) {
                        on = run(*on_engine);
                        off = run(*off_engine);
                    } else {
                        off = run(*off_engine);
                        on = run(*on_engine);
                    }
                    if (fresh)
                        continue; // warm-up pair: discard
                    on_us = std::min(on_us, on);
                    off_us = std::min(off_us, off);
                    ratios.push_back(on / off);
                    timed_seconds += (on + off) * 1e-6 * double(fe_n);
                }
                std::nth_element(ratios.begin(),
                                 ratios.begin() +
                                     long(ratios.size() / 2),
                                 ratios.end());
                const double ratio = ratios[ratios.size() / 2];
                TextTable ot({"Telemetry", "us/blk", "Notes"});
                ot.addRow({"warm path, obs on", fmtDouble(on_us, 2),
                           "stage timers + mirrored counters"});
                ot.addRow({"warm path, obs off",
                           fmtDouble(off_us, 2),
                           "kill-switch engine"});
                ot.addRow({"instrumentation overhead",
                           fmtDouble((ratio - 1.0) * 100.0, 1) + "%",
                           std::string("median of ") +
                               std::to_string(ratios.size()) +
                               " interleaved pairs" +
                               (smoke ? ", smoke gate: <= 5%"
                                      : ", gate: <= 5%")});
                std::cout << ot.render() << "\n";
                if (smoke && ratio > obsOverheadGate) {
                    std::fprintf(stderr,
                                 "FAIL: telemetry overhead %.1f%% "
                                 "exceeds the %.0f%% smoke gate\n",
                                 (ratio - 1.0) * 100.0,
                                 (obsOverheadGate - 1.0) * 100.0);
                    floors_ok = false;
                }

                // ---- /statsz: dump the global registry and check
                // the mirrored-counter invariant on the first
                // engine's section — parsed back out of the dump
                // text itself, so the exporter round-trip is what is
                // audited (always enforced; it is deterministic).
                const std::string dump = obs::renderStatsz();
                std::cout << "/statsz (global registry)\n" << dump
                          << "\n";
                bool dump_ok = true;
                const auto counter = [&](const char *field) {
                    const auto v = obs::statszCounter(
                        dump, obs_prefix + "." + field);
                    if (!v) {
                        std::fprintf(stderr,
                                     "FAIL: /statsz dump lacks "
                                     "counter %s.%s\n",
                                     obs_prefix.c_str(), field);
                        dump_ok = false;
                        return uint64_t(0);
                    }
                    return *v;
                };
                const unsigned long long req = counter("requests");
                const unsigned long long th = counter("text_hits");
                const unsigned long long tm = counter("text_misses");
                const unsigned long long ch = counter("hits");
                const unsigned long long cm = counter("misses");
                if (dump_ok &&
                    (req != th + tm || req != ch + cm)) {
                    std::fprintf(
                        stderr,
                        "FAIL: /statsz counters do not reconcile: "
                        "requests=%llu text=%llu+%llu "
                        "cache=%llu+%llu\n",
                        req, th, tm, ch, cm);
                    dump_ok = false;
                }
                if (!dump_ok)
                    floors_ok = false;
            }

            // ---- Serving API v2: shared snapshot memory and the
            // multi-threaded client mode. Every engine above was
            // built from one loaded artifact, so at this point ONE
            // WeightSnapshot is serving all of them: the packed
            // panels and input projections and the per-opcode
            // columns are each resident exactly once. The pre-v2
            // figure is the first engine alone with a copy of the
            // panels and projections per executor.
            const nn::WeightSnapshot &snapshot = engine.snapshot();
            const size_t pre_v2 =
                size_t(engine.workers()) *
                    (snapshot.panelBytes() + snapshot.projBytes()) +
                snapshot.inputColumnBytes();
            TextTable mem({"Resident weight bytes", "Value"});
            mem.addRow({"frozen f64 weights (in place)",
                        std::to_string(snapshot.f64Bytes())});
            mem.addRow({"derived, pre-v2 layout (per-executor "
                        "copies, 1 engine)",
                        std::to_string(pre_v2)});
            mem.addRow({"derived, v2 (1 shared snapshot, all "
                        "engines)",
                        std::to_string(snapshot.sharedBytes())});
            std::cout << mem.render();

            // ---- difftuned loopback round trip: the same artifact
            // served through the daemon's wire protocol. Reported,
            // not floored (TCP adds latency, not model work) — but
            // every response is bit-checked against the naive pass
            // and any error or mismatch fails the run: the process
            // boundary must not cost a single bit.
            {
                serve::DaemonConfig dcfg;
                dcfg.registry.engine.workers = engine.workers();
                serve::Daemon daemon(dcfg);
                daemon.registry().load("bench", artifact);
                daemon.start();
                const serve::DaemonClientRun run =
                    serve::runDaemonClients("127.0.0.1",
                                            daemon.port(), "bench",
                                            workload, 2);
                daemon.drain();
                size_t mismatches = 0;
                for (size_t i = 0; i < workload.size(); ++i)
                    if (std::bit_cast<uint64_t>(
                            run.predictions[i]) !=
                        std::bit_cast<uint64_t>(
                            naive.predictions[i]))
                        ++mismatches;
                TextTable dt({"difftuned loopback", "Value",
                              "Notes"});
                dt.addRow(
                    {"throughput",
                     fmtDouble(double(requests) / run.seconds, 0) +
                         " blk/s",
                     "2 connections, wire-framed f64"});
                dt.addRow({"round-trip p50/p95/p99",
                           fmtDouble(run.latency.p50 * 1e6, 0) +
                               " / " +
                               fmtDouble(run.latency.p95 * 1e6, 0) +
                               " / " +
                               fmtDouble(run.latency.p99 * 1e6, 0) +
                               " us",
                           "includes TCP framing"});
                dt.addRow({"errors / bit mismatches",
                           std::to_string(run.errors) + " / " +
                               std::to_string(mismatches),
                           "gate: 0 / 0"});
                std::cout << dt.render();
                if (run.errors != 0 || mismatches != 0) {
                    std::fprintf(stderr,
                                 "FAIL: difftuned loopback run had "
                                 "%llu errors, %zu bit "
                                 "mismatches\n",
                                 (unsigned long long)run.errors,
                                 mismatches);
                    floors_ok = false;
                }
            }

            const unsigned cores =
                std::thread::hardware_concurrency();
            const int threads = int(std::min(4u, cores));
            if (cores < 2) {
                std::cout << "multi-threaded client mode: skipped "
                             "(1-core runner; floor needs >= 2 "
                             "cores)\n";
                return;
            }
            const auto clients = serve::compareAsyncClients(
                artifact, workload, threads, naive);
            TextTable table3({"Submission", "Throughput", "Notes"});
            table3.addRow(
                {"1 client (submit + get)",
                 fmtDouble(double(requests) / clients.singleSeconds,
                           0) +
                     " blk/s",
                 "median pass"});
            table3.addRow(
                {std::to_string(threads) + " clients (submit + get)",
                 fmtDouble(double(requests) / clients.asyncSeconds,
                           0) +
                     " blk/s",
                 fmtDouble(double(requests) / clients.asyncSeconds /
                               threads,
                           0) +
                     " blk/s/thread, median pass"});
            table3.addRow(
                {"aggregate speedup",
                 fmtDouble(clients.speedup, 2) + "x",
                 "median of " + std::to_string(clients.pairs) +
                     " interleaved pairs, " +
                     (smoke ? "smoke floor: 1.5x" : "floor: 1.5x")});
            table3.addRow(
                {"async latency p50/p95/p99",
                 fmtDouble(clients.latency.p50 * 1e6, 0) + " / " +
                     fmtDouble(clients.latency.p95 * 1e6, 0) +
                     " / " +
                     fmtDouble(clients.latency.p99 * 1e6, 0) +
                     " us",
                 "submit-to-get, bit-exact vs naive"});
            std::cout << table3.render();

            if (smoke && clients.speedup < asyncSpeedupFloor) {
                std::fprintf(stderr,
                             "FAIL: async multi-client speedup "
                             "%.2fx is under the %.1fx smoke "
                             "floor\n",
                             clients.speedup, asyncSpeedupFloor);
                floors_ok = false;
            }
        });
    return rc != 0 ? rc : (floors_ok ? 0 : 1);
}
