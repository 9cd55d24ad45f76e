/**
 * @file
 * google-benchmark microbenchmarks for the simulator substrates:
 * XMca, RefMachine, USim and the analytical model, across block
 * sizes. These are throughput benchmarks (not paper artifacts); they
 * document the cost of one f(theta, x) evaluation, which drives the
 * OpenTuner budget and the simulated-dataset collection time.
 *
 * --smoke additionally checks XMca's steady-state extrapolation:
 * timing() must equal timingWithTrace() bit for bit over a generated
 * corpus and tables sampled from SamplingDist::full(), and must beat
 * it there by the floor below (exit 1 otherwise).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_micro_util.hh"

#include "analytical/iaca.hh"
#include "bhive/corpus.hh"
#include "bhive/generator.hh"
#include "hw/default_table.hh"
#include "hw/ref_machine.hh"
#include "mca/xmca.hh"
#include "params/sampling.hh"
#include "usim/usim.hh"

namespace
{

using namespace difftune;

isa::BasicBlock
blockOfSize(int target)
{
    Rng rng(1234 + target);
    isa::BasicBlock block;
    while (int(block.size()) < target) {
        auto chunk =
            bhive::generateBlock(rng, bhive::appProfile(
                                          bhive::App::Clang));
        for (auto &inst : chunk.insts) {
            if (int(block.size()) >= target)
                break;
            block.insts.push_back(inst);
        }
    }
    return block;
}

void
BM_XMcaTiming(benchmark::State &state)
{
    const auto block = blockOfSize(int(state.range(0)));
    const auto table = hw::defaultTable(hw::Uarch::Haswell);
    mca::XMca sim;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.timing(block, table));
    state.SetItemsProcessed(state.iterations() * block.size() * 100);
}
BENCHMARK(BM_XMcaTiming)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void
BM_RefMachineMeasure(benchmark::State &state)
{
    const auto block = blockOfSize(int(state.range(0)));
    hw::RefMachine machine(hw::Uarch::Haswell);
    for (auto _ : state)
        benchmark::DoNotOptimize(machine.measure(block));
    state.SetItemsProcessed(state.iterations() * block.size() * 100);
}
BENCHMARK(BM_RefMachineMeasure)->Arg(4)->Arg(16)->Arg(64);

void
BM_USimTiming(benchmark::State &state)
{
    const auto block = blockOfSize(int(state.range(0)));
    const auto table = hw::defaultTable(hw::Uarch::Haswell);
    usim::USim sim;
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.timing(block, table));
}
BENCHMARK(BM_USimTiming)->Arg(4)->Arg(16);

void
BM_AnalyticalTiming(benchmark::State &state)
{
    const auto block = blockOfSize(int(state.range(0)));
    analytical::XIaca model(hw::Uarch::Haswell);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.timing(block));
}
BENCHMARK(BM_AnalyticalTiming)->Arg(4)->Arg(16);

void
BM_BlockGeneration(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(bhive::generateBlock(
            rng, bhive::appProfile(bhive::App::TensorFlow)));
}
BENCHMARK(BM_BlockGeneration);

// ------------------------------------------- steady-state extrapolation

/**
 * CI floor for timing() (extrapolated) over timingWithTrace() (every
 * iteration simulated and recorded) on the same calls.
 */
constexpr double speedupFloor = 2.0;

/**
 * Seconds for one timing() call per (table, block) pair, or one
 * timingWithTrace() call into @p trace when it is given.
 */
double
gridSeconds(const mca::XMca &sim,
            const std::vector<params::ParamTable> &tables,
            const bhive::Corpus &corpus, mca::Trace *trace)
{
    const auto start = std::chrono::steady_clock::now();
    for (const auto &table : tables) {
        for (const auto &info : corpus.blocks()) {
            benchmark::DoNotOptimize(
                trace ? sim.timingWithTrace(info.block, table, *trace)
                      : sim.timing(info.block, table));
        }
    }
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    return dt.count();
}

/**
 * The --smoke check: bit equality of timing() and timingWithTrace()
 * over a generated corpus x tables drawn from SamplingDist::full(),
 * then their speed ratio over the same grid. Prints both; returns
 * false on any mismatch or a ratio under the floor.
 */
bool
runExtrapolationSmoke()
{
    const auto corpus = bhive::Corpus::generate(300, 0x5afe);
    std::vector<params::ParamTable> tables;
    Rng rng(17);
    const auto dist = params::SamplingDist::full();
    const auto base = hw::defaultTable(hw::Uarch::Haswell);
    for (int i = 0; i < 8; ++i)
        tables.push_back(dist.sample(rng, base));

    const mca::XMca sim;
    mca::Trace trace;
    size_t calls = 0, mismatches = 0;
    for (const auto &table : tables) {
        for (const auto &info : corpus.blocks()) {
            const double fast = sim.timing(info.block, table);
            const double full = sim.timingWithTrace(info.block, table, trace);
            ++calls;
            if (std::bit_cast<uint64_t>(fast) !=
                std::bit_cast<uint64_t>(full))
                ++mismatches;
        }
    }

    // Interleave the two entry points grid pass by grid pass,
    // alternating which goes first, and take the median of the
    // per-pair ratios: host speed drift hits both sides of a pair
    // roughly equally.
    const int pairs = 11;
    std::vector<double> ratios, full_us, fast_us;
    for (int r = 0; r < pairs; ++r) {
        double full_sec = 0.0, fast_sec = 0.0;
        if (r % 2 == 0) {
            full_sec = gridSeconds(sim, tables, corpus, &trace);
            fast_sec = gridSeconds(sim, tables, corpus, nullptr);
        } else {
            fast_sec = gridSeconds(sim, tables, corpus, nullptr);
            full_sec = gridSeconds(sim, tables, corpus, &trace);
        }
        ratios.push_back(full_sec / fast_sec);
        full_us.push_back(full_sec / double(calls) * 1e6);
        fast_us.push_back(fast_sec / double(calls) * 1e6);
    }
    auto median = [](std::vector<double> values) {
        std::sort(values.begin(), values.end());
        return values[values.size() / 2];
    };
    const double ratio = median(ratios);
    std::printf("bench_micro_sim extrapolation: %zu/%zu calls "
                "bit-equal, timingWithTrace %.1f us -> timing %.1f us "
                "per call, speedup %.2fx (floor %.1fx)\n",
                calls - mismatches, calls, median(full_us), median(fast_us),
                ratio, speedupFloor);
    if (mismatches != 0) {
        std::fprintf(stderr,
                     "FAIL: timing() differs from timingWithTrace() "
                     "on %zu of %zu calls\n",
                     mismatches, calls);
        return false;
    }
    if (ratio < speedupFloor) {
        std::fprintf(stderr,
                     "FAIL: timing() speedup %.2fx over "
                     "timingWithTrace() is under the %.1fx floor\n",
                     ratio, speedupFloor);
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    if (smoke && !runExtrapolationSmoke())
        return 1;
    return difftune::bench::runMicroBenchMain(argc, argv);
}
