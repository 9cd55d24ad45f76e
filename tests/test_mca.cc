/**
 * @file
 * Tests for the XMca simulator: stage semantics (dispatch bandwidth,
 * reorder-buffer stalls, dependence latencies, ReadAdvance clipping,
 * port occupancy, store ordering) plus property tests (monotonicity,
 * determinism, trace invariants), and the steady-state extrapolation
 * of timing() checked bit for bit against the full simulation of
 * timingWithTrace().
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "base/random.hh"
#include "bhive/corpus.hh"
#include "hw/default_table.hh"
#include "isa/parse.hh"
#include "mca/xmca.hh"
#include "params/sampling.hh"

namespace difftune::mca
{
namespace
{

using isa::parseBlock;
using params::ParamTable;

/** A neutral table: 1 uop, 1-cycle latency, no ports, dw 4, rob 192. */
ParamTable
neutralTable()
{
    ParamTable table(isa::theIsa().numOpcodes());
    for (auto &inst : table.perOpcode) {
        inst.numMicroOps = 1;
        inst.writeLatency = 1;
    }
    table.dispatchWidth = 4;
    table.reorderBufferSize = 192;
    return table;
}

isa::OpcodeId
op(const char *name)
{
    auto id = isa::theIsa().opcodeByName(name);
    EXPECT_NE(id, isa::invalidOpcode);
    return id;
}

TEST(XMca, EmptyBlockIsZero)
{
    XMca sim;
    EXPECT_EQ(sim.timing(isa::BasicBlock{}, neutralTable()), 0.0);
}

TEST(XMca, DispatchBound)
{
    // Independent single-uop instructions: bounded by DispatchWidth.
    auto block = parseBlock("NOP\nNOP\nNOP\nNOP\n");
    auto table = neutralTable();
    table.perOpcode[op("NOP")].writeLatency = 0;
    XMca sim;
    table.dispatchWidth = 4;
    EXPECT_NEAR(sim.timing(block, table), 1.0, 0.05);
    table.dispatchWidth = 2;
    EXPECT_NEAR(sim.timing(block, table), 2.0, 0.05);
    table.dispatchWidth = 1;
    EXPECT_NEAR(sim.timing(block, table), 4.0, 0.05);
}

TEST(XMca, UopsConsumeDispatchBandwidth)
{
    auto block = parseBlock("NOP\n");
    auto table = neutralTable();
    table.perOpcode[op("NOP")].writeLatency = 0;
    table.perOpcode[op("NOP")].numMicroOps = 8;
    table.dispatchWidth = 4;
    XMca sim;
    EXPECT_NEAR(sim.timing(block, table), 2.0, 0.05);
}

TEST(XMca, DependenceChainLatency)
{
    // add %ebx, %ecx self-chains through %ebx at WriteLatency.
    auto block = parseBlock("ADD32rr %ebx, %ecx\n");
    auto table = neutralTable();
    XMca sim;
    for (int latency : {1, 2, 5, 9}) {
        table.perOpcode[op("ADD32rr")].writeLatency = latency;
        EXPECT_NEAR(sim.timing(block, table), double(latency), 0.1)
            << "latency " << latency;
    }
}

TEST(XMca, ReadAdvanceAcceleratesChains)
{
    auto block = parseBlock("ADD32rr %ebx, %ecx\n");
    auto table = neutralTable();
    table.perOpcode[op("ADD32rr")].writeLatency = 5;
    table.perOpcode[op("ADD32rr")].readAdvance[0] = 3;
    XMca sim;
    EXPECT_NEAR(sim.timing(block, table), 2.0, 0.1);
}

TEST(XMca, ReadAdvanceClipsAtZero)
{
    // Footnote 7: latency - advance clips at zero, never negative.
    auto block = parseBlock("ADD32rr %ebx, %ecx\n");
    auto table = neutralTable();
    table.perOpcode[op("ADD32rr")].writeLatency = 2;
    table.perOpcode[op("ADD32rr")].readAdvance[0] = 50;
    XMca sim;
    // Chain latency 0: bounded by dispatch only (1 uop / 4 wide).
    EXPECT_LE(sim.timing(block, table), 0.5);
}

TEST(XMca, PortOccupancySerializes)
{
    auto block = parseBlock("NOP\n");
    auto table = neutralTable();
    table.perOpcode[op("NOP")].writeLatency = 0;
    table.perOpcode[op("NOP")].portMap[3] = 2;
    XMca sim;
    // One instruction every 2 cycles on port 3.
    EXPECT_NEAR(sim.timing(block, table), 2.0, 0.05);
}

TEST(XMca, JointPortsMustBeFreeTogether)
{
    auto block = parseBlock("NOP\nNOP\n");
    auto table = neutralTable();
    table.perOpcode[op("NOP")].writeLatency = 0;
    table.perOpcode[op("NOP")].portMap[0] = 1;
    table.perOpcode[op("NOP")].portMap[1] = 1;
    XMca sim;
    // Both NOPs need ports 0+1 together: 1 per cycle.
    EXPECT_NEAR(sim.timing(block, table), 2.0, 0.1);
}

TEST(XMca, RobStallsDispatch)
{
    // Independent long-latency loads: with a roomy ROB they pipeline
    // at the dispatch rate; with a tiny ROB only a few can be in
    // flight, so dispatch throttles to the retire rate.
    auto block = parseBlock("MOV64rm 0(%rsi), %rdi\n");
    auto table = neutralTable();
    table.perOpcode[op("MOV64rm")].writeLatency = 20;
    XMca sim;
    table.reorderBufferSize = 200;
    const double roomy = sim.timing(block, table);
    EXPECT_NEAR(roomy, 0.25, 0.3); // dispatch-bound
    table.reorderBufferSize = 4;
    const double cramped = sim.timing(block, table);
    EXPECT_GT(cramped, roomy * 3.0); // ~20/4 cycles per load
}

TEST(XMca, WideInstructionFitsEmptyRob)
{
    auto block = parseBlock("NOP\n");
    auto table = neutralTable();
    table.perOpcode[op("NOP")].numMicroOps = 10;
    table.perOpcode[op("NOP")].writeLatency = 0;
    table.reorderBufferSize = 4; // smaller than the instruction
    XMca sim;
    EXPECT_GT(sim.timing(block, table), 0.0); // must not hang/panic
}

TEST(XMca, StoresIssueInOrder)
{
    auto block = parseBlock(
        "MOV64mr %rbx, 0(%rsi)\n"
        "MOV64mr %rcx, 8(%rsi)\n");
    auto table = neutralTable();
    // Make the first store's data late via a long producer chain.
    auto block2 = parseBlock(
        "IMUL64rr %rbx, %rbx\n"
        "MOV64mr %rbx, 0(%rsi)\n"
        "MOV64mr %rcx, 8(%rsi)\n");
    table.perOpcode[op("IMUL64rr")].writeLatency = 10;
    XMca sim;
    Trace trace;
    sim.timingWithTrace(block2, table, trace);
    // Within each iteration the second store never issues before the
    // first (LSUnit store->store ordering).
    for (size_t i = 0; i + 2 < trace.entries.size(); i += 3)
        EXPECT_LE(trace.entries[i + 1].issued,
                  trace.entries[i + 2].issued);
    (void)block;
}

TEST(XMca, TraceInvariants)
{
    auto block = parseBlock(
        "ADD32rr %ebx, %ecx\n"
        "MOV64rm 8(%rsi), %rdi\n"
        "PUSH64r %rbx\n");
    auto table = neutralTable();
    XMca sim(25);
    Trace trace;
    const double timing = sim.timingWithTrace(block, table, trace);
    EXPECT_EQ(trace.entries.size(), block.size() * 25);
    EXPECT_NEAR(timing, double(trace.totalCycles) / 25.0, 1e-9);
    int64_t prev_dispatch = 0, prev_retire = 0;
    for (const auto &entry : trace.entries) {
        EXPECT_LE(entry.dispatched, entry.issued);
        EXPECT_LE(entry.issued, entry.retired);
        // Program-order dispatch and retire are monotone.
        EXPECT_GE(entry.dispatched, prev_dispatch);
        EXPECT_GE(entry.retired, prev_retire);
        prev_dispatch = entry.dispatched;
        prev_retire = entry.retired;
    }
}

TEST(XMca, Deterministic)
{
    auto block = parseBlock(
        "ADD32rr %ebx, %ecx\nSHR32ri $3, %ebx\nMOV64rm 8(%rsi), %rdi\n");
    auto table = neutralTable();
    XMca sim;
    EXPECT_EQ(sim.timing(block, table), sim.timing(block, table));
}

TEST(XMca, TimingScalesWithIterations)
{
    auto block = parseBlock("ADD32rr %ebx, %ecx\n");
    auto table = neutralTable();
    XMca sim100(100), sim10(10);
    // Steady-state: per-iteration timing roughly independent of the
    // iteration count.
    EXPECT_NEAR(sim100.timing(block, table), sim10.timing(block, table),
                0.5);
}

// ------------------------------------------------------ property sweeps

class LatencyMonotoneTest : public ::testing::TestWithParam<int>
{
};

TEST_P(LatencyMonotoneTest, TimingNonDecreasingInWriteLatency)
{
    auto block = parseBlock(
        "ADD32rr %ebx, %ecx\nSUB32rr %ecx, %ebx\nIMUL32rr %ebx, %ecx\n");
    auto table = neutralTable();
    XMca sim;
    const int latency = GetParam();
    table.perOpcode[op("ADD32rr")].writeLatency = latency;
    const double t1 = sim.timing(block, table);
    table.perOpcode[op("ADD32rr")].writeLatency = latency + 1;
    const double t2 = sim.timing(block, table);
    EXPECT_LE(t1, t2 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Latencies, LatencyMonotoneTest,
                         ::testing::Values(0, 1, 2, 4, 8, 16));

class DispatchMonotoneTest : public ::testing::TestWithParam<int>
{
};

TEST_P(DispatchMonotoneTest, TimingNonIncreasingInDispatchWidth)
{
    auto block = parseBlock(
        "NOP\nNOP\nADD32rr %ebx, %ecx\nMOV32ri $7, %edi\nNOP\n");
    auto table = neutralTable();
    XMca sim;
    table.dispatchWidth = GetParam();
    const double narrow = sim.timing(block, table);
    table.dispatchWidth = GetParam() + 1;
    const double wide = sim.timing(block, table);
    EXPECT_GE(narrow, wide - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, DispatchMonotoneTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(XMca, Figure2Shape)
{
    // The Figure 2 block: shrq $5, 16(%rsp). With the default-like
    // 4 uops, timing should fall as 4/dw and plateau at the store
    // port bound of 1.
    auto block = parseBlock("SHR64mi $5, 0(%rsp)\n");
    auto table = neutralTable();
    auto id = op("SHR64mi");
    table.perOpcode[id].numMicroOps = 4;
    table.perOpcode[id].writeLatency = 2;
    table.perOpcode[id].portMap[4] = 1;
    XMca sim;
    std::vector<double> timings;
    for (int dw = 1; dw <= 10; ++dw) {
        table.dispatchWidth = dw;
        timings.push_back(sim.timing(block, table));
    }
    EXPECT_NEAR(timings[0], 4.0, 0.1); // dw=1
    EXPECT_NEAR(timings[1], 2.0, 0.1); // dw=2
    EXPECT_NEAR(timings[3], 1.0, 0.1); // dw=4
    EXPECT_NEAR(timings[9], 1.0, 0.1); // plateau
}

// ------------------------------------------- steady-state extrapolation

/** Iteration counts around and past the usual repeat points. */
const std::vector<int> gridIterations = {1, 2, 3, 16, 17, 100, 250};

/**
 * FNV-1a digest of the bits of XMca(100).timing() over gridTables() x
 * gridBlocks(), tables outer. Computed with the simulator before
 * steady-state extrapolation and per-call table resolution existed,
 * so it pins both against the original per-iteration simulation.
 * It also pins the block generator and the table samplers the grid
 * is built from: a deliberate change there regenerates it (the
 * failure message prints the new value).
 */
constexpr uint64_t gridDigest = 0x7937e94d3d046207ULL;

/** The equivalence grid's blocks: a generated BHive-style corpus. */
const std::vector<isa::BasicBlock> &
gridBlocks()
{
    static const std::vector<isa::BasicBlock> blocks = [] {
        const auto corpus = bhive::Corpus::generate(300, 0x5eed16);
        std::vector<isa::BasicBlock> out;
        for (const auto &info : corpus.blocks())
            out.push_back(info.block);
        return out;
    }();
    return blocks;
}

/**
 * A hill-climb style neighbour of @p table: each entry is re-drawn
 * with probability 5% within the black-box tuner's search ranges.
 */
ParamTable
mutated(ParamTable table, Rng &rng)
{
    auto redraw = [&rng](double &value, int lo, int hi) {
        if (rng.uniformReal() < 0.05)
            value = double(rng.uniformInt(lo, hi));
    };
    for (auto &inst : table.perOpcode) {
        redraw(inst.numMicroOps, 1, 5);
        redraw(inst.writeLatency, 0, 5);
        for (double &advance : inst.readAdvance)
            redraw(advance, 0, 5);
        for (double &cycles : inst.portMap)
            redraw(cycles, 0, 5);
    }
    redraw(table.dispatchWidth, 1, 10);
    redraw(table.reorderBufferSize, 50, 250);
    return table;
}

/**
 * The equivalence grid's tables: per uarch, its default, a mutated
 * default and a table drawn from SamplingDist::full().
 */
const std::vector<ParamTable> &
gridTables()
{
    static const std::vector<ParamTable> tables = [] {
        std::vector<ParamTable> out;
        Rng rng(16);
        const auto dist = params::SamplingDist::full();
        for (hw::Uarch uarch : hw::allUarches()) {
            const ParamTable base = hw::defaultTable(uarch);
            out.push_back(base);
            out.push_back(mutated(base, rng));
            out.push_back(dist.sample(rng, base));
        }
        return out;
    }();
    return tables;
}

uint64_t
bits(double value)
{
    return std::bit_cast<uint64_t>(value);
}

/**
 * Expect timing() to equal timingWithTrace() bit for bit for
 * @p block under @p table at each of @p iteration_counts. Mismatches
 * are printed until five have been, counting the @p reported ones
 * earlier calls printed.
 * @return the number of mismatches
 */
int
expectSameBits(const isa::BasicBlock &block, const ParamTable &table,
               const std::vector<int> &iteration_counts, int reported = 0)
{
    int mismatches = 0;
    for (int iterations : iteration_counts) {
        XMca sim(iterations);
        Trace trace;
        const double full = sim.timingWithTrace(block, table, trace);
        const double fast = sim.timing(block, table);
        if (bits(fast) == bits(full))
            continue;
        if (reported + mismatches++ < 5) {
            EXPECT_EQ(bits(fast), bits(full))
                << "at " << iterations << " iterations:\n"
                << isa::toString(block);
        }
    }
    return mismatches;
}

TEST(XMcaSteadyState, TimingMatchesFullSimulationOverGrid)
{
    int mismatches = 0;
    for (const ParamTable &table : gridTables())
        for (const isa::BasicBlock &block : gridBlocks())
            mismatches +=
                expectSameBits(block, table, gridIterations, mismatches);
    EXPECT_EQ(mismatches, 0);
}

TEST(XMcaSteadyState, TimingDigestPinned)
{
    XMca sim(100);
    uint64_t digest = 0xcbf29ce484222325ULL;
    for (const ParamTable &table : gridTables())
        for (const isa::BasicBlock &block : gridBlocks())
            digest = (digest ^ bits(sim.timing(block, table))) *
                     0x100000001b3ULL;
    EXPECT_EQ(digest, gridDigest) << "new digest 0x" << std::hex << digest;
}

TEST(XMcaSteadyState, StoreChain)
{
    // A long-latency chain feeds the first store; the second store
    // waits for it, so the store frontier runs ahead of dispatch at
    // every iteration boundary.
    auto block = parseBlock(
        "IMUL64rr %rbx, %rbx\n"
        "MOV64mr %rbx, 0(%rsi)\n"
        "MOV64mr %rcx, 8(%rsi)\n");
    auto table = neutralTable();
    table.perOpcode[op("IMUL64rr")].writeLatency = 10;
    table.perOpcode[op("MOV64mr")].portMap[4] = 1;
    const std::vector<int> counts = {1, 2, 3, 16, 17, 100, 250, 1000};
    EXPECT_EQ(expectSameBits(block, table, counts), 0);
    EXPECT_NEAR(XMca(1000).timing(block, table), 10.0, 0.1);
}

TEST(XMcaSteadyState, PeriodLongerThanOneIteration)
{
    // Two single-uop instructions through a 3-wide dispatch: the
    // bandwidth left at each boundary cycles 1, 2, 0, so the state
    // repeats every 3 iterations, 2 cycles apart.
    auto block = parseBlock("NOP\nNOP\n");
    auto table = neutralTable();
    table.perOpcode[op("NOP")].writeLatency = 0;
    table.dispatchWidth = 3;
    const std::vector<int> counts = {1, 2, 3, 4, 5, 16, 17, 100, 101, 102};
    EXPECT_EQ(expectSameBits(block, table, counts), 0);
    // 200 uops at 3 per cycle: the last dispatches (and retires) in
    // cycle 66.
    EXPECT_EQ(XMca(100).timing(block, table), 0.66);
}

TEST(XMcaSteadyState, SlowRobFillDoesNotRepeatEarly)
{
    // A 2-cycle dependence chain dispatched 4-wide into a 250-entry
    // ROB: the ROB gains ~7/8 of an entry per iteration and only
    // fills after ~290 iterations, so the state changes at every
    // boundary until then.
    auto block = parseBlock("ADD32rr %ebx, %ecx\n");
    auto table = neutralTable();
    table.perOpcode[op("ADD32rr")].writeLatency = 2;
    table.dispatchWidth = 4;
    table.reorderBufferSize = 250;
    EXPECT_EQ(expectSameBits(block, table, {1, 16, 100, 250, 1000}), 0);
    EXPECT_NEAR(XMca(1000).timing(block, table), 2.0, 0.01);
}

} // namespace
} // namespace difftune::mca
