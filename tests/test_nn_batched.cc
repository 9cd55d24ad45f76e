/**
 * @file
 * Tests for the batched forward execution mode (nn/batched.hh).
 *
 * The contract under test:
 *
 *  - batched predictions are bit-identical to running each block
 *    through its own autograd Graph — for any batch size,
 *    submission order and mixture of ragged block/instruction
 *    lengths (the per-lane length-masking path);
 *  - batches reuse the executor's scratch: interleaving batches of
 *    different shapes through one BatchedForward never changes a
 *    result;
 *  - the instruction memo (surrogate::InstHiddenCache) is keyed by
 *    token sequence and may be shared by concurrent executors
 *    without changing a bit.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <thread>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "bhive/corpus.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "isa/parse.hh"
#include "nn/batched.hh"
#include "surrogate/model.hh"

namespace difftune
{
namespace
{

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

surrogate::ModelConfig
testConfig(int param_dim, int token_layers = 1, int block_layers = 2)
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 12;
    cfg.tokenLayers = token_layers;
    cfg.blockLayers = block_layers;
    cfg.paramDim = param_dim;
    cfg.seed = 0xba7c4;
    return cfg;
}

/** Ragged block texts: 1..5 instructions, varying token counts. */
const std::vector<std::string> &
raggedBlocks()
{
    static const std::vector<std::string> blocks = {
        "NOP\n",
        "MOV64rm 8(%rsi), %rdi\nADD64rr %rdi, %rbx\n"
        "IMUL64rr %rbx, %rcx\nCMP64rr %rcx, %rdx\nPUSH64r %rbx\n",
        "ADD32rr %ebx, %ecx\n",
        "PUSH64r %rbx\nPOP64r %rcx\nADD32rr %ebx, %ecx\n",
        "IMUL64rr %rbx, %rcx\nNOP\n",
    };
    return blocks;
}

std::vector<surrogate::EncodedBlock>
encodeAll(const std::vector<std::string> &texts)
{
    std::vector<surrogate::EncodedBlock> encoded;
    for (const auto &text : texts)
        encoded.push_back(
            surrogate::encodeBlock(isa::parseBlock(text)));
    return encoded;
}

std::vector<double>
batchedHeads(const surrogate::Model &model,
             const std::vector<surrogate::EncodedBlock> &encoded)
{
    nn::BatchedForward bf(model.params());
    std::vector<const surrogate::EncodedBlock *> blocks;
    for (const auto &e : encoded)
        blocks.push_back(&e);
    std::vector<double> out;
    model.predictBatch(bf, blocks, {}, out);
    return out;
}

TEST(NnBatched, MatchesSequentialBitExactRagged)
{
    const surrogate::Model model(testConfig(0),
                                 isa::theVocab().size());
    const auto encoded = encodeAll(raggedBlocks());
    const auto batched = batchedHeads(model, encoded);
    ASSERT_EQ(batched.size(), encoded.size());
    for (size_t i = 0; i < encoded.size(); ++i) {
        EXPECT_TRUE(sameBits(batched[i], model.predict(encoded[i])))
            << "block " << i;
    }
}

TEST(NnBatched, BatchOfOneMatchesSequential)
{
    const surrogate::Model model(testConfig(0, 2, 1),
                                 isa::theVocab().size());
    for (const auto &text : raggedBlocks()) {
        const auto encoded = encodeAll({text});
        const auto batched = batchedHeads(model, encoded);
        ASSERT_EQ(batched.size(), 1u);
        EXPECT_TRUE(sameBits(batched[0], model.predict(encoded[0])));
    }
}

TEST(NnBatched, EmptyBatchIsANoOp)
{
    const surrogate::Model model(testConfig(0),
                                 isa::theVocab().size());
    nn::BatchedForward bf(model.params());
    std::vector<double> out{1.0, 2.0};
    model.predictBatch(bf, {}, {}, out);
    EXPECT_TRUE(out.empty());
}

TEST(NnBatched, SubmissionOrderDoesNotChangeBits)
{
    const surrogate::Model model(testConfig(0),
                                 isa::theVocab().size());
    const auto encoded = encodeAll(raggedBlocks());
    const auto forward = batchedHeads(model, encoded);
    std::vector<surrogate::EncodedBlock> reversed(encoded.rbegin(),
                                                  encoded.rend());
    const auto backward = batchedHeads(model, reversed);
    ASSERT_EQ(forward.size(), backward.size());
    for (size_t i = 0; i < forward.size(); ++i)
        EXPECT_TRUE(sameBits(forward[i],
                             backward[forward.size() - 1 - i]))
            << "block " << i;
}

TEST(NnBatched, ScratchReuseAcrossDifferentShapes)
{
    const surrogate::Model model(testConfig(0),
                                 isa::theVocab().size());
    const auto encoded = encodeAll(raggedBlocks());
    std::vector<const surrogate::EncodedBlock *> all;
    for (const auto &e : encoded)
        all.push_back(&e);

    nn::BatchedForward bf(model.params());
    std::vector<double> first, again, one;
    model.predictBatch(bf, all, {}, first);
    // A different shape in between (batch of one, longest block)...
    model.predictBatch(bf, {all[1]}, {}, one);
    // ...must not perturb a rerun of the original batch.
    model.predictBatch(bf, all, {}, again);
    ASSERT_EQ(first.size(), again.size());
    EXPECT_TRUE(sameBits(one[0], first[1]));
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_TRUE(sameBits(first[i], again[i])) << "block " << i;
}

TEST(NnBatched, SurrogateModeMatchesSequentialBitExact)
{
    const core::ParamNormalizer norm(params::SamplingDist::full());
    const surrogate::Model model(testConfig(norm.paramDim()),
                                 isa::theVocab().size());
    const params::ParamTable table =
        hw::defaultTable(hw::Uarch::Haswell);

    std::vector<isa::BasicBlock> blocks;
    std::vector<surrogate::EncodedBlock> encoded;
    for (const auto &text : raggedBlocks()) {
        blocks.push_back(isa::parseBlock(text));
        encoded.push_back(surrogate::encodeBlock(blocks.back()));
    }

    // Per-opcode parameter columns, as the serving engine feeds them.
    std::vector<nn::Tensor> per_opcode;
    for (size_t op = 0; op < table.numOpcodes(); ++op)
        per_opcode.push_back(core::opcodeParamInput(
            table, isa::OpcodeId(op), norm));
    std::vector<const surrogate::EncodedBlock *> batch;
    std::vector<std::vector<const nn::Tensor *>> inst_params;
    for (size_t b = 0; b < blocks.size(); ++b) {
        batch.push_back(&encoded[b]);
        inst_params.emplace_back();
        for (const auto &inst : blocks[b].insts)
            inst_params.back().push_back(
                &per_opcode[size_t(inst.opcode)]);
    }

    nn::BatchedForward bf(model.params());
    std::vector<double> batched;
    model.predictBatch(bf, batch, inst_params, batched);

    for (size_t b = 0; b < blocks.size(); ++b) {
        nn::Graph graph;
        nn::Ctx ctx{graph, model.params(), nullptr};
        auto inputs =
            core::constParamInputs(graph, table, blocks[b], norm);
        const double expected = graph.scalarValue(
            model.forward(ctx, encoded[b], inputs));
        EXPECT_TRUE(sameBits(batched[b], expected)) << "block " << b;
    }
}

TEST(NnBatched, InstMemoKeysByTokenSequence)
{
    // The tokenizer folds immediates and displacements into CONST /
    // MEM, so instructions that differ only there share one token
    // sequence: one lane within a batch, one memo entry across
    // batches, and the second forward runs no token lane.
    const surrogate::Model model(testConfig(0),
                                 isa::theVocab().size());
    nn::BatchedForward bf(model.params());
    const std::pair<const char *, const char *> twins[] = {
        {"ADD64ri $1, %rax\n", "ADD64ri $2, %rax\n"},
        {"MOV64rm 8(%rsi), %rdi\n", "MOV64rm 16(%rsi), %rdi\n"},
    };
    for (const auto &[first, second] : twins) {
        const auto encoded = encodeAll({first, second});
        ASSERT_EQ(encoded[0], encoded[1]) << first;
        std::vector<double> heads;
        const surrogate::TokenLevelCounts both =
            model.predictBatch(bf, {&encoded[0], &encoded[1]}, {}, heads);
        EXPECT_EQ(both.tokenLanes, 1u) << first;
        EXPECT_EQ(both.instHits, 0u) << first;

        surrogate::InstHiddenCache memo;
        const surrogate::TokenLevelCounts cold =
            model.predictBatch(bf, {&encoded[0]}, {}, heads, &memo);
        EXPECT_EQ(cold.tokenLanes, 1u) << first;
        EXPECT_EQ(cold.instHits, 0u) << first;
        EXPECT_EQ(memo.size(), 1u) << first;
        const surrogate::TokenLevelCounts warm =
            model.predictBatch(bf, {&encoded[1]}, {}, heads, &memo);
        EXPECT_EQ(warm.tokenLanes, 0u) << second;
        EXPECT_EQ(warm.instHits, 1u) << second;
        EXPECT_EQ(memo.size(), 1u) << second;
        EXPECT_TRUE(sameBits(heads[0], model.predict(encoded[1])))
            << second;
    }
}

TEST(NnBatched, SharedInstMemoAcrossThreadsIsBitExact)
{
    // One memo shared by four executors on one snapshot, as a
    // serving engine shares it across its dispatchers: each thread
    // runs overlapping block sets in its own order for several
    // rounds, probing and publishing concurrently, and every head
    // must equal the memo-less forward bit for bit.
    const core::ParamNormalizer norm(params::SamplingDist::full());
    auto model = std::make_shared<const surrogate::Model>(
        testConfig(norm.paramDim()), isa::theVocab().size());
    const params::ParamTable table =
        hw::defaultTable(hw::Uarch::Haswell);
    std::vector<nn::Tensor> per_opcode;
    for (size_t op = 0; op < table.numOpcodes(); ++op)
        per_opcode.push_back(core::opcodeParamInput(
            table, isa::OpcodeId(op), norm));

    const bhive::Corpus corpus = bhive::Corpus::generate(40, 0x3e3);
    std::vector<surrogate::EncodedBlock> encoded;
    std::vector<std::vector<const nn::Tensor *>> columns;
    for (size_t i = 0; i < corpus.size(); ++i) {
        encoded.push_back(surrogate::encodeBlock(corpus[i].block));
        columns.emplace_back();
        for (const auto &inst : corpus[i].block.insts)
            columns.back().push_back(
                &per_opcode[size_t(inst.opcode)]);
    }
    const auto snapshot = surrogate::makeWeightSnapshot(model);
    std::vector<double> expected;
    {
        std::vector<const surrogate::EncodedBlock *> all;
        for (const auto &e : encoded)
            all.push_back(&e);
        nn::BatchedForward bf(snapshot);
        model->predictBatch(bf, all, columns, expected);
    }

    constexpr int kThreads = 4;
    constexpr int kRounds = 6;
    // Executors bind on this thread, as an engine builds its own.
    std::vector<std::unique_ptr<nn::BatchedForward>> executors;
    for (int t = 0; t < kThreads; ++t)
        executors.push_back(
            std::make_unique<nn::BatchedForward>(snapshot));
    surrogate::InstHiddenCache memo;
    std::atomic<int> mismatches{0};
    std::atomic<uint64_t> hits{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(0x5eed + uint64_t(t));
            for (int round = 0; round < kRounds; ++round) {
                // Two thirds of the corpus, a different two thirds
                // per thread and round, shuffled.
                std::vector<size_t> picks;
                for (size_t i = 0; i < encoded.size(); ++i)
                    if ((i + size_t(t + round)) % 3 != 0)
                        picks.push_back(i);
                rng.shuffle(picks);
                std::vector<const surrogate::EncodedBlock *> batch;
                std::vector<std::vector<const nn::Tensor *>> params;
                for (size_t i : picks) {
                    batch.push_back(&encoded[i]);
                    params.push_back(columns[i]);
                }
                std::vector<double> heads;
                const surrogate::TokenLevelCounts counts =
                    model->predictBatch(*executors[size_t(t)], batch,
                                        params, heads, &memo);
                hits += counts.instHits;
                for (size_t k = 0; k < picks.size(); ++k)
                    if (!sameBits(heads[k], expected[picks[k]]))
                        ++mismatches;
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_GT(memo.size(), 0u);
    EXPECT_GT(hits.load(), 0u);
}

} // namespace
} // namespace difftune
