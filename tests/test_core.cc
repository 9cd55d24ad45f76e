/**
 * @file
 * Tests for the DiffTune core: evaluation, the raw-table
 * reparameterization, normalization, masking, the BatchRunner's
 * split optimizer step, and a miniature end-to-end pipeline smoke
 * test.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/difftune.hh"
#include "core/evaluate.hh"
#include "core/ithemal.hh"
#include "core/raw_table.hh"
#include "core/trainer.hh"
#include "hw/default_table.hh"
#include "isa/parse.hh"
#include "mca/xmca.hh"

namespace difftune::core
{
namespace
{

const bhive::Corpus &
testCorpus()
{
    static const bhive::Corpus corpus = bhive::Corpus::generate(300, 77);
    return corpus;
}

const bhive::Dataset &
testDataset()
{
    static const bhive::Dataset dataset(testCorpus(),
                                        hw::Uarch::Haswell);
    return dataset;
}

/** Every element of @p tensors, tensor by tensor, as raw bits. */
template <typename Tensors>
std::vector<uint64_t>
flatBits(const Tensors &tensors)
{
    std::vector<uint64_t> out;
    for (size_t t = 0; t < tensors.count(); ++t)
        for (double v : tensors[int(t)].data) {
            uint64_t u = 0;
            std::memcpy(&u, &v, sizeof(u));
            out.push_back(u);
        }
    return out;
}

TEST(BatchRunner, ParallelApplyMatchesSerialStep)
{
    // ~31k elements, above the size apply() splits over its workers:
    // the split clip rescale and Adam step must match Grads::clipL2
    // plus a serial Adam::step bit for bit, clipped or not.
    nn::ParamSet params;
    params.add(300, 100);
    params.add(7, 3);
    params.add(1000, 1);
    Rng rng(91);
    for (size_t t = 0; t < params.count(); ++t)
        params[int(t)].uniformInit(rng, 1.0);
    nn::ParamSet serial = params;

    BatchRunner runner(params, 4);
    nn::Adam adam(0.01), serial_adam(0.01);
    for (int step = 0; step < 4; ++step) {
        runner.runBatch(0, 20, [&](size_t i, nn::Graph &, nn::Grads &g) {
            for (size_t t = 0; t < g.count(); ++t) {
                std::vector<double> &data = g[int(t)].data;
                for (size_t e = 0; e < data.size(); ++e)
                    data[e] += std::sin(double(i * 7 + e * 3 + t + step));
            }
            return 0.0;
        });
        const double clip = step == 2 ? 0.0 : step == 3 ? 1e9 : 5.0;
        nn::Grads expect = runner.batchGrads();
        if (clip > 0.0)
            expect.clipL2(clip);
        serial_adam.step(serial, expect);
        runner.apply(params, adam, clip);
        EXPECT_EQ(flatBits(expect), flatBits(runner.batchGrads()))
            << "step " << step;
        EXPECT_EQ(flatBits(serial), flatBits(params)) << "step " << step;
    }
}

TEST(Evaluate, MatchesManualMape)
{
    const auto &dataset = testDataset();
    mca::XMca sim;
    auto table = hw::defaultTable(hw::Uarch::Haswell);
    EvalResult result = evaluate(sim, table, dataset, dataset.test());
    ASSERT_EQ(result.predictions.size(), dataset.test().size());

    double manual = 0.0;
    for (size_t i = 0; i < dataset.test().size(); ++i) {
        const auto &entry = dataset.test()[i];
        manual += std::fabs(result.predictions[i] - entry.timing) /
                  entry.timing;
    }
    manual /= double(dataset.test().size());
    EXPECT_NEAR(result.error, manual, 1e-12);
    EXPECT_GT(result.kendallTau, 0.3);
}

TEST(Evaluate, PredictionsMatchSimulator)
{
    const auto &dataset = testDataset();
    mca::XMca sim;
    auto table = hw::defaultTable(hw::Uarch::Haswell);
    EvalResult result = evaluate(sim, table, dataset, dataset.valid());
    for (size_t i = 0; i < 5 && i < dataset.valid().size(); ++i) {
        const auto &entry = dataset.valid()[i];
        EXPECT_DOUBLE_EQ(result.predictions[i],
                         sim.timing(dataset.block(entry), table));
    }
}

TEST(Normalizer, ScalesFollowSamplingDist)
{
    ParamNormalizer norm(params::SamplingDist::full());
    EXPECT_EQ(norm.paramDim(), params::perOpcodeParams + 2);
    EXPECT_NEAR(norm.perOpcode[0], 1.0 / 9.0, 1e-12);  // uops 1..10
    EXPECT_NEAR(norm.perOpcode[1], 1.0 / 5.0, 1e-12);  // wl 0..5
    EXPECT_NEAR(norm.globals[1], 1.0 / 200.0, 1e-12);  // rob 50..250
}

TEST(RawTable, RoundTripsActualValues)
{
    params::ParamTable init(isa::theIsa().numOpcodes());
    init.dispatchWidth = 6;
    init.reorderBufferSize = 120;
    init.perOpcode[4].writeLatency = 3;
    init.perOpcode[4].numMicroOps = 2;
    init.perOpcode[9].portMap[7] = 2;

    ParamNormalizer norm(params::SamplingDist::full());
    RawTable raw(init, norm);
    params::ParamTable back = raw.toParamTable();
    EXPECT_NEAR(back.dispatchWidth, 6, 1e-9);
    EXPECT_NEAR(back.reorderBufferSize, 120, 1e-9);
    EXPECT_NEAR(back.perOpcode[4].writeLatency, 3, 1e-9);
    EXPECT_NEAR(back.perOpcode[4].numMicroOps, 2, 1e-9);
    EXPECT_NEAR(back.perOpcode[9].portMap[7], 2, 1e-9);
}

TEST(RawTable, AbsReparameterization)
{
    // Negative raw values map to the same actual values as positive.
    params::ParamTable init(isa::theIsa().numOpcodes());
    ParamNormalizer norm(params::SamplingDist::full());
    RawTable raw(init, norm);
    // Force a raw entry negative via params() and check |raw| + lb.
    raw.params()[0].at(0, 1) = -2.5; // WriteLatency raw of opcode 0
    EXPECT_NEAR(raw.toParamTable().perOpcode[0].writeLatency, 2.5,
                1e-12);
    raw.params()[1].data[0] = -3.0; // DispatchWidth raw
    EXPECT_NEAR(raw.toParamTable().dispatchWidth, 4.0, 1e-12);
}

TEST(RawTable, EnforceMaskRestoresBase)
{
    params::ParamTable base(isa::theIsa().numOpcodes());
    base.perOpcode[2].numMicroOps = 3;
    base.dispatchWidth = 4;
    params::ParamTable init(base);
    init.perOpcode[2].numMicroOps = 7;
    init.perOpcode[2].writeLatency = 5;
    init.dispatchWidth = 9;

    ParamNormalizer norm(params::SamplingDist::writeLatencyOnly());
    RawTable raw(init, norm);
    raw.enforceMask(params::ParamMask::writeLatencyOnly(), base);
    params::ParamTable result = raw.toParamTable();
    EXPECT_NEAR(result.perOpcode[2].numMicroOps, 3, 1e-9);
    EXPECT_NEAR(result.dispatchWidth, 4, 1e-9);
    EXPECT_NEAR(result.perOpcode[2].writeLatency, 5, 1e-9); // kept
}

TEST(RawTable, ParamInputsShapeAndGradients)
{
    params::ParamTable init(isa::theIsa().numOpcodes());
    ParamNormalizer norm(params::SamplingDist::full());
    RawTable raw(init, norm);

    auto block = isa::parseBlock("ADD32rr %ebx, %ecx\nNOP\n");
    nn::Grads grads(raw.params());
    nn::Graph graph;
    auto inputs = raw.paramInputs(graph, block, &grads);
    ASSERT_EQ(inputs.size(), 2u);
    EXPECT_EQ(graph.value(inputs[0]).rows, norm.paramDim());

    // Backprop a loss touching instruction 0's inputs: the gradient
    // must land in the raw per-opcode matrix row of its opcode.
    nn::Var loss = graph.lossMse(graph.slice(inputs[0], 1, 1), 1.0);
    graph.backward(loss);
    const auto add_op = isa::theIsa().opcodeByName("ADD32rr");
    double row_grad = 0.0;
    for (int c = 0; c < params::perOpcodeParams; ++c)
        row_grad += std::fabs(grads[0].at(int(add_op), c));
    EXPECT_GT(row_grad, 0.0);
}

TEST(ConstParamInputs, MatchTableValues)
{
    params::ParamTable table(isa::theIsa().numOpcodes());
    const auto add_op = isa::theIsa().opcodeByName("ADD32rr");
    table.perOpcode[add_op].writeLatency = 5.0;
    table.dispatchWidth = 10.0;
    ParamNormalizer norm(params::SamplingDist::full());

    nn::Graph graph;
    auto block = isa::parseBlock("ADD32rr %ebx, %ecx\n");
    auto inputs = constParamInputs(graph, table, block, norm);
    const auto &v = graph.value(inputs[0]);
    // WriteLatency 5 normalized by 1/5 -> soft-clamped ~0.83.
    EXPECT_NEAR(v.data[1], 1.25 * std::tanh(1.0 / 1.25), 1e-9);
    // DispatchWidth (10-1)/9 = 1 -> same clamp value.
    EXPECT_NEAR(v.data[params::perOpcodeParams], v.data[1], 1e-9);
}

TEST(Ithemal, TrainsAndBeatsTrivialBaseline)
{
    IthemalConfig cfg;
    cfg.model.hidden = 24;
    cfg.model.embedDim = 16;
    cfg.model.tokenLayers = 1;
    cfg.model.blockLayers = 1;
    cfg.epochs = 14;
    Ithemal ithemal(testDataset(), cfg);
    ithemal.train();
    EvalResult result = ithemal.evaluate(testDataset().test());

    // Baseline: always predict the train-set mean timing. The tiny
    // model on the tiny corpus (far below Table IV scale) must still
    // clearly beat it, both in error and in ordering.
    double mean_timing = 0.0;
    for (const auto &entry : testDataset().train())
        mean_timing += entry.timing;
    mean_timing /= double(testDataset().train().size());
    std::vector<double> trivial(testDataset().test().size(),
                                mean_timing);
    EvalResult trivial_eval =
        evaluatePredictions(std::move(trivial), testDataset().test());
    EXPECT_LT(result.error, 0.8 * trivial_eval.error);
    EXPECT_GT(result.kendallTau, 0.40);
}

TEST(DiffTune, MiniPipelineImprovesOverRandom)
{
    DiffTuneConfig cfg;
    cfg.model.hidden = 16;
    cfg.model.embedDim = 12;
    cfg.model.tokenLayers = 1;
    cfg.model.blockLayers = 1;
    cfg.simulatedMultiple = 3;
    cfg.surrogateLoops = 3;
    cfg.tableEpochs = 12;
    cfg.refineRounds = 1;
    cfg.snapshotEvery = 4;
    cfg.seed = 3;

    mca::XMca sim;
    auto base = hw::defaultTable(hw::Uarch::Haswell);
    DiffTune difftune(sim, testDataset(), base, cfg);
    DiffTuneResult result = difftune.run();

    // A random table from the sampling distribution is far worse than
    // whatever the pipeline learned.
    Rng rng(123);
    auto random_table = cfg.dist.sample(rng, base);
    EvalResult random_eval =
        evaluate(sim, random_table, testDataset(), testDataset().test());
    EvalResult learned_eval =
        evaluate(sim, result.learned, testDataset(), testDataset().test());
    EXPECT_LT(learned_eval.error, random_eval.error);
    EXPECT_GT(result.simulatorEvals, 0);
    EXPECT_LT(result.surrogateFidelity, 1.0);

    // Extraction produced a valid integer table.
    auto flat = result.learned.flatten();
    auto bounds = params::flatLowerBounds(result.learned.numOpcodes());
    for (size_t i = 0; i < flat.size(); ++i) {
        EXPECT_GE(flat[i], bounds[i]);
        EXPECT_EQ(flat[i], std::round(flat[i]));
    }
}

TEST(DiffTune, MaskedRunKeepsBaseParams)
{
    DiffTuneConfig cfg;
    cfg.model.hidden = 12;
    cfg.model.embedDim = 8;
    cfg.model.tokenLayers = 1;
    cfg.model.blockLayers = 1;
    cfg.simulatedMultiple = 2;
    cfg.surrogateLoops = 2;
    cfg.tableEpochs = 4;
    cfg.refineRounds = 0;
    cfg.snapshotEvery = 2;
    cfg.dist = params::SamplingDist::writeLatencyOnly();
    cfg.seed = 5;

    mca::XMca sim;
    auto base = hw::defaultTable(hw::Uarch::Haswell);
    DiffTune difftune(sim, testDataset(), base, cfg);
    DiffTuneResult result = difftune.run();

    EXPECT_EQ(result.learned.dispatchWidth, base.dispatchWidth);
    for (size_t op = 0; op < base.numOpcodes(); ++op) {
        EXPECT_EQ(result.learned.perOpcode[op].numMicroOps,
                  std::max(1.0, std::round(base.perOpcode[op]
                                               .numMicroOps)));
        EXPECT_EQ(result.learned.perOpcode[op].portMap,
                  base.perOpcode[op].portMap);
    }
}

} // namespace
} // namespace difftune::core
