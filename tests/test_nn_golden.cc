/**
 * @file
 * Golden-regression net for the nn/ execution core.
 *
 * The fused-op/arena rewrite of the autograd tape must not change a
 * single bit of the numerics. This suite locks them in:
 *
 *  - surrogate predictions (Ithemal mode and paramDim > 0 mode), a
 *    5-step training-loss trajectory with a digest of its last
 *    batch gradient, and a 3-step parameter-table trajectory are
 *    compared bit-exactly against
 *    tests/golden/nn_numerics.txt, which was generated with the
 *    pre-rewrite node-per-op engine (PR 2 tree) and is regenerated
 *    only deliberately (DIFFTUNE_REGEN_GOLDEN=1);
 *  - a checkpoint round-trip through the fused-op graphs must
 *    reproduce the in-memory predictions exactly;
 *  - the fused-op trainer must produce bit-identical losses and
 *    gradients for 1, 2 and 4 workers (the training-side analogue of
 *    the serve worker-invariance test);
 *  - batches of more gradient blocks than workers must give
 *    bit-identical losses, gradients and weights for 1, 3 and 4
 *    workers, and a smoke-scale DiffTune::run on such batches must
 *    learn the same bits.
 *
 * Golden doubles are stored as raw IEEE-754 bit patterns; equality is
 * exact (0 ulp), which is achievable because the fused kernels
 * replicate the reference per-element operation order.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/difftune.hh"
#include "core/raw_table.hh"
#include "core/trainer.hh"
#include "hw/default_table.hh"
#include "io/checkpoint.hh"
#include "isa/parse.hh"
#include "mca/xmca.hh"
#include "nn/batched.hh"
#include "nn/optim.hh"
#include "params/sampling.hh"
#include "surrogate/model.hh"

#ifndef DIFFTUNE_GOLDEN_DIR
#define DIFFTUNE_GOLDEN_DIR "tests/golden"
#endif

namespace difftune
{
namespace
{

constexpr const char *goldenPath =
    DIFFTUNE_GOLDEN_DIR "/nn_numerics.txt";

/**
 * Where a regen (DIFFTUNE_REGEN_GOLDEN=1) writes. Overridable with
 * DIFFTUNE_GOLDEN_OUT so tools/golden_regen_check.sh can regenerate
 * into a temp file and diff against the committed golden without
 * touching the source tree.
 */
std::string
goldenOutPath()
{
    const char *env = std::getenv("DIFFTUNE_GOLDEN_OUT");
    return env && *env ? env : goldenPath;
}

uint64_t
bits(double v)
{
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** Fixed workload: block texts spanning 1..5 instructions. */
const std::vector<std::string> &
goldenBlocks()
{
    static const std::vector<std::string> blocks = {
        "NOP\n",
        "ADD32rr %ebx, %ecx\n",
        "IMUL64rr %rbx, %rcx\nNOP\n",
        "MOV64rm 8(%rsi), %rdi\nADD64rr %rdi, %rbx\n",
        "PUSH64r %rbx\nPOP64r %rcx\nADD32rr %ebx, %ecx\n",
        "MOV64rm 8(%rsi), %rdi\nADD64rr %rdi, %rbx\n"
        "IMUL64rr %rbx, %rcx\nCMP64rr %rcx, %rdx\nPUSH64r %rbx\n",
    };
    return blocks;
}

const std::vector<double> &
goldenTargets()
{
    static const std::vector<double> targets = {1.0, 3.0, 0.5,
                                                2.0, 1.5, 2.5};
    return targets;
}

std::vector<surrogate::EncodedBlock>
encodeAll()
{
    std::vector<surrogate::EncodedBlock> encoded;
    for (const auto &text : goldenBlocks())
        encoded.push_back(
            surrogate::encodeBlock(isa::parseBlock(text)));
    return encoded;
}

surrogate::ModelConfig
goldenConfig(int param_dim)
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 12;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 2;
    cfg.paramDim = param_dim;
    cfg.seed = 0xd1ff;
    return cfg;
}

/** A deterministic non-trivial parameter table. */
params::ParamTable
goldenTable()
{
    params::ParamTable table(isa::theIsa().numOpcodes());
    for (size_t op = 0; op < table.numOpcodes(); ++op) {
        auto &inst = table.perOpcode[op];
        inst.numMicroOps = 1.0 + double(op % 4);
        inst.writeLatency = double((op * 7) % 6);
        for (size_t i = 0; i < inst.readAdvance.size(); ++i)
            inst.readAdvance[i] = double((op + i) % 5);
        for (size_t i = 0; i < inst.portMap.size(); ++i)
            inst.portMap[i] = double((op + 3 * i) % 3);
    }
    table.dispatchWidth = 4.0;
    table.reorderBufferSize = 120.0;
    return table;
}

/** Predictions of the paramDim = 0 (Ithemal-mode) model. */
std::vector<double>
ithemalPredictions()
{
    surrogate::Model model(goldenConfig(0), isa::theVocab().size());
    std::vector<double> preds;
    for (const auto &encoded : encodeAll())
        preds.push_back(model.predict(encoded));
    return preds;
}

/** Predictions of a paramDim > 0 surrogate fed by @p model. */
std::vector<double>
surrogatePredictions(const surrogate::Model &model,
                     const params::ParamTable &table,
                     const core::ParamNormalizer &norm)
{
    std::vector<double> preds;
    for (const auto &text : goldenBlocks()) {
        const isa::BasicBlock block = isa::parseBlock(text);
        nn::Graph graph;
        nn::Ctx ctx{graph, model.params(), nullptr};
        auto inputs = constParamInputs(graph, table, block, norm);
        nn::Var pred = graph.exp(model.forward(
            ctx, surrogate::encodeBlock(block), inputs));
        preds.push_back(graph.scalarValue(pred));
    }
    return preds;
}

/**
 * A 5-step Ithemal-style trajectory: one full batch per step on two
 * workers, Adam with gradient clipping — the BatchRunner path every
 * trainer uses.
 */
std::vector<double>
trainingTrajectory(int workers, nn::Grads *final_grads = nullptr)
{
    surrogate::Model model(goldenConfig(0), isa::theVocab().size());
    const auto encoded = encodeAll();
    const auto &targets = goldenTargets();

    nn::Adam adam(0.01);
    core::BatchRunner runner(model.params(), workers);
    std::vector<double> losses;
    for (int step = 0; step < 5; ++step) {
        const double loss = runner.runBatch(
            0, encoded.size(),
            [&](size_t i, nn::Graph &g, nn::Grads &grads) {
                nn::Ctx ctx{g, model.params(), &grads};
                nn::Var pred =
                    g.exp(model.forward(ctx, encoded[i], {}));
                nn::Var l = g.lossMape(pred, targets[i], 0.05);
                g.backward(l);
                return g.scalarValue(l);
            });
        if (final_grads && step == 4)
            final_grads->addFrom(runner.batchGrads());
        runner.apply(model.params(), adam, 5.0);
        losses.push_back(loss);
    }
    return losses;
}

/**
 * A 3-step parameter-table trajectory: gradients flow through the
 * trainable RawTable inputs into a frozen surrogate — DiffTune's
 * phase 4 and the raw_table soft-clamp fusion path.
 */
std::vector<double>
tableTrajectory()
{
    const core::ParamNormalizer norm(params::SamplingDist::full());
    surrogate::Model model(goldenConfig(norm.paramDim()),
                           isa::theVocab().size());
    core::RawTable raw(goldenTable(), norm);
    const auto &targets = goldenTargets();

    std::vector<isa::BasicBlock> blocks;
    std::vector<surrogate::EncodedBlock> encoded;
    for (const auto &text : goldenBlocks()) {
        blocks.push_back(isa::parseBlock(text));
        encoded.push_back(surrogate::encodeBlock(blocks.back()));
    }

    nn::Adam adam(0.05);
    core::BatchRunner runner(raw.params(), 2);
    std::vector<double> losses;
    for (int step = 0; step < 3; ++step) {
        const double loss = runner.runBatch(
            0, blocks.size(),
            [&](size_t i, nn::Graph &g, nn::Grads &grads) {
                auto inputs = raw.paramInputs(g, blocks[i], &grads);
                nn::Ctx ctx{g, model.params(), nullptr};
                nn::Var pred =
                    g.exp(model.forward(ctx, encoded[i], inputs));
                nn::Var l = g.lossMape(pred, targets[i], 0.05);
                g.backward(l);
                return g.scalarValue(l);
            });
        runner.apply(raw.params(), adam, 1.0);
        losses.push_back(loss);
    }
    return losses;
}

/**
 * FNV-1a-64 over the IEEE-754 bit patterns of every element of
 * @p grads, tensor by tensor in ParamSet order, each element's 8
 * bytes least significant first.
 */
uint64_t
gradDigest(const nn::Grads &grads)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (size_t p = 0; p < grads.count(); ++p)
        for (double value : grads[int(p)].data)
            for (int byte = 0; byte < 8; ++byte) {
                hash ^= (bits(value) >> (8 * byte)) & 0xff;
                hash *= 0x100000001b3ULL;
            }
    return hash;
}

/**
 * All golden values, keyed "section:index", plus
 * train_grad_digest: gradDigest of the training trajectory's step-4
 * batch gradient, which pins the weight-gradient bits the losses
 * alone do not (Adam's first step sees only each element's sign).
 * Its top 53 bits are stored, so the double holds them exactly.
 */
std::map<std::string, double>
computeAll()
{
    std::map<std::string, double> out;
    auto put = [&out](const char *section,
                      const std::vector<double> &values) {
        for (size_t i = 0; i < values.size(); ++i)
            out[std::string(section) + ":" + std::to_string(i)] =
                values[i];
    };
    put("ithemal_pred", ithemalPredictions());
    {
        const core::ParamNormalizer norm(params::SamplingDist::full());
        surrogate::Model model(goldenConfig(norm.paramDim()),
                               isa::theVocab().size());
        put("surrogate_pred",
            surrogatePredictions(model, goldenTable(), norm));
    }
    {
        surrogate::Model probe(goldenConfig(0),
                               isa::theVocab().size());
        nn::Grads grads(probe.params());
        put("train_loss", trainingTrajectory(2, &grads));
        out["train_grad_digest"] = double(gradDigest(grads) >> 11);
    }
    put("table_loss", tableTrajectory());
    return out;
}

void
writeGolden(const std::map<std::string, double> &values)
{
    const std::string out = goldenOutPath();
    std::ofstream os(out);
    ASSERT_TRUE(os.good()) << "cannot write " << out;
    os << "# nn/ golden numerics: key ieee754-bits(hex) value\n"
       << "# regenerate: DIFFTUNE_REGEN_GOLDEN=1 ./test_nn_golden\n";
    char buf[64];
    for (const auto &[key, value] : values) {
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(bits(value)));
        os << key << ' ' << buf << ' ' << value << '\n';
    }
}

std::map<std::string, uint64_t>
readGolden()
{
    std::ifstream is(goldenPath);
    std::map<std::string, uint64_t> out;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key, hex;
        ls >> key >> hex;
        out[key] = std::strtoull(hex.c_str(), nullptr, 16);
    }
    return out;
}

bool
regenRequested()
{
    const char *env = std::getenv("DIFFTUNE_REGEN_GOLDEN");
    return env && *env && *env != '0';
}

class TempFile
{
  public:
    // The process id keeps this suite's two concurrent CTest entries
    // (test_nn_golden and test_nn_golden.threads4) off each other's
    // file: one removing it while the other reads it fails the read.
    explicit TempFile(const char *name)
        : path_((std::filesystem::temp_directory_path() /
                 ("difftune_golden_" + std::to_string(::getpid()) + "_" +
                  name))
                    .string())
    {
    }

    ~TempFile() { std::remove(path_.c_str()); }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST(NnGolden, MatchesCommittedNumericsBitExactly)
{
    const auto computed = computeAll();
    if (regenRequested()) {
        writeGolden(computed);
        GTEST_SKIP() << "regenerated " << goldenOutPath();
    }
    const auto golden = readGolden();
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << goldenPath
        << " (run with DIFFTUNE_REGEN_GOLDEN=1 to create it)";
    ASSERT_EQ(golden.size(), computed.size());
    for (const auto &[key, value] : computed) {
        auto it = golden.find(key);
        ASSERT_NE(it, golden.end()) << "golden key missing: " << key;
        EXPECT_EQ(it->second, bits(value))
            << key << ": engine produced " << value
            << " but the golden file disagrees — the nn/ rewrite "
               "changed the numerics";
    }
}

TEST(NnGolden, BatchedForwardMatchesGoldenBitExactly)
{
    // The batched multi-block executor (nn/batched.hh) must
    // reproduce the same golden bits as the sequential tape — both
    // model modes, the whole golden workload as one ragged batch.
    const auto golden = readGolden();
    ASSERT_FALSE(golden.empty()) << "missing " << goldenPath;
    auto expect = [&](const char *section, size_t i, double value) {
        auto it = golden.find(std::string(section) + ":" +
                              std::to_string(i));
        ASSERT_NE(it, golden.end());
        EXPECT_EQ(it->second, bits(value))
            << section << ":" << i
            << ": batched forward diverged from the golden file";
    };

    const auto encoded = encodeAll();
    std::vector<const surrogate::EncodedBlock *> batch;
    for (const auto &e : encoded)
        batch.push_back(&e);

    {
        surrogate::Model model(goldenConfig(0),
                               isa::theVocab().size());
        nn::BatchedForward bf(model.params());
        std::vector<double> heads;
        model.predictBatch(bf, batch, {}, heads);
        for (size_t i = 0; i < heads.size(); ++i)
            expect("ithemal_pred", i, heads[i]);
    }
    {
        const core::ParamNormalizer norm(
            params::SamplingDist::full());
        surrogate::Model model(goldenConfig(norm.paramDim()),
                               isa::theVocab().size());
        const params::ParamTable table = goldenTable();
        std::vector<nn::Tensor> per_opcode;
        for (size_t op = 0; op < table.numOpcodes(); ++op)
            per_opcode.push_back(core::opcodeParamInput(
                table, isa::OpcodeId(op), norm));
        std::vector<std::vector<const nn::Tensor *>> inst_params;
        for (const auto &text : goldenBlocks()) {
            const isa::BasicBlock block = isa::parseBlock(text);
            inst_params.emplace_back();
            for (const auto &inst : block.insts)
                inst_params.back().push_back(
                    &per_opcode[size_t(inst.opcode)]);
        }
        nn::BatchedForward bf(model.params());
        surrogate::InstHiddenCache cache;
        std::vector<double> heads;
        model.predictBatch(bf, batch, inst_params, heads, &cache);
        for (size_t i = 0; i < heads.size(); ++i)
            expect("surrogate_pred", i,
                   std::exp(std::min(heads[i], 30.0)));
        // A rerun through the now-warm instruction cache must not
        // change a bit either.
        std::vector<double> again;
        model.predictBatch(bf, batch, inst_params, again, &cache);
        EXPECT_GT(cache.size(), 0u);
        for (size_t i = 0; i < heads.size(); ++i)
            EXPECT_EQ(bits(heads[i]), bits(again[i])) << i;
    }
}

TEST(NnGolden, CheckpointRoundTripReproducesPredictions)
{
    const params::SamplingDist dist = params::SamplingDist::full();
    const core::ParamNormalizer norm(dist);
    surrogate::Model model(goldenConfig(norm.paramDim()),
                           isa::theVocab().size());
    const params::ParamTable table = goldenTable();
    const auto direct = surrogatePredictions(model, table, norm);

    TempFile file("roundtrip.ckpt");
    io::saveCheckpoint(file.path(), &model, &dist, &table);
    io::Checkpoint loaded = io::loadCheckpoint(file.path());
    ASSERT_TRUE(loaded.model);
    ASSERT_TRUE(loaded.dist.has_value());
    ASSERT_TRUE(loaded.table.has_value());

    const core::ParamNormalizer loaded_norm(*loaded.dist);
    const auto reloaded = surrogatePredictions(
        *loaded.model, *loaded.table, loaded_norm);
    ASSERT_EQ(direct.size(), reloaded.size());
    for (size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(bits(direct[i]), bits(reloaded[i])) << "block " << i;
}

TEST(NnGolden, TrainingIsWorkerCountInvariant)
{
    surrogate::Model probe(goldenConfig(0), isa::theVocab().size());
    nn::Grads grads1(probe.params()), grads2(probe.params()),
        grads4(probe.params());
    const auto loss1 = trainingTrajectory(1, &grads1);
    const auto loss2 = trainingTrajectory(2, &grads2);
    const auto loss4 = trainingTrajectory(4, &grads4);

    ASSERT_EQ(loss1.size(), loss2.size());
    ASSERT_EQ(loss1.size(), loss4.size());
    for (size_t s = 0; s < loss1.size(); ++s) {
        EXPECT_EQ(bits(loss1[s]), bits(loss2[s])) << "step " << s;
        EXPECT_EQ(bits(loss1[s]), bits(loss4[s])) << "step " << s;
    }
    for (size_t p = 0; p < grads1.count(); ++p) {
        const auto &g1 = grads1[int(p)].data;
        const auto &g2 = grads2[int(p)].data;
        const auto &g4 = grads4[int(p)].data;
        ASSERT_EQ(g1.size(), g2.size());
        for (size_t i = 0; i < g1.size(); ++i) {
            EXPECT_EQ(bits(g1[i]), bits(g2[i]))
                << "param " << p << " index " << i;
            EXPECT_EQ(bits(g1[i]), bits(g4[i]))
                << "param " << p << " index " << i;
        }
    }
}

/** Generated blocks for the multi-block worker-invariance tests. */
const bhive::Corpus &
invarianceCorpus()
{
    static const bhive::Corpus corpus = bhive::Corpus::generate(120, 19);
    return corpus;
}

/** Every element of @p tensors, in order. */
template <typename TensorSet>
std::vector<double>
flatValues(const TensorSet &tensors)
{
    std::vector<double> out;
    for (size_t t = 0; t < tensors.count(); ++t)
        for (double v : tensors[int(t)].data)
            out.push_back(v);
    return out;
}

TEST(NnGolden, MultiBlockTrainingIsWorkerCountInvariant)
{
    // Batches of 100, 44 and 20 samples: 13, 6 and 3 gradient blocks,
    // each ending on a short block. At 3 and 4 workers the later
    // blocks of a batch reuse partials that folds free during it.
    const bhive::Corpus &corpus = invarianceCorpus();
    std::vector<surrogate::EncodedBlock> encoded;
    for (size_t i = 0; i < corpus.size(); ++i)
        encoded.push_back(surrogate::encodeBlock(corpus[i].block));

    struct Trajectory
    {
        std::vector<double> losses;
        std::vector<double> grads; ///< every step's batch gradient
        std::vector<double> weights;
    };
    auto train = [&](int workers) {
        surrogate::Model model(goldenConfig(0), isa::theVocab().size());
        nn::Adam adam(0.01);
        core::BatchRunner runner(model.params(), workers);
        Trajectory out;
        size_t begin = 0;
        auto body = [&](size_t i, nn::Graph &g, nn::Grads &grads) {
            const auto &block = encoded[i % encoded.size()];
            nn::Ctx ctx{g, model.params(), &grads};
            nn::Var pred = g.exp(model.forward(ctx, block, {}));
            nn::Var l = g.lossMape(pred, 0.5 + 0.25 * double(i % 9), 0.05);
            g.backward(l);
            return g.scalarValue(l);
        };
        for (size_t size : {100, 44, 20}) {
            out.losses.push_back(runner.runBatch(begin, begin + size, body));
            const auto grads = flatValues(runner.batchGrads());
            out.grads.insert(out.grads.end(), grads.begin(), grads.end());
            runner.apply(model.params(), adam, 5.0);
            begin += size;
        }
        out.weights = flatValues(model.params());
        return out;
    };

    const Trajectory one = train(1);
    for (int workers : {3, 4}) {
        const Trajectory many = train(workers);
        ASSERT_EQ(one.losses.size(), many.losses.size());
        for (size_t s = 0; s < one.losses.size(); ++s)
            EXPECT_EQ(bits(one.losses[s]), bits(many.losses[s]))
                << workers << " workers, step " << s;
        ASSERT_EQ(one.grads.size(), many.grads.size());
        for (size_t i = 0; i < one.grads.size(); ++i)
            ASSERT_EQ(bits(one.grads[i]), bits(many.grads[i]))
                << workers << " workers, gradient element " << i;
        ASSERT_EQ(one.weights.size(), many.weights.size());
        for (size_t i = 0; i < one.weights.size(); ++i)
            ASSERT_EQ(bits(one.weights[i]), bits(many.weights[i]))
                << workers << " workers, weight " << i;
    }
}

TEST(NnGolden, DiffTuneRunIsWorkerCountInvariant)
{
    // The golden batches are one 8-sample gradient block. Here a
    // batch of 44 is six blocks, the last one 4 samples, so at 3 and
    // at 4 workers later blocks reuse partials that folds free during
    // the batch. The 96-block train split and the 120 simulated
    // samples end each epoch on a short batch, and the learned table
    // is a late snapshot, so it depends on training.
    const bhive::Dataset dataset(invarianceCorpus(), hw::Uarch::Haswell);
    ASSERT_EQ(dataset.train().size(), 96u);

    const params::ParamTable base = hw::defaultTable(hw::Uarch::Haswell);
    auto run = [&](int workers) {
        core::DiffTuneConfig cfg;
        cfg.model.hidden = 12;
        cfg.model.embedDim = 8;
        cfg.model.tokenLayers = 1;
        cfg.model.blockLayers = 1;
        cfg.simulatedMultiple = 1.25;
        cfg.surrogateLoops = 3;
        cfg.tableEpochs = 8;
        cfg.refineRounds = 1;
        cfg.refineMultiple = 0.5;
        cfg.snapshotEvery = 1;
        cfg.batchSize = 44;
        cfg.workers = workers;
        cfg.seed = 7;
        mca::XMca sim;
        core::DiffTune difftune(sim, dataset, base, cfg);
        return difftune.run();
    };

    const core::DiffTuneResult ref = run(1);
    const std::vector<double> learned = ref.learned.flatten();
    for (int workers : {3, 4}) {
        const core::DiffTuneResult got = run(workers);
        EXPECT_EQ(bits(ref.surrogateFinalLoss), bits(got.surrogateFinalLoss))
            << workers << " workers";
        EXPECT_EQ(bits(ref.surrogateFidelity), bits(got.surrogateFidelity))
            << workers << " workers";
        const std::vector<double> other = got.learned.flatten();
        ASSERT_EQ(learned.size(), other.size());
        for (size_t i = 0; i < learned.size(); ++i)
            EXPECT_EQ(bits(learned[i]), bits(other[i]))
                << workers << " workers, table entry " << i;
    }
}

} // namespace
} // namespace difftune
