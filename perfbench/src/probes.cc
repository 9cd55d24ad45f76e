/**
 * @file
 * Layer probes (see probes.hh). Each probe repeats a short timed
 * loop a few times and reports the median repetition.
 */

#include "probes.hh"

#include "base/random.hh"
#include "core/raw_table.hh"
#include "core/trainer.hh"
#include "isa/intern.hh"
#include "isa/isa.hh"
#include "isa/parse.hh"
#include "nn/batched.hh"

namespace perfbench
{

using namespace difftune;

namespace
{

/** Median over @p reps of @p body()'s wall seconds. */
template <typename Body>
double
medianSeconds(int reps, const Body &body)
{
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        const double start = nowSeconds();
        body();
        times.push_back(nowSeconds() - start);
    }
    return median(times);
}

} // namespace

std::unique_ptr<surrogate::Model>
experimentModel(const params::SamplingDist &dist, uint64_t seed)
{
    surrogate::ModelConfig config;
    config.hidden = 64;
    config.embedDim = 32;
    config.tokenLayers = 1;
    config.blockLayers = 2;
    config.paramDim = core::ParamNormalizer(dist).paramDim();
    config.seed = seed;
    return std::make_unique<surrogate::Model>(config,
                                              isa::theVocab().size());
}

void
addLayerProbes(Report &report, const ProbeInputs &in)
{
    const surrogate::Model &model = *in.model;
    const core::ParamNormalizer norm(*in.dist);
    const size_t nblocks = std::min<size_t>(in.blocks.size(), 256);

    // Phase-3-shaped samples: a sampled theta per block.
    Rng rng(in.seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<surrogate::EncodedBlock> encoded(nblocks);
    std::vector<params::ParamTable> thetas;
    for (size_t i = 0; i < nblocks; ++i) {
        encoded[i] = surrogate::encodeBlock(in.blocks[i]);
        thetas.push_back(in.dist->sample(rng, *in.base));
    }
    auto sample_body = [&](size_t idx, nn::Graph &graph,
                           nn::Grads &grads) {
        const size_t i = idx % nblocks;
        nn::Ctx ctx{graph, model.params(), &grads};
        auto inputs =
            core::constParamInputs(graph, thetas[i], in.blocks[i], norm);
        nn::Var pred = graph.exp(model.forward(ctx, encoded[i], inputs));
        nn::Var loss = graph.lossMape(pred, 1.0, 0.05);
        graph.backward(loss);
        return graph.scalarValue(loss);
    };

    // One forward + backward, single thread, per-sample median.
    {
        nn::Graph graph;
        nn::Grads grads(model.params());
        std::vector<double> per_sample;
        for (size_t i = 0; i < 3 * std::min<size_t>(nblocks, 64); ++i) {
            graph.clear();
            const double start = nowSeconds();
            sample_body(i, graph, grads);
            per_sample.push_back(nowSeconds() - start);
        }
        report.add("nn.fwd_bwd_us", median(per_sample) * 1e6, "us");
    }

    // One BatchRunner batch of 256 samples on the pinned workers.
    const double fwd_bwd_us = report.metrics.back().value;
    {
        core::BatchRunner runner(model.params(), kWorkers);
        const double batch_s = medianSeconds(
            3, [&] { runner.runBatch(0, 256, sample_body); });
        report.add("core.batch_ms", batch_s * 1e3, "ms");
        report.add("core.parallel_eff",
                   256.0 * fwd_bwd_us / (kWorkers * batch_s * 1e6),
                   "ratio");
    }

    // One SamplingDist draw.
    {
        constexpr int kDraws = 256;
        const double draws_s = medianSeconds(5, [&] {
            for (int i = 0; i < kDraws; ++i)
                in.dist->sample(rng, *in.base);
        });
        report.add("params.sample_us", draws_s / kDraws * 1e6, "us");
    }

    // Front end: parse, then intern into a fresh interner, over the
    // workload's request stream.
    {
        const size_t ntexts = std::min<size_t>(in.texts.size(), 4096);
        std::vector<isa::BasicBlock> parsed(ntexts);
        const double parse_s = medianSeconds(3, [&] {
            for (size_t i = 0; i < ntexts; ++i)
                parsed[i] = isa::parseBlock(in.texts[i]);
        });
        report.add("isa.parse_us", parse_s / double(ntexts) * 1e6,
                   "us");
        const double intern_s = medianSeconds(3, [&] {
            isa::Interner interner;
            for (size_t i = 0; i < ntexts; ++i)
                interner.internBlock(parsed[i]);
        });
        report.add("isa.intern_us", intern_s / double(ntexts) * 1e6,
                   "us");
    }

    // Batched forward at widths 1, 8 and 32 (no instruction cache).
    {
        std::vector<nn::Tensor> columns;
        for (size_t op = 0; op < isa::theIsa().numOpcodes(); ++op)
            columns.push_back(core::opcodeParamInput(
                *in.base, isa::OpcodeId(op), norm));
        std::vector<const surrogate::EncodedBlock *> lanes;
        std::vector<std::vector<const nn::Tensor *>> inputs;
        for (size_t i = 0; i < nblocks; ++i) {
            lanes.push_back(&encoded[i]);
            inputs.emplace_back();
            for (const auto &inst : in.blocks[i].insts)
                inputs.back().push_back(&columns[size_t(inst.opcode)]);
        }
        nn::BatchedForward bf(model.params());
        std::vector<double> out;
        for (size_t width : {1, 8, 32}) {
            const double total_s = medianSeconds(2, [&] {
                for (size_t lo = 0; lo < nblocks; lo += width) {
                    const size_t hi = std::min(nblocks, lo + width);
                    std::vector<const surrogate::EncodedBlock *> b(
                        lanes.begin() + lo, lanes.begin() + hi);
                    std::vector<std::vector<const nn::Tensor *>> p(
                        inputs.begin() + lo, inputs.begin() + hi);
                    model.predictBatch(bf, b, p, out);
                }
            });
            report.add("nn.batched_us_per_block.w" +
                           std::to_string(width),
                       total_s / double(nblocks) * 1e6, "us");
        }
    }
}

} // namespace perfbench
