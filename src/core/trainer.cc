/**
 * @file
 * BatchRunner implementation.
 */

#include "core/trainer.hh"

#include <algorithm>

#include "base/env.hh"
#include "base/parallel.hh"

namespace difftune::core
{

BatchRunner::BatchRunner(const nn::ParamSet &trainable, int workers)
    : workers_(workers > 0 ? workers : workerThreads()), total_(trainable)
{
    graphs_.resize(workers_);
    for (int w = 0; w < workers_; ++w) {
        graphs_[w] = std::make_unique<nn::Graph>();
        graphs_[w]->setPanelCache(&panels_);
    }
    // Shard 0 accumulates straight into total_.
    for (int w = 1; w < workers_; ++w)
        shardGrads_.push_back(std::make_unique<nn::Grads>(trainable));
    offsets_.push_back(0);
    for (size_t t = 0; t < total_.count(); ++t)
        offsets_.push_back(offsets_.back() + total_[int(t)].size());
}

double
BatchRunner::runBatch(size_t begin, size_t end, const SampleFn &body)
{
    const size_t n = end - begin;
    if (n == 0)
        return 0.0;
    std::vector<double> shard_loss(workers_, 0.0);
    // The previous apply() may have moved the weights.
    panels_.reset();

    const int shards = parallelShards(
        n, workers_, [&](size_t lo, size_t hi, int shard) {
            nn::Graph &graph = *graphs_[shard];
            nn::Grads &grads =
                shard == 0 ? total_ : *shardGrads_[size_t(shard) - 1];
            grads.zero();
            double loss = 0.0;
            for (size_t i = lo; i < hi; ++i) {
                graph.clear();
                loss += body(begin + i, graph, grads);
            }
            shard_loss[shard] = loss;
        });

    // total = (((+0.0 + g_0) + g_1) + ...) * (1/n) per element, the
    // shards in order: the operation sequence of zeroing a total and
    // adding each shard, with g_0 already in place. Only the shards
    // that ran are summed: the others would only add +0.0, which
    // never changes a sum that starts at +0.0.
    const double scale = 1.0 / double(n);
    parallelShards(
        offsets_.back(), workers_, [&](size_t lo, size_t hi, int) {
            // Elements [lo, hi) of the flat gradient, tensor by tensor.
            for (size_t t = 0; t < total_.count(); ++t) {
                const size_t base = offsets_[t];
                if (hi <= base || lo >= offsets_[t + 1])
                    continue;
                const size_t a = std::max(lo, base) - base;
                const size_t b = std::min(hi, offsets_[t + 1]) - base;
                double *out = total_[int(t)].data.data();
                for (size_t e = a; e < b; ++e)
                    out[e] = 0.0 + out[e];
                for (int w = 1; w < shards; ++w) {
                    const double *src =
                        (*shardGrads_[size_t(w) - 1])[int(t)].data.data();
                    for (size_t e = a; e < b; ++e)
                        out[e] += src[e];
                }
                for (size_t e = a; e < b; ++e)
                    out[e] *= scale;
            }
        });

    double loss = 0.0;
    for (int w = 0; w < workers_; ++w)
        loss += shard_loss[w];
    return loss / double(n);
}

void
BatchRunner::apply(nn::ParamSet &params, nn::Optimizer &optimizer,
                   double clip)
{
    if (clip > 0.0)
        total_.clipL2(clip);
    optimizer.step(params, total_);
}

} // namespace difftune::core
