/**
 * @file
 * BatchRunner implementation.
 */

#include "core/trainer.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>

#include "base/env.hh"
#include "base/parallel.hh"

namespace difftune::core
{

namespace
{

/**
 * Samples per gradient block. Block b of an n-sample batch holds
 * samples [8b, min(n, 8b + 8)), so which samples share an
 * accumulator depends on the sample index alone. A batch of at most
 * 8 samples is a single block: the order of a one-worker run.
 */
constexpr size_t kBlockSamples = 8;

/**
 * Smallest trainable set whose optimizer step apply() splits over
 * the workers. On the 4-vCPU reference host an Adam step costs ~8 ns
 * an element and an empty fork-join ~18 us: split four ways, a
 * 3k-entry phase-4 table steps in 30 us against 24 us serially, 16k
 * elements in 60-100 us against 135 us, and the surrogate's 106k
 * weights in ~340 us against ~880 us.
 */
constexpr size_t kParallelApplyElements = size_t(1) << 14;

/**
 * Call @p fn(t, a, b) for every tensor t that overlaps elements
 * [lo, hi) of the flat gradient whose tensors start at @p offsets,
 * with [a, b) the overlap in t's own indices.
 */
template <typename Fn>
void
forEachSpan(const std::vector<size_t> &offsets, size_t lo, size_t hi,
            Fn &&fn)
{
    for (size_t t = 0; t + 1 < offsets.size(); ++t) {
        const size_t base = offsets[t];
        if (hi <= base || lo >= offsets[t + 1])
            continue;
        fn(t, std::max(lo, base) - base,
           std::min(hi, offsets[t + 1]) - base);
    }
}

} // namespace

BatchRunner::BatchRunner(const nn::ParamSet &trainable, int workers)
    : workers_(workers > 0 ? workers : workerThreads()), total_(trainable)
{
    graphs_.resize(workers_);
    for (int w = 0; w < workers_; ++w) {
        graphs_[w] = std::make_unique<nn::Graph>();
        graphs_[w]->setPanelCache(&panels_);
    }
    // Block 0 accumulates straight into total_.
    for (int w = 1; w < workers_; ++w)
        partials_.push_back(std::make_unique<nn::Grads>(trainable));
    offsets_.push_back(0);
    for (size_t t = 0; t < total_.count(); ++t)
        offsets_.push_back(offsets_.back() + total_[int(t)].size());
}

nn::Grads &
BatchRunner::blockGrads(size_t block)
{
    return block == 0 ? total_ : *partials_[(block - 1) % partials_.size()];
}

void
BatchRunner::foldBlocks(size_t first, size_t last, size_t lo, size_t hi,
                        double scale)
{
    // Elements [lo, hi) of the flat gradient, tensor by tensor. Block
    // 0 is already in total_ and takes the +0.0 step of a zeroed
    // total; any other block is added.
    forEachSpan(offsets_, lo, hi, [&](size_t t, size_t a, size_t b) {
        double *out = total_[int(t)].data.data();
        for (size_t block = first; block < last; ++block) {
            if (block == 0) {
                for (size_t e = a; e < b; ++e)
                    out[e] = 0.0 + out[e];
                continue;
            }
            const double *src = blockGrads(block)[int(t)].data.data();
            for (size_t e = a; e < b; ++e)
                out[e] += src[e];
        }
        if (scale != 1.0)
            for (size_t e = a; e < b; ++e)
                out[e] *= scale;
    });
}

double
BatchRunner::runBatch(size_t begin, size_t end, const SampleFn &body)
{
    const size_t n = end - begin;
    if (n == 0)
        return 0.0;
    const size_t blocks = (n + kBlockSamples - 1) / kBlockSamples;
    const size_t workers = std::min(blocks, size_t(workers_));
    // With more blocks than workers, total_ soon holds the running
    // sum and every worker needs a partial of its own, plus two
    // spares: with one per worker, a worker whose block is done
    // waits for the oldest block still running before it can reuse
    // that block's partial.
    while (blocks > workers && partials_.size() < workers + 2)
        partials_.push_back(std::make_unique<nn::Grads>(total_));
    // The previous apply() may have moved the weights.
    panels_.reset();

    // Workers take blocks in index order. Block b > 0 accumulates
    // into partial (b - 1) % slots, so it starts only once block
    // b - slots is folded into total_; a worker that has to wait
    // folds the finished blocks at the head of the order itself. A
    // block waits only on blocks taken before it, so the head is
    // always running or done.
    const size_t slots = partials_.size();
    std::atomic<size_t> next = 0; // the next block to hand out
    std::mutex mutex;
    std::condition_variable changed;
    size_t folded = 0; // blocks [0, folded) are summed into total_
    bool folding = false;
    std::vector<char> done(blocks, 0);
    std::vector<double> block_loss(blocks, 0.0);

    parallelShards(workers, workers_, [&](size_t, size_t, int shard) {
        nn::Graph &graph = *graphs_[shard];
        for (size_t b; (b = next++) < blocks;) {
            if (b > slots) {
                std::unique_lock lock(mutex);
                while (folded <= b - slots) {
                    if (folding || !done[folded]) {
                        changed.wait(lock);
                        continue;
                    }
                    const size_t head = folded;
                    folding = true;
                    lock.unlock();
                    foldBlocks(head, head + 1, 0, offsets_.back(), 1.0);
                    lock.lock();
                    folding = false;
                    folded = head + 1;
                    changed.notify_all();
                }
            }
            nn::Grads &grads = blockGrads(b);
            grads.zero();
            double loss = 0.0;
            const size_t stop = std::min(n, (b + 1) * kBlockSamples);
            for (size_t i = b * kBlockSamples; i < stop; ++i) {
                graph.clear();
                loss += body(begin + i, graph, grads);
            }
            block_loss[b] = loss;
            std::lock_guard lock(mutex);
            done[b] = 1;
            changed.notify_all();
        }
    });

    // total = (((+0.0 + g_0) + g_1) + ...) * (1/n) per element, the
    // blocks in order: the operation sequence of zeroing a total and
    // adding each block, with g_0 already in place. The blocks not
    // folded yet are folded here, split over the elements; a fold
    // above only ever frees a partial for a later block, so the last
    // block is always among them.
    const double scale = 1.0 / double(n);
    parallelShards(
        offsets_.back(), workers_, [&](size_t lo, size_t hi, int) {
            foldBlocks(folded, blocks, lo, hi, scale);
        });

    double loss = 0.0;
    for (double l : block_loss)
        loss += l;
    return loss / double(n);
}

void
BatchRunner::apply(nn::ParamSet &params, nn::Optimizer &optimizer,
                   double clip)
{
    // Grads::clipL2, with its rescale split like the step below: the
    // norm stays one serial sum, each element is multiplied alone.
    const double factor = clip > 0.0 ? total_.clipFactor(clip) : 1.0;
    optimizer.beginStep(params);
    const size_t n = offsets_.back();
    parallelShards(
        n, n < kParallelApplyElements ? 1 : workers_,
        [&](size_t lo, size_t hi, int) {
            forEachSpan(offsets_, lo, hi,
                        [&](size_t t, size_t a, size_t b) {
                            if (factor != 1.0) {
                                double *g = total_[int(t)].data.data();
                                for (size_t e = a; e < b; ++e)
                                    g[e] *= factor;
                            }
                            optimizer.update(params, total_, t, a, b);
                        });
        });
}

} // namespace difftune::core
