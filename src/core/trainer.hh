/**
 * @file
 * Data-parallel minibatch machinery shared by surrogate training,
 * parameter-table training and the Ithemal baseline.
 *
 * A batch is cut into blocks of 8 consecutive samples. Each block
 * accumulates its samples in index order into a zeroed partial
 * Grads buffer; the partials are folded into the total in block
 * order and averaged. The cut depends on the sample index alone and
 * workers only decide who computes which block, so losses,
 * gradients and trained weights are bit-identical for every worker
 * count and thread schedule. Workers take blocks in index order;
 * with more blocks than workers, a block reuses a partial once the
 * block before it in that partial is folded, so a runner holds at
 * most two partials more than it has workers. The folds left at the
 * end of a batch split the gradient elements over the workers; every
 * element still sums its blocks in order 0, 1, ..., so neither split
 * changes a bit.
 *
 * The worker graphs share one nn::PanelCache: the weights a body
 * reads are frozen from the start of runBatch() until apply(), so
 * each weight is packed into its matvec panel once per batch, not
 * once per graph or sample.
 */

#ifndef DIFFTUNE_CORE_TRAINER_HH
#define DIFFTUNE_CORE_TRAINER_HH

#include <functional>
#include <memory>

#include "nn/optim.hh"

namespace difftune::core
{

/** Reusable per-worker training state for one trainable ParamSet. */
class BatchRunner
{
  public:
    /**
     * @param trainable the ParamSet receiving gradients
     * @param workers max worker threads (<= 0: library default)
     */
    BatchRunner(const nn::ParamSet &trainable, int workers);

    /**
     * One sample's forward+backward. Must build the loss in @p graph,
     * call backward, and return the scalar loss. Gradients for the
     * trainable set must be accumulated into @p grads.
     */
    using SampleFn =
        std::function<double(size_t index, nn::Graph &graph,
                             nn::Grads &grads)>;

    /**
     * Run @p body for sample indices [begin, end) in parallel,
     * average the gradients into an internal buffer, and return the
     * mean loss. Call apply() afterwards to take an optimizer step.
     *
     * The samples are summed in blocks of 8 ([begin, begin + 8),
     * [begin + 8, begin + 16), ...), each block in index order, and
     * the blocks in block order; the per-block losses likewise. The
     * result is bit-identical for every worker count, and a batch
     * of at most 8 samples sums exactly as one worker would.
     */
    double runBatch(size_t begin, size_t end, const SampleFn &body);

    /** Clip the averaged batch gradient and step the optimizer. */
    void apply(nn::ParamSet &params, nn::Optimizer &optimizer,
               double clip = 0.0);

    const nn::Grads &batchGrads() const { return total_; }

  private:
    /** The buffer block @p block accumulates into. */
    nn::Grads &blockGrads(size_t block);

    /**
     * Fold elements [lo, hi) of the gradients of blocks [first, last)
     * into total_ in block order, then multiply them by @p scale.
     */
    void foldBlocks(size_t first, size_t last, size_t lo, size_t hi,
                    double scale);

    int workers_;
    std::vector<std::unique_ptr<nn::Graph>> graphs_;
    /**
     * Block partials: workers - 1 of them (block 0 accumulates into
     * total_), workers + 2 once a batch has more blocks than
     * workers.
     */
    std::vector<std::unique_ptr<nn::Grads>> partials_;
    nn::Grads total_;
    /** Start of each gradient tensor in the flat element order. */
    std::vector<size_t> offsets_;
    nn::PanelCache panels_;
};

} // namespace difftune::core

#endif // DIFFTUNE_CORE_TRAINER_HH
