/**
 * @file
 * Data-parallel minibatch machinery shared by surrogate training,
 * parameter-table training and the Ithemal baseline.
 *
 * Each worker shard owns a reusable Graph and Grads buffer; a batch
 * maps sample indices over the shards, then gradients are reduced in
 * shard order and averaged — bit-reproducible regardless of thread
 * scheduling because shard boundaries are a pure function of the
 * batch size and worker count. Each shard zeroes its own buffer, and
 * the reduction splits the gradient elements over the workers; every
 * element still sums its shards in order 0, 1, ..., so neither split
 * changes a bit.
 *
 * The shard graphs share one nn::PanelCache: the weights a body
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

/** Reusable per-shard training state for one trainable ParamSet. */
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
     */
    double runBatch(size_t begin, size_t end, const SampleFn &body);

    /** Clip the averaged batch gradient and step the optimizer. */
    void apply(nn::ParamSet &params, nn::Optimizer &optimizer,
               double clip = 0.0);

    const nn::Grads &batchGrads() const { return total_; }

  private:
    int workers_;
    std::vector<std::unique_ptr<nn::Graph>> graphs_;
    /** Gradients of shards 1.. (shard 0 accumulates into total_). */
    std::vector<std::unique_ptr<nn::Grads>> shardGrads_;
    nn::Grads total_;
    /** Start of each gradient tensor in the flat element order. */
    std::vector<size_t> offsets_;
    nn::PanelCache panels_;
};

} // namespace difftune::core

#endif // DIFFTUNE_CORE_TRAINER_HH
