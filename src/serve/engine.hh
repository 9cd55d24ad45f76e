/**
 * @file
 * The v1 synchronous serving API, now a thin wrapper over
 * serve::AsyncEngine (serving API v2 — see serve/async_engine.hh
 * and docs/SERVING.md).
 *
 * PredictionEngine keeps its original surface — predict /
 * predictAll / predictUncached, ServeConfig, ServeStats — but every
 * call delegates to an owned AsyncEngine's synchronous path, so v1
 * callers transparently gain the v2 internals: one frozen
 * nn::WeightSnapshot shared by all shard executors (per-engine
 * weight allocations no longer scale with the worker count),
 * sharded-mutex LRU caches, and atomic counters.
 * Unlike v1, the wrapper is also thread-safe — "synchronous and
 * single-caller" is no longer a restriction, just a usage style.
 * Two signatures shifted with the internals (see docs/SERVING.md):
 * ServeStats counters are std::atomic now, and table() hands back
 * the artifact's shared_ptr<const ParamTable> instead of an
 * optional (null when absent).
 *
 * Determinism contract (unchanged): a prediction is a pure function
 * of the canonical block text and the frozen checkpoint, and
 * bit-identical to the uncached reference. Results never depend on
 * batching, order, worker count or cache state.
 *
 * Migration: new code should construct AsyncEngine directly (it
 * adds submit/submitAll futures and the micro-batcher). Existing
 * code needs no changes. ServeConfig maps 1:1 onto the matching
 * AsyncConfig fields; access the wrapped engine through async() for
 * the v2-only calls.
 */

#ifndef DIFFTUNE_SERVE_ENGINE_HH
#define DIFFTUNE_SERVE_ENGINE_HH

#include "serve/async_engine.hh"

namespace difftune::serve
{

/** v1 engine tuning knobs (a subset of AsyncConfig). */
struct ServeConfig
{
    int workers = 0;             ///< shard count (<= 0: library default)
    size_t cacheCapacity = 8192; ///< LRU entries (each cache)
};

/** Loads a checkpoint once; serves block-timing queries. */
class PredictionEngine
{
  public:
    /**
     * Serve @p checkpoint (must carry a model; a paramDim > 0 model
     * additionally requires the parameter table and sampling-dist
     * sections). The model must match the process vocabulary.
     */
    explicit PredictionEngine(io::Checkpoint checkpoint,
                              ServeConfig config = {});

    /** Serve an already-promoted artifact (shares its snapshot). */
    explicit PredictionEngine(io::ModelSnapshot artifact,
                              ServeConfig config = {});

    /** Load @p path and serve it (errors name the path). */
    static PredictionEngine fromFile(const std::string &path,
                                     ServeConfig config = {});

    /** Predict one block given in canonical assembly syntax. */
    double
    predict(const std::string &block_text)
    {
        return engine_->predict(block_text);
    }

    /** Predict a batch; results align with @p block_texts. */
    std::vector<double>
    predictAll(const std::vector<std::string> &block_texts)
    {
        return engine_->predictAll(block_texts);
    }

    /**
     * The uncached, unbatched reference path: parse + encode + one
     * fresh graph per call. Serves as the bench baseline and as the
     * ground truth the cached path must match bit-exactly.
     */
    double
    predictUncached(const std::string &block_text) const
    {
        return engine_->predictUncached(block_text);
    }

    const ServeStats &stats() const { return engine_->stats(); }
    const surrogate::Model &model() const { return engine_->model(); }
    const std::shared_ptr<const params::ParamTable> &table() const
    {
        return engine_->table();
    }
    int workers() const { return engine_->workers(); }

    /** The wrapped v2 engine (submit/submitAll, snapshot, knobs). */
    AsyncEngine &async() { return *engine_; }
    const AsyncEngine &async() const { return *engine_; }

  private:
    PredictionEngine() = default; ///< fromFile assembly only

    static AsyncConfig toAsyncConfig(const ServeConfig &config);

    std::unique_ptr<AsyncEngine> engine_;
};

} // namespace difftune::serve

#endif // DIFFTUNE_SERVE_ENGINE_HH
