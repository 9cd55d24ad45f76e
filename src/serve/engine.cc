/**
 * @file
 * PredictionEngine: v1 surface, v2 internals.
 */

#include "serve/engine.hh"

namespace difftune::serve
{

AsyncConfig
PredictionEngine::toAsyncConfig(const ServeConfig &config)
{
    AsyncConfig async;
    async.workers = config.workers;
    async.cacheCapacity = config.cacheCapacity;
    return async;
}

PredictionEngine::PredictionEngine(io::Checkpoint checkpoint,
                                   ServeConfig config)
    : engine_(std::make_unique<AsyncEngine>(std::move(checkpoint),
                                            toAsyncConfig(config)))
{
}

PredictionEngine::PredictionEngine(io::ModelSnapshot artifact,
                                   ServeConfig config)
    : engine_(std::make_unique<AsyncEngine>(std::move(artifact),
                                            toAsyncConfig(config)))
{
}

PredictionEngine
PredictionEngine::fromFile(const std::string &path, ServeConfig config)
{
    // One shared load-and-wrap path (path-naming errors included):
    // AsyncEngine::loadFromFile.
    PredictionEngine engine;
    engine.engine_ =
        AsyncEngine::loadFromFile(path, toAsyncConfig(config));
    return engine;
}

} // namespace difftune::serve
