/**
 * @file
 * AsyncEngine implementation.
 *
 * Locking order (always take in this order, never hold both unless
 * noted): queueMutex_ guards only the request queues and the stop
 * flag; batchMutex_ guards the synchronous executor set and is held
 * across a whole serveBatch; the cache stripes are leaf locks taken
 * under either or neither. A dispatcher serves with no queue lock
 * held, so clients keep submitting while a batch runs.
 */

#include "serve/async_engine.hh"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "base/env.hh"
#include "base/parallel.hh"
#include "core/raw_table.hh"
#include "isa/parse.hh"
#include "obs/stage_timer.hh"

namespace difftune::serve
{

namespace
{

int
cacheStripes(const AsyncConfig &config)
{
    return config.cacheStripes > 0 ? config.cacheStripes : 8;
}

/** The caches are built in the member-initializer list, so a zero
 *  capacity must be rejected there, before a cache can panic. */
size_t
cacheCapacity(const AsyncConfig &config)
{
    fatal_if(config.cacheCapacity == 0, "cacheCapacity must be >= 1");
    return config.cacheCapacity;
}

} // namespace

AsyncEngine::AsyncEngine(io::ModelSnapshot artifact,
                         AsyncConfig config)
    : artifact_(std::move(artifact)),
      workers_(config.workers > 0 ? config.workers : workerThreads()),
      config_(config),
      interner_(config.internCapacity > 0 ? 2 * config.internCapacity
                                          : size_t(1) << 17,
                config.internCapacity > 0 ? config.internCapacity
                                          : size_t(1) << 16),
      textCache_(cacheCapacity(config), cacheStripes(config)),
      cache_(cacheCapacity(config), cacheStripes(config))
{
    fatal_if(!artifact_.model || !artifact_.weights,
             "AsyncEngine needs a promoted ModelSnapshot "
             "(io::makeModelSnapshot)");
    fatal_if(config_.maxBatch == 0, "maxBatch must be >= 1");

    const int param_dim = artifact_.model->config().paramDim;
    if (param_dim > 0) {
        // A DiffTune surrogate needs its frozen inputs: the learned
        // table and the sampling distribution whose widths normalize
        // the table entries.
        fatal_if(!artifact_.table,
                 "surrogate checkpoint (paramDim {}) carries no "
                 "parameter table",
                 param_dim);
        fatal_if(!artifact_.dist,
                 "surrogate checkpoint (paramDim {}) carries no "
                 "sampling distribution",
                 param_dim);
        const params::ParamTable &table = *artifact_.table;
        fatal_if(table.numOpcodes() != isa::theIsa().numOpcodes(),
                 "checkpoint table has {} opcodes, ISA has {}",
                 table.numOpcodes(), isa::theIsa().numOpcodes());
        const core::ParamNormalizer norm(*artifact_.dist);
        fatal_if(norm.paramDim() != param_dim,
                 "checkpoint sampling distribution implies paramDim "
                 "{}, model expects {}",
                 norm.paramDim(), param_dim);
        // The table is frozen from here on, so each opcode's input
        // column is a constant. They live in the shared snapshot:
        // a sibling engine that already completed them makes them
        // visible through hasInputColumns and we skip the whole
        // computation; in a genuine construction race both compute
        // identical columns (pure function of the frozen
        // checkpoint) and setInputColumns keeps the winner's with
        // proper synchronization.
        if (!artifact_.weights->hasInputColumns()) {
            std::vector<nn::Tensor> columns;
            columns.reserve(table.numOpcodes());
            for (size_t op = 0; op < table.numOpcodes(); ++op)
                columns.push_back(core::opcodeParamInput(
                    table, isa::OpcodeId(op), norm));
            artifact_.weights->setInputColumns(std::move(columns));
        }
    }
    snapshot_ = artifact_.weights;

    // One executor + instruction-hidden memo per shard, all
    // borrowing the one snapshot: the panel packing and every input
    // projection happen once per engine (or once per *artifact*,
    // when engines share), not once per shard. The dispatchers
    // start lazily on the first submit.
    shards_.reserve(size_t(workers_));
    for (int shard = 0; shard < workers_; ++shard) {
        shards_.emplace_back();
        shards_.back().batched =
            std::make_unique<nn::BatchedForward>(snapshot_);
    }

    registerMetrics();
}

void
AsyncEngine::registerMetrics()
{
    // The kill switch: with DIFFTUNE_OBS_OFF set (or setEnabled
    // false) every stage pointer stays null and the spans below
    // degrade to single branches — no clock reads, no records, no
    // registry entries. Sampled once here; the engine's lifetime
    // pins the answer.
    if (!obs::enabled())
        return;
    static std::atomic<uint64_t> nextEngineId{0};
    metricPrefix_ =
        config_.metricPrefix.empty()
            ? "serve.engine" + std::to_string(nextEngineId.fetch_add(
                                   1, std::memory_order_relaxed))
            : config_.metricPrefix;
    registry_ = config_.registry ? config_.registry
                                 : &obs::MetricRegistry::global();
    const std::string p = metricPrefix_ + ".";
    std::vector<std::string> linked;
    try {
        // ServeStats mirrors: the registry reads the live atomics
        // (no second copy to drift); ~AsyncEngine unlinks them.
        const std::pair<const char *, const std::atomic<uint64_t> *>
            mirrors[] = {
                {"requests", &stats_.requests},
                {"text_hits", &stats_.textHits},
                {"text_misses", &stats_.textMisses},
                {"hits", &stats_.hits},
                {"misses", &stats_.misses},
                {"forwards", &stats_.forwards},
                {"batches", &stats_.batches},
                {"intern_hits", &stats_.internHits},
            };
        for (const auto &[field, source] : mirrors) {
            registry_->linkCounter(p + field, source);
            linked.push_back(p + field);
        }
        // Registry-owned stage instrumentation (immortal; engines
        // reusing an explicit prefix sequentially accumulate into
        // the same histograms).
        stage_.request = &registry_->histogram(p + "request_ns");
        stage_.parse = &registry_->histogram(p + "stage.parse_ns");
        stage_.intern = &registry_->histogram(p + "stage.intern_ns");
        stage_.predCache =
            &registry_->histogram(p + "stage.pred_cache_ns");
        stage_.encode = &registry_->histogram(p + "stage.encode_ns");
        stage_.forward =
            &registry_->histogram(p + "stage.forward_ns");
        stage_.queueWait =
            &registry_->histogram(p + "stage.queue_wait_ns");
        stage_.batchSize =
            &registry_->histogram(p + "batch_size");
        stage_.queueDepth = &registry_->gauge(p + "queue_depth");
    } catch (...) {
        // A prefix collision (two live engines sharing a prefix)
        // aborts construction; drop exactly the links THIS call
        // made — a prefix-wide unlink would tear down the other
        // live engine's mirrors — so no dangling ServeStats
        // pointer survives this engine.
        for (const std::string &name : linked)
            registry_->unlinkCounter(name);
        stage_ = {};
        registry_ = nullptr;
        throw;
    }
}

AsyncEngine::AsyncEngine(io::Checkpoint checkpoint, AsyncConfig config)
    : AsyncEngine(io::makeModelSnapshot(std::move(checkpoint)),
                  std::move(config))
{
}

std::unique_ptr<AsyncEngine>
AsyncEngine::loadFromFile(const std::string &path, AsyncConfig config)
{
    io::ModelSnapshot artifact = io::loadModelSnapshot(path);
    try {
        return std::make_unique<AsyncEngine>(std::move(artifact),
                                             std::move(config));
    } catch (const std::exception &error) {
        fatal("cannot serve checkpoint '{}': {}", path,
              stripErrorPrefix(error.what()));
    }
}

AsyncEngine::~AsyncEngine()
{
    shutdown();
    // The registry must stop reading this engine's ServeStats before
    // the struct dies; the stage histograms stay behind, frozen.
    if (registry_)
        registry_->unlinkCounters(metricPrefix_ + ".");
}

void
AsyncEngine::shutdown()
{
    stopped_.store(true, std::memory_order_release);
    {
        std::lock_guard lock(queueMutex_);
        stopping_ = true;
    }
    queueCv_.notify_all();
    // Exactly one caller joins (joinable() goes false afterwards);
    // shutdownMutex_ makes concurrent shutdown() calls — including
    // one racing the destructor — serialize instead of double-join,
    // and every caller returns only once the drain is complete.
    std::lock_guard lock(shutdownMutex_);
    for (const auto &worker : pool_)
        if (worker->thread.joinable())
            worker->thread.join();
}

// --------------------------------------------------------------- intake

std::optional<double>
AsyncEngine::frontProbe(const std::string &text)
{
    ++stats_.requests;
    if (std::optional<double> hit = textCache_.get(text)) {
        ++stats_.textHits;
        ++stats_.hits;
        return hit;
    }
    ++stats_.textMisses;
    return std::nullopt;
}

std::future<double>
AsyncEngine::submit(std::string block_text)
{
    // Intake closes atomically at shutdown — even for requests the
    // front cache could still answer, so "closed" is unambiguous.
    // Rejection is a catchable EngineStoppedError, never fatal():
    // the daemon must survive clients racing a drain.
    if (stopped_.load(std::memory_order_acquire))
        throw EngineStoppedError();
    std::promise<double> promise;
    std::future<double> future = promise.get_future();
    if (std::optional<double> hit = frontProbe(block_text)) {
        promise.set_value(*hit);
        return future;
    }
    // Striped assignment: requests round-robin over the
    // per-dispatcher intake queues. The stripe draw sits outside the
    // lock — it only has to distribute, not order.
    const uint64_t stripe =
        intakeStripe_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard lock(queueMutex_);
        if (stopping_) {
            // Keep the counters reconciled (hits + misses ==
            // requests) before rejecting.
            ++stats_.misses;
            throw EngineStoppedError();
        }
        ensureDispatchersLocked();
        pool_[size_t(stripe % pool_.size())]->queue.push_back(
            Pending{std::move(block_text), std::move(promise),
                    stage_.on() ? obs::nowNs() : 0});
        ++totalQueued_;
        if (stage_.on())
            stage_.queueDepth->set(int64_t(totalQueued_));
    }
    // One idle dispatcher suffices for one request: it serves its
    // own queue or steals, and a busy one re-checks the queues
    // before it sleeps.
    queueCv_.notify_one();
    return future;
}

std::vector<std::future<double>>
AsyncEngine::submitAll(std::vector<std::string> block_texts)
{
    if (stopped_.load(std::memory_order_acquire))
        throw EngineStoppedError();
    std::vector<std::future<double>> futures;
    futures.reserve(block_texts.size());
    std::vector<Pending> fresh;
    // One timestamp for the whole group: the members enqueue
    // together, and one clock read keeps the intake loop cheap.
    const uint64_t enqueued = stage_.on() ? obs::nowNs() : 0;
    for (std::string &text : block_texts) {
        std::promise<double> promise;
        futures.push_back(promise.get_future());
        if (std::optional<double> hit = frontProbe(text)) {
            promise.set_value(*hit);
            continue;
        }
        fresh.push_back(
            Pending{std::move(text), std::move(promise), enqueued});
    }
    if (!fresh.empty()) {
        const uint64_t stripe = intakeStripe_.fetch_add(
            fresh.size(), std::memory_order_relaxed);
        {
            std::lock_guard lock(queueMutex_);
            if (stopping_) {
                stats_.misses += fresh.size();
                throw EngineStoppedError();
            }
            ensureDispatchersLocked();
            // Group members stripe round-robin like singles, so a
            // large group spreads over the dispatchers and its
            // micro-batches overlap (bit-stability is indifferent to
            // the split; ordering within a future group is
            // irrelevant because every member carries its own
            // future).
            for (size_t i = 0; i < fresh.size(); ++i)
                pool_[size_t((stripe + i) % pool_.size())]
                    ->queue.push_back(std::move(fresh[i]));
            totalQueued_ += fresh.size();
            if (stage_.on())
                stage_.queueDepth->set(int64_t(totalQueued_));
        }
        queueCv_.notify_all();
    }
    return futures;
}

// ----------------------------------------------------------- sync calls

bool
AsyncEngine::sampleTick()
{
    return stage_.on() &&
           stageSampleTick_.fetch_add(1, std::memory_order_relaxed) %
                   kStageSamplePeriod ==
               0;
}

double
AsyncEngine::predict(const std::string &block_text)
{
    const bool sampled = sampleTick();
    obs::StageTimer span(sampled ? stage_.request : nullptr);
    if (std::optional<double> hit = frontProbe(block_text))
        return *hit;
    const std::vector<const std::string *> one{&block_text};
    std::vector<Outcome> outcomes = serveBatch(one, sampled);
    if (outcomes[0].error)
        std::rethrow_exception(outcomes[0].error);
    return outcomes[0].value;
}

std::vector<double>
AsyncEngine::predictAll(const std::vector<std::string> &block_texts)
{
    // Every request in the group completes when this call returns,
    // so the call span is each one's end-to-end latency: one pair of
    // clock reads, recorded once per request.
    const uint64_t begin = stage_.on() ? obs::nowNs() : 0;
    std::vector<double> results(block_texts.size(), 0.0);
    std::vector<uint32_t> unresolved;
    std::vector<const std::string *> todo;
    for (size_t i = 0; i < block_texts.size(); ++i) {
        if (std::optional<double> hit = frontProbe(block_texts[i]))
            results[i] = *hit;
        else {
            unresolved.push_back(uint32_t(i));
            todo.push_back(&block_texts[i]);
        }
    }
    if (!todo.empty()) {
        std::vector<Outcome> outcomes = serveBatch(todo, sampleTick());
        for (size_t j = 0; j < outcomes.size(); ++j) {
            if (outcomes[j].error)
                std::rethrow_exception(outcomes[j].error);
            results[unresolved[j]] = outcomes[j].value;
        }
    }
    if (stage_.on() && !block_texts.empty()) {
        const uint64_t elapsed = obs::elapsedNs(begin, obs::nowNs());
        for (size_t i = 0; i < block_texts.size(); ++i)
            stage_.request->record(elapsed);
    }
    return results;
}

// ----------------------------------------------------------- batch core

std::vector<AsyncEngine::Outcome>
AsyncEngine::serveBatch(const std::vector<const std::string *> &texts,
                        bool sample_laps)
{
    std::lock_guard lock(batchMutex_);
    return serveBatchOn(shards_, texts, sample_laps);
}

std::vector<AsyncEngine::Outcome>
AsyncEngine::serveBatchOn(
    std::span<Shard> shards,
    const std::vector<const std::string *> &texts, bool sample_laps)
{
    ++stats_.batches;
    // Chained laps: each stage boundary is one clock read shared
    // with the next stage (N stages cost N+1 reads, not 2N), and
    // only sampled calls (see kStageSamplePeriod) record laps.
    obs::StageClock clk(sample_laps);
    std::vector<Outcome> outcomes(texts.size());
    std::vector<Miss> misses;
    std::vector<uint32_t> parsed; ///< slots to publish to textCache_
    /** In-batch raw-text dedup: first slot to parse each text. */
    std::unordered_map<std::string_view, uint32_t> raw_first;
    /** (duplicate slot, first slot) pairs resolved after publish. */
    std::vector<std::pair<uint32_t, uint32_t>> raw_dups;
    /** In-batch canonical dedup, by interned id. */
    std::unordered_map<isa::BlockId, size_t> miss_index;

    for (size_t i = 0; i < texts.size(); ++i) {
        const std::string &text = *texts[i];
        // Every request here already missed the front cache at
        // submit time; re-probe in case a racing batch published it
        // since.
        if (std::optional<double> hit = textCache_.get(text)) {
            ++stats_.hits;
            outcomes[i].value = *hit;
            continue;
        }
        auto [first, fresh] =
            raw_first.try_emplace(text, uint32_t(i));
        if (!fresh) {
            // An exact repeat within this batch: skip the parse but
            // count it as a miss — it was not in any cache when
            // served (ServeStats::hits means answered from an LRU).
            ++stats_.misses;
            raw_dups.emplace_back(uint32_t(i), first->second);
            continue;
        }
        clk.restart();
        isa::BasicBlock block;
        try {
            block = isa::parseBlock(text);
            fatal_if(block.empty(), "cannot predict an empty block");
        } catch (...) {
            // Per-request failure: this request's future carries the
            // error; the rest of the batch is served normally.
            outcomes[i].error = std::current_exception();
            ++stats_.misses;
            continue;
        }
        clk.lap(stage_.parse);
        // Resolve the parsed block to its interned canonical id —
        // the key for the prediction cache. A near-miss spelling of
        // a known block lands on its existing id here, with no
        // canonical string ever built.
        bool known = false;
        const isa::BlockId id = interner_.internBlock(block, known);
        if (known)
            ++stats_.internHits;
        clk.lap(stage_.intern);
        parsed.push_back(uint32_t(i));
        if (id != isa::invalidBlockId) {
            std::optional<double> hit = cache_.get(id);
            clk.lap(stage_.predCache);
            if (hit) {
                ++stats_.hits;
                outcomes[i].value = *hit;
                continue;
            }
            ++stats_.misses;
            auto it = miss_index.find(id);
            if (it == miss_index.end()) {
                it = miss_index.emplace(id, misses.size()).first;
                misses.push_back(
                    Miss{id, std::move(block), 0.0, {}});
            }
            misses[it->second].outputs.push_back(uint32_t(i));
        } else {
            // Interner full: serve this block uncachably (correct,
            // just not memoized) rather than evicting interned
            // state other keys depend on.
            ++stats_.misses;
            misses.push_back(Miss{id, std::move(block), 0.0, {}});
            misses.back().outputs.push_back(uint32_t(i));
        }
    }

    stats_.forwards += misses.size();

    // Each executor runs its misses as one lane batch (shared
    // weight reads, lockstep steps, instruction dedup). Each lane's
    // arithmetic is independent, so results do not depend on the
    // worker count or the batch composition. A dispatcher's one
    // executor runs inline on its own thread: queued traffic never
    // waits on the fork-join pool, whose run mutex serializes
    // callers. Only the synchronous set fans out over shards.
    if (!misses.empty()) {
        obs::StageTimer forward_span(stage_.forward);
        if (shards.size() == 1)
            forwardMissBatch(shards[0], misses, 0, misses.size());
        else
            parallelShards(misses.size(), int(shards.size()),
                           [&](size_t lo, size_t hi, int shard) {
                               forwardMissBatch(shards[size_t(shard)],
                                                misses, lo, hi);
                           });
    }

    // Publish in deterministic (batch) order.
    for (Miss &miss : misses) {
        for (uint32_t slot : miss.outputs)
            outcomes[slot].value = miss.prediction;
        if (miss.id != isa::invalidBlockId)
            cache_.put(miss.id, miss.prediction);
    }
    for (auto [dup, first] : raw_dups) {
        if (outcomes[first].error)
            outcomes[dup].error = outcomes[first].error;
        else
            outcomes[dup].value = outcomes[first].value;
    }
    for (uint32_t i : parsed)
        textCache_.put(*texts[i], outcomes[i].value);
    return outcomes;
}

void
AsyncEngine::forwardMissBatch(Shard &sh, std::vector<Miss> &misses,
                              size_t lo, size_t hi)
{
    nn::BatchedForward &bf = *sh.batched;
    const std::vector<nn::Tensor> &columns = snapshot_->inputColumns();
    const size_t count = hi - lo;
    std::vector<surrogate::EncodedBlock> encoded;
    std::vector<const surrogate::EncodedBlock *> blocks;
    std::vector<const std::vector<isa::InstId> *> inst_ids;
    std::vector<std::vector<const nn::Tensor *>> inst_params;
    encoded.reserve(count);
    blocks.reserve(count);
    inst_ids.reserve(count);
    for (size_t m = lo; m < hi; ++m) {
        const Miss &miss = misses[m];
        // Per-miss token-lane span; executors record concurrently
        // (record() is wait-free).
        obs::StageTimer encode_span(stage_.encode);
        if (miss.id != isa::invalidBlockId) {
            // The lanes of an interned block come from the
            // interner's per-instruction token storage (exactly
            // encodeBlock's output — intern.hh stores the canonical
            // encoding at intern time).
            inst_ids.push_back(&interner_.instIds(miss.id));
            surrogate::EncodedBlock &lanes = encoded.emplace_back();
            lanes.reserve(inst_ids.back()->size());
            for (isa::InstId inst : *inst_ids.back())
                lanes.push_back(interner_.tokens(inst));
        } else {
            // Interner full: encode from the parsed block.
            inst_ids.push_back(nullptr);
            encoded.push_back(surrogate::encodeBlock(miss.block));
        }
    }
    for (const surrogate::EncodedBlock &lanes : encoded)
        blocks.push_back(&lanes);
    if (!columns.empty()) {
        inst_params.reserve(count);
        for (size_t m = lo; m < hi; ++m) {
            inst_params.emplace_back();
            inst_params.back().reserve(misses[m].block.size());
            for (const auto &inst : misses[m].block.insts)
                inst_params.back().push_back(
                    &columns[size_t(inst.opcode)]);
        }
    }
    std::vector<double> heads;
    artifact_.model->predictBatch(bf, blocks, inst_params, heads,
                                  &sh.instCache, &inst_ids);
    // Same expression as Graph::exp (the sequential path's final
    // node), so the batched prediction is bit-identical to
    // forwardEncoded's.
    for (size_t m = lo; m < hi; ++m)
        misses[m].prediction =
            std::exp(std::min(heads[m - lo], 30.0));
}

double
AsyncEngine::forwardEncoded(nn::Graph &graph,
                            const surrogate::EncodedBlock &encoded,
                            const isa::BasicBlock &block) const
{
    fatal_if(block.empty(), "cannot predict an empty block");
    const std::vector<nn::Tensor> &columns = snapshot_->inputColumns();
    nn::Ctx ctx{graph, artifact_.model->params(), nullptr};
    std::vector<nn::Var> inputs;
    if (!columns.empty()) {
        inputs.reserve(block.size());
        for (const auto &inst : block.insts)
            inputs.push_back(
                graph.input(columns[size_t(inst.opcode)]));
    }
    nn::Var pred = graph.exp(
        artifact_.model->forward(ctx, encoded, inputs));
    return graph.scalarValue(pred);
}

double
AsyncEngine::predictUncached(const std::string &block_text) const
{
    const isa::BasicBlock block = isa::parseBlock(block_text);
    nn::Graph graph;
    // The snapshot's weights are frozen: reuse its packed panels.
    graph.setPanelCache(&snapshot_->panelCache());
    return forwardEncoded(graph, surrogate::encodeBlock(block), block);
}

// ----------------------------------------------------------- dispatcher

void
AsyncEngine::ensureDispatchersLocked()
{
    if (dispatchersStarted_)
        return;
    dispatchersStarted_ = true;
    // Build every dispatcher — including its executor — before any
    // thread starts, so pool_ is immutable from here on and
    // dispatchers index siblings' queues without further
    // coordination. The new threads block on queueMutex_ until the
    // caller releases it, then find the request that triggered the
    // start.
    pool_.reserve(size_t(workers_));
    for (int w = 0; w < workers_; ++w) {
        pool_.push_back(std::make_unique<DispatchWorker>());
        pool_.back()->shard.batched =
            std::make_unique<nn::BatchedForward>(snapshot_);
    }
    for (size_t w = 0; w < pool_.size(); ++w)
        pool_[w]->thread =
            std::thread(&AsyncEngine::dispatchLoop, this, w);
}

void
AsyncEngine::dispatchLoop(size_t self)
{
    // Async end-to-end latency: submit-time stamp to future
    // fulfillment, one clock read per micro-batch. (Front-cache hits
    // resolve inside submit and never reach this histogram.)
    auto recordRequests = [this](const std::vector<Pending> &batch) {
        if (!stage_.on())
            return;
        const uint64_t now = obs::nowNs();
        for (const Pending &pending : batch)
            stage_.request->record(
                obs::elapsedNs(pending.enqueuedNs, now));
    };
    DispatchWorker &me = *pool_[self];
    std::vector<Pending> batch;
    while (true) {
        {
            std::unique_lock lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return stopping_ || totalQueued_ > 0;
            });
            if (totalQueued_ == 0)
                return; // stopping and fully drained
            // Intake, with no wait for company: an idle dispatcher
            // serves what is queued now, and a batch is the backlog
            // that built while every dispatcher was busy. Drain the
            // own queue first (striped FIFO affinity), then — only
            // when it is empty — steal from siblings, oldest
            // requests first, scanning round-robin from the next
            // dispatcher up.
            batch.clear();
            std::deque<Pending> &own = me.queue;
            const size_t own_take =
                std::min(own.size(), config_.maxBatch);
            batch.reserve(own_take);
            for (size_t i = 0; i < own_take; ++i) {
                batch.push_back(std::move(own.front()));
                own.pop_front();
            }
            if (batch.empty()) {
                for (size_t step = 1;
                     step < pool_.size() &&
                     batch.size() < config_.maxBatch;
                     ++step) {
                    std::deque<Pending> &victim =
                        pool_[(self + step) % pool_.size()]->queue;
                    while (!victim.empty() &&
                           batch.size() < config_.maxBatch) {
                        batch.push_back(std::move(victim.front()));
                        victim.pop_front();
                    }
                }
            }
            totalQueued_ -= batch.size();
            if (stage_.on()) {
                // The gauge mirrors the backlog summed over every
                // per-dispatcher queue, and each request's queue
                // wait runs from its enqueue on the owning queue to
                // this pop — stolen requests keep their stamp.
                stage_.queueDepth->set(int64_t(totalQueued_));
                stage_.batchSize->record(batch.size());
                const uint64_t now = obs::nowNs();
                for (const Pending &pending : batch)
                    stage_.queueWait->record(
                        obs::elapsedNs(pending.enqueuedNs, now));
            }
        }

        // Serve with no queue lock held, inline on this dispatcher's
        // own executor — no batchMutex_, no fork-join pool — so
        // clients keep submitting and batches on other dispatchers
        // run concurrently while this one executes.
        std::vector<const std::string *> texts;
        texts.reserve(batch.size());
        for (const Pending &pending : batch)
            texts.push_back(&pending.text);
        std::vector<Outcome> outcomes;
        try {
            outcomes = serveBatchOn(std::span(&me.shard, 1), texts,
                                    sampleTick());
        } catch (...) {
            // serveBatchOn captures per-request errors; anything
            // that still escapes (allocation failure) fails the
            // whole micro-batch rather than abandoning the futures.
            for (Pending &pending : batch)
                pending.promise.set_exception(
                    std::current_exception());
            recordRequests(batch);
            continue;
        }
        for (size_t i = 0; i < batch.size(); ++i) {
            if (outcomes[i].error)
                batch[i].promise.set_exception(outcomes[i].error);
            else
                batch[i].promise.set_value(outcomes[i].value);
        }
        recordRequests(batch);
    }
}

} // namespace difftune::serve
