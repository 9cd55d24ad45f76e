/**
 * @file
 * AsyncEngine implementation.
 *
 * Locking order: queueMutex_ guards only the request queues and the
 * stop flag, and is held for intake and pops, never across a batch.
 * The cache stripes and the instruction memo's mutex are leaf locks,
 * never taken under queueMutex_: submit probes the front cache
 * before it queues, and a dispatcher serves with no queue lock held,
 * so clients keep submitting while a batch runs. shutdownMutex_
 * only serializes joiners and is never held with queueMutex_.
 */

#include "serve/async_engine.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "base/env.hh"
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
    // Pack the f64 panels here, in setup: the dispatchers and their
    // executors start lazily on the first request past the front
    // cache, and only borrow them. Packing happens once per engine
    // (or once per *artifact*, when engines share).
    snapshot_->ensurePanels();

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
                {"inst_hits", &stats_.instHits},
                {"token_lanes", &stats_.tokenLanes},
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
    std::vector<size_t> homes; // each fresh member's dispatcher
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
        homes.push_back(
            size_t(finalizeHash(std::hash<std::string>{}(text)) %
                   uint64_t(workers_)));
        fresh.push_back(
            Pending{std::move(text), std::move(promise), enqueued});
    }
    if (!fresh.empty()) {
        {
            std::lock_guard lock(queueMutex_);
            if (stopping_) {
                stats_.misses += fresh.size();
                throw EngineStoppedError();
            }
            ensureDispatchersLocked();
            // Members go to the dispatcher their raw text hashes
            // to, so a large group still spreads over the
            // dispatchers and its micro-batches overlap, while every
            // copy of one text shares a queue and meets its twins
            // in the batch's dedup (round-robin would split a
            // group's repeats across dispatchers, each forwarding
            // them). Bit-stability is indifferent to the split.
            for (size_t i = 0; i < fresh.size(); ++i)
                pool_[homes[i]]->queue.push_back(std::move(fresh[i]));
            totalQueued_ += fresh.size();
            if (stage_.on())
                stage_.queueDepth->set(int64_t(totalQueued_));
        }
        queueCv_.notify_all();
    }
    return futures;
}

// ----------------------------------------------------------- sync calls

double
AsyncEngine::predict(const std::string &block_text)
{
    return submit(block_text).get();
}

std::vector<double>
AsyncEngine::predictAll(const std::vector<std::string> &block_texts)
{
    std::vector<std::future<double>> futures = submitAll(block_texts);
    std::vector<double> results;
    results.reserve(futures.size());
    // In input order, so a failing member rethrows the first error.
    for (std::future<double> &future : futures)
        results.push_back(future.get());
    return results;
}

// ----------------------------------------------------------- batch core

std::vector<AsyncEngine::Outcome>
AsyncEngine::serveBatch(nn::BatchedForward &executor,
                        const std::vector<const std::string *> &texts,
                        bool sample_laps)
{
    ++stats_.batches;
    // Chained laps: each stage boundary is one clock read shared
    // with the next stage (N stages cost N+1 reads, not 2N), and
    // only sampled batches (see kStageSamplePeriod) record laps.
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

    // The dispatcher's executor runs the misses inline, as one
    // lane batch (shared weight reads, lockstep steps, instruction
    // dedup). Each lane's arithmetic is independent, so results do
    // not depend on the worker count or the batch composition.
    if (!misses.empty()) {
        obs::StageTimer forward_span(stage_.forward);
        forwardMissBatch(executor, misses);
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
AsyncEngine::forwardMissBatch(nn::BatchedForward &executor,
                              std::vector<Miss> &misses)
{
    const std::vector<nn::Tensor> &columns = snapshot_->inputColumns();
    std::vector<surrogate::EncodedBlock> encoded;
    std::vector<const surrogate::EncodedBlock *> blocks;
    std::vector<std::vector<const nn::Tensor *>> inst_params;
    encoded.reserve(misses.size());
    blocks.reserve(misses.size());
    for (const Miss &miss : misses) {
        // Per-miss token-lane span; dispatchers record concurrently
        // (record() is wait-free).
        obs::StageTimer encode_span(stage_.encode);
        if (miss.id != isa::invalidBlockId) {
            // The lanes of an interned block come from the
            // interner's per-instruction token storage (exactly
            // encodeBlock's output — intern.hh stores the canonical
            // encoding at intern time).
            const std::vector<isa::InstId> &ids =
                interner_.instIds(miss.id);
            surrogate::EncodedBlock &lanes = encoded.emplace_back();
            lanes.reserve(ids.size());
            for (isa::InstId inst : ids)
                lanes.push_back(interner_.tokens(inst));
        } else {
            // Interner full: encode from the parsed block.
            encoded.push_back(surrogate::encodeBlock(miss.block));
        }
    }
    for (const surrogate::EncodedBlock &lanes : encoded)
        blocks.push_back(&lanes);
    if (!columns.empty()) {
        inst_params.reserve(misses.size());
        for (const Miss &miss : misses) {
            inst_params.emplace_back();
            inst_params.back().reserve(miss.block.size());
            for (const auto &inst : miss.block.insts)
                inst_params.back().push_back(
                    &columns[size_t(inst.opcode)]);
        }
    }
    std::vector<double> heads;
    const surrogate::TokenLevelCounts counts =
        artifact_.model->predictBatch(executor, blocks, inst_params,
                                      heads, &instCache_);
    stats_.instHits += counts.instHits;
    stats_.tokenLanes += counts.tokenLanes;
    // Same expression as Graph::exp (the sequential path's final
    // node), so the batched prediction is bit-identical to
    // forwardEncoded's.
    for (size_t m = 0; m < misses.size(); ++m)
        misses[m].prediction = std::exp(std::min(heads[m], 30.0));
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
    for (int w = 0; w < workers_; ++w)
        pool_.push_back(std::make_unique<DispatchWorker>(snapshot_));
    for (size_t w = 0; w < pool_.size(); ++w)
        pool_[w]->thread =
            std::thread(&AsyncEngine::dispatchLoop, this, w);
}

bool
AsyncEngine::sampleTick()
{
    return stage_.on() &&
           stageSampleTick_.fetch_add(1, std::memory_order_relaxed) %
                   kStageSamplePeriod ==
               0;
}

void
AsyncEngine::dispatchLoop(size_t self)
{
    // End-to-end latency of every request that reached a
    // dispatcher, from any entry point: submit-time stamp to the
    // batch's results, one clock read per micro-batch, recorded
    // before the futures complete so a caller back from get() finds
    // its request counted. (Front-cache hits resolve inside submit
    // and never reach this histogram.)
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
            const size_t own_take = std::min(own.size(), kMaxBatch);
            batch.reserve(own_take);
            for (size_t i = 0; i < own_take; ++i) {
                batch.push_back(std::move(own.front()));
                own.pop_front();
            }
            if (batch.empty()) {
                for (size_t step = 1;
                     step < pool_.size() && batch.size() < kMaxBatch;
                     ++step) {
                    std::deque<Pending> &victim =
                        pool_[(self + step) % pool_.size()]->queue;
                    while (!victim.empty() && batch.size() < kMaxBatch) {
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
        // own executor — no fork-join pool — so clients keep
        // submitting and batches on other dispatchers run
        // concurrently while this one executes.
        std::vector<const std::string *> texts;
        texts.reserve(batch.size());
        for (const Pending &pending : batch)
            texts.push_back(&pending.text);
        std::vector<Outcome> outcomes;
        std::exception_ptr failure;
        try {
            outcomes = serveBatch(me.executor, texts, sampleTick());
        } catch (...) {
            // serveBatch captures per-request errors; anything
            // that still escapes (allocation failure) fails the
            // whole micro-batch rather than abandoning the futures.
            failure = std::current_exception();
        }
        recordRequests(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
            if (failure)
                batch[i].promise.set_exception(failure);
            else if (outcomes[i].error)
                batch[i].promise.set_exception(outcomes[i].error);
            else
                batch[i].promise.set_value(outcomes[i].value);
        }
    }
}

} // namespace difftune::serve
