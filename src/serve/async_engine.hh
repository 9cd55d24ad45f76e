/**
 * @file
 * Serving API v2: a thread-safe, asynchronously-batched prediction
 * engine over one shared frozen WeightSnapshot.
 *
 * AsyncEngine is the one serving API: the synchronous calls
 * (predict / predictAll / predictUncached), the asynchronous
 * submit / submitAll futures, and the daemon's registry all serve
 * through it (see docs/SERVING.md for the full contract):
 *
 *  - **One scheduler.** Every request that misses the raw-text
 *    front cache is served by a dispatcher: AsyncConfig::workers
 *    threads, each with its own intake queue and exactly one
 *    executor, each running the micro-batch it pops (up to
 *    kMaxBatch requests) inline on its own thread. predict is
 *    submit(text).get() and predictAll is submitAll plus an
 *    in-order wait, so the synchronous calls take the queued path
 *    too and serving never touches the fork-join WorkerPool.
 *
 *  - **Shared frozen weights.** Every dispatcher's executor borrows
 *    one nn::WeightSnapshot (weights, packed panels, input-projection
 *    tables, per-opcode parameter-input columns) instead of holding
 *    a private copy, so per-engine weight allocations do not scale
 *    with the worker count — and engines built from the same
 *    io::ModelSnapshot share too.
 *
 *  - **Thread safety.** Any number of client threads may call any
 *    combination of submit / submitAll / predict / predictAll
 *    concurrently. Caches are sharded-mutex LRUs and stats are
 *    atomic. Every executor shares the engine's one instruction
 *    memo (surrogate::InstHiddenCache), which takes its own mutex
 *    twice per batch.
 *
 *  - **Micro-batching without a coalescing delay.** submit places
 *    requests round-robin over the dispatchers' queues; submitAll
 *    places each member on the dispatcher its raw text hashes to,
 *    so a group's repeats meet in one queue. An idle dispatcher
 *    serves a request as soon as it lands (stealing from a sibling
 *    when its own queue is empty); batches form from the backlog
 *    that builds while every dispatcher is busy. Concurrent
 *    single-block clients thus get batched execution under load
 *    without client-side batching, and batches on different
 *    dispatchers overlap on multi-core boxes.
 *
 * The front end behind every request is a two-level cache key
 * hierarchy (docs/FRONTEND.md): raw text -> interned canonical
 * BlockId. A miss in the raw-text front cache parses once, resolves
 * to a dense BlockId in the engine's append-only isa::Interner, and
 * probes the prediction cache by that id — no canonical-text string
 * is built on the hot path. A forward pass reads its token lanes
 * from the interner's per-instruction token storage.
 *
 * # Determinism contract
 *
 * A prediction is a pure function of the canonical block text and
 * the frozen checkpoint. Batching, arrival order, micro-batch
 * composition, worker count, cache state and client thread count
 * can therefore never change a result: every answer is
 * bit-identical to the sequential reference path.
 *
 * # Shutdown
 *
 * shutdown() (also run by the destructor) stops intake, drains
 * every intake queue — every already-submitted future still
 * completes — and joins the dispatcher pool. submit, submitAll,
 * predict and predictAll after shutdown throw
 * EngineStoppedError — a catchable rejection, not a process fatal:
 * a serving daemon must survive a client racing a drain (the
 * difftuned connection handler turns it into a "draining" wire
 * status and keeps running). predictUncached keeps working.
 */

#ifndef DIFFTUNE_SERVE_ASYNC_ENGINE_HH
#define DIFFTUNE_SERVE_ASYNC_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.hh"
#include "isa/intern.hh"
#include "nn/batched.hh"
#include "obs/metrics.hh"
#include "serve/sharded_cache.hh"

namespace difftune::serve
{

/** AsyncEngine tuning knobs. */
struct AsyncConfig
{
    /**
     * Dispatcher count (<= 0: library default): the threads, one
     * executor each, that serve every request past the front
     * cache, whether it came from submit or from predict.
     */
    int workers = 0;
    size_t cacheCapacity = 8192; ///< LRU entries, each cache (>= 1)
    /** Lock stripes per LRU cache (<= 0: library default). */
    int cacheStripes = 0;
    /**
     * Interned canonical blocks bound (0: library default, 64Ki;
     * the instruction table gets 2x this). The interner is
     * append-only, so this bounds its lifetime footprint; past it,
     * new canonical forms are served without canonical-level
     * caching (correct, just unmemoized).
     */
    size_t internCapacity = 0;
    /**
     * Telemetry name prefix (docs/OBSERVABILITY.md): every metric
     * this engine registers — the mirrored ServeStats counters, the
     * per-stage latency histograms, the queue gauges — is named
     * "<metricPrefix>.<metric>", so multiple engines/models in one
     * process stay distinguishable in a single /statsz dump. Empty
     * selects a unique "serve.engine<N>" automatically. Two live
     * engines must not share a prefix (fatal at construction).
     */
    std::string metricPrefix;
    /**
     * Registry the engine's metrics register in (null: the
     * process-wide obs::MetricRegistry::global()). Tests point this
     * at a private registry for isolated golden dumps. Ignored —
     * like all telemetry — when obs::enabled() is false at
     * construction (the DIFFTUNE_OBS_OFF kill switch).
     */
    obs::MetricRegistry *registry = nullptr;
};

/**
 * Monotonic serving counters. All atomic: any thread may read them
 * at any time; a concurrent reader sees each counter individually
 * consistent (sums across counters may be mid-update unless the
 * engine is quiescent).
 *
 * Not engine-private: unless telemetry is disabled
 * (DIFFTUNE_OBS_OFF), every counter here is mirrored live into the
 * engine's obs::MetricRegistry under its metric prefix
 * ("<prefix>.requests", "<prefix>.text_hits", ...), so a /statsz
 * dump (obs::renderStatsz) reports them next to the per-stage
 * latency histograms. On a quiescent engine the mirrored values
 * reconcile exactly:
 *
 *   requests == text_hits + text_misses == hits + misses
 *
 * with intern_hits (and forwards/batches) outside that invariant,
 * as documented per field. The mirror reads this struct
 * directly (no second copy to drift); the engine unlinks it at
 * destruction. See docs/OBSERVABILITY.md.
 */
struct ServeStats
{
    std::atomic<uint64_t> requests{0};   ///< predictions asked for
    std::atomic<uint64_t> textHits{0};   ///< raw-text front-cache hits
    std::atomic<uint64_t> textMisses{0}; ///< past the front cache
    std::atomic<uint64_t> hits{0};       ///< answered from either LRU
    std::atomic<uint64_t> misses{0};     ///< in no cache when served
    std::atomic<uint64_t> forwards{0};   ///< LSTM forward passes run
    std::atomic<uint64_t> batches{0};    ///< batches executed
    /**
     * Parsed blocks whose canonical form the interner had already
     * seen — the near-miss traffic (same canonical block, different
     * raw spelling or whitespace) that resolves to an existing
     * BlockId without building a canonical string. Outside the
     * requests == hits + misses reconciliation: an intern hit may
     * still go on to a prediction-cache hit or a forward pass.
     */
    std::atomic<uint64_t> internHits{0};
    /**
     * Forwarded instructions served from the engine's instruction
     * memo, and token-LSTM lanes run (surrogate::TokenLevelCounts).
     * Outside the reconciliation, like internHits.
     */
    std::atomic<uint64_t> instHits{0};
    std::atomic<uint64_t> tokenLanes{0};
};

/**
 * Thrown by submit/submitAll (and so by predict/predictAll) once
 * shutdown() has closed intake.
 * Deliberately an ordinary catchable exception (derived from
 * std::runtime_error, so pre-existing catch sites keep working)
 * rather than fatal(): a client racing a graceful drain is an
 * expected serving condition, not a process-ending error — the
 * daemon answers it with a "draining" status and carries on.
 */
class EngineStoppedError : public std::runtime_error
{
  public:
    EngineStoppedError()
        : std::runtime_error(
              "AsyncEngine: submit after shutdown (engine draining)")
    {
    }
};

/** Thread-safe micro-batching engine over one frozen snapshot. */
class AsyncEngine
{
  public:
    /**
     * Serve @p artifact (from io::makeModelSnapshot /
     * io::loadModelSnapshot; must carry a model, and — for a
     * paramDim > 0 surrogate — the parameter table and sampling
     * distribution). Binding several engines to one artifact shares
     * its WeightSnapshot; construct them from one thread.
     */
    explicit AsyncEngine(io::ModelSnapshot artifact,
                         AsyncConfig config = {});

    /** Convenience: promote @p checkpoint, then serve it. */
    explicit AsyncEngine(io::Checkpoint checkpoint,
                         AsyncConfig config = {});

    /**
     * Load @p path once and serve it (errors name the path). The
     * engine is immovable, so the factory hands back a unique_ptr.
     */
    static std::unique_ptr<AsyncEngine>
    loadFromFile(const std::string &path, AsyncConfig config = {});

    /** shutdown()s (draining pending requests) and joins. */
    ~AsyncEngine();

    AsyncEngine(const AsyncEngine &) = delete;
    AsyncEngine &operator=(const AsyncEngine &) = delete;

    // ---- Asynchronous API (micro-batched, any thread)

    /**
     * Queue one block for prediction; the future completes when its
     * micro-batch executes (or immediately on a front-cache hit).
     * Parse/validation errors surface through the future.
     */
    std::future<double> submit(std::string block_text);

    /**
     * Queue a group; futures align with @p block_texts. The whole
     * group is enqueued atomically, each member on the dispatcher
     * its raw text hashes to: every copy of a text lands in one
     * queue, so a group of at most kMaxBatch members that finds the
     * queues empty forwards each distinct text once.
     */
    std::vector<std::future<double>>
    submitAll(std::vector<std::string> block_texts);

    // ---- Synchronous API (blocking, any thread)

    /**
     * Predict one block given in canonical assembly syntax:
     * submit(@p block_text).get().
     */
    double predict(const std::string &block_text);

    /**
     * Predict a batch; results align with @p block_texts. submitAll
     * plus an in-order wait: a failing member rethrows its error,
     * the first in input order winning.
     */
    std::vector<double>
    predictAll(const std::vector<std::string> &block_texts);

    /**
     * The uncached, unbatched reference path: parse + encode + one
     * fresh graph per call. The ground truth every answer must match
     * bit-exactly.
     */
    double predictUncached(const std::string &block_text) const;

    // ---- Lifecycle

    /**
     * Stop intake, drain every queued request, join the dispatchers.
     * Idempotent and safe to call from any thread (concurrent
     * callers serialize; each returns only once the drain is
     * complete); the destructor calls it too. Futures already
     * handed out all complete before this returns.
     */
    void shutdown();

    // ---- Introspection

    /** Most queued requests one dispatcher serves as one batch. */
    static constexpr size_t kMaxBatch = 64;

    const ServeStats &stats() const { return stats_; }
    const surrogate::Model &model() const { return *artifact_.model; }
    /** Learned parameter table (shared with the artifact; may be
     *  null for an Ithemal-mode checkpoint). */
    const std::shared_ptr<const params::ParamTable> &
    table() const
    {
        return artifact_.table;
    }
    /** The frozen snapshot every executor of this engine borrows. */
    const nn::WeightSnapshot &snapshot() const { return *snapshot_; }
    std::shared_ptr<const nn::WeightSnapshot>
    snapshotPtr() const
    {
        return snapshot_;
    }
    int workers() const { return workers_; }
    const AsyncConfig &config() const { return config_; }
    /** The engine's interned canonical tables (sizes/footprint). */
    const isa::Interner &interner() const { return interner_; }
    /**
     * The telemetry name prefix this engine registered under
     * (config or auto-assigned), or empty when telemetry was
     * disabled at construction.
     */
    const std::string &metricPrefix() const { return metricPrefix_; }

    /**
     * Bytes of weight-derived state this engine shares through its
     * snapshot: the packed panels and projection tables (one copy
     * per *executor* before v2) plus the per-opcode input columns
     * (one copy per *engine* before v2). Constant in workers() by
     * construction, and shared further across engines built from
     * one io::ModelSnapshot.
     */
    size_t
    sharedWeightBytes() const
    {
        return snapshot_->sharedBytes();
    }

  private:
    /** One queued request. */
    struct Pending
    {
        std::string text;
        std::promise<double> promise;
        /** Enqueue instant (0 with telemetry off): the dispatcher
         *  records queue-wait and end-to-end spans from it. */
        uint64_t enqueuedNs = 0;
    };

    /** Per-request result of a served batch. */
    struct Outcome
    {
        double value = 0.0;
        std::exception_ptr error; ///< set iff the request failed
    };

    /** Blocks needing a forward pass within one batch. */
    struct Miss
    {
        /** Interned canonical id, or invalidBlockId (interner full:
         *  served uncachably, bit-identically). */
        isa::BlockId id = isa::invalidBlockId;
        isa::BasicBlock block;
        double prediction = 0.0;
        std::vector<uint32_t> outputs; ///< outcome slots to fill
    };

    /**
     * requests accounting + raw-text front-cache probe, shared by
     * every entry point. @return the cached value on a hit.
     */
    std::optional<double> frontProbe(const std::string &text);

    /**
     * The batch core, run by a dispatcher on its own executor:
     * dedup, parse, canonical-cache probe, one lane-batch forward of
     * the misses on @p executor, cache publish. Outcomes align with
     * @p texts; per-request errors land in Outcome::error. The
     * caller owns @p executor. @p sample_laps (from sampleTick())
     * turns the per-block stage laps on for this batch.
     */
    std::vector<Outcome>
    serveBatch(nn::BatchedForward &executor,
               const std::vector<const std::string *> &texts,
               bool sample_laps);

    /**
     * Run @p misses through @p executor as one lane batch and fill
     * their predictions. The caller owns @p executor.
     */
    void forwardMissBatch(nn::BatchedForward &executor,
                          std::vector<Miss> &misses);

    /** Forward one encoded block on @p graph; returns exp(head). */
    double forwardEncoded(nn::Graph &graph,
                          const surrogate::EncodedBlock &encoded,
                          const isa::BasicBlock &block) const;

    /** Dispatcher @p self: pop/steal, serve, fulfill. */
    void dispatchLoop(size_t self);

    /** Start the dispatchers if needed; caller holds queueMutex_. */
    void ensureDispatchersLocked();

    io::ModelSnapshot artifact_;
    std::shared_ptr<const nn::WeightSnapshot> snapshot_;
    int workers_;
    AsyncConfig config_;

    /**
     * Interned canonical tables: every parsed block resolves to a
     * dense BlockId here (append-only, lock-free reads), and the
     * BlockId keys both LRUs below — no canonical-text string is
     * built on the hot path. Private to this engine: its ids never
     * mean anything to another engine's caches.
     */
    isa::Interner interner_;
    /** Front cache keyed by the *raw* request text. */
    ShardedLruCache<std::string, double> textCache_;
    /** Main cache: interned canonical block -> prediction. */
    ShardedLruCache<isa::BlockId, double> cache_;
    /** Token sequence -> token-LSTM state, shared by every
     *  executor of this engine. */
    surrogate::InstHiddenCache instCache_;
    ServeStats stats_;

    /**
     * Per-stage telemetry (docs/OBSERVABILITY.md): registry-owned
     * histograms/gauges resolved once at construction. All null
     * when obs::enabled() was false — the StageTimer/StageClock
     * spans then cost one branch each (the kill-switch contract).
     * Histogram units are nanoseconds except batchSize (requests
     * per dispatcher micro-batch).
     */
    struct StageMetrics
    {
        obs::LatencyHistogram *request = nullptr;   ///< end-to-end
        obs::LatencyHistogram *parse = nullptr;     ///< tokenize+parse
        obs::LatencyHistogram *intern = nullptr;    ///< canonical id
        obs::LatencyHistogram *predCache = nullptr; ///< BlockId probe
        obs::LatencyHistogram *encode = nullptr;    ///< lane build
        obs::LatencyHistogram *forward = nullptr;   ///< LSTM batch
        obs::LatencyHistogram *queueWait = nullptr; ///< submit->pop
        obs::LatencyHistogram *batchSize = nullptr; ///< reqs/batch
        obs::Gauge *queueDepth = nullptr;

        bool on() const { return request != nullptr; }
    };

    /**
     * Head-based trace sampling of the per-block stage laps: 1 in
     * this many dispatcher batches records its parse / intern /
     * pred-cache laps. The decision is made once per batch, so a
     * sampled batch yields one coherent trace. A clock read costs
     * ~30 ns on shared runners and a respelled-warm block needs
     * only a few us of parsing and probing, so laps on every block
     * would blow bench_serve's 5% overhead gate. The per-request
     * and per-batch spans (request_ns, queue wait, batch size,
     * encode, forward) are not sampled: they record every request
     * that reaches a dispatcher, and their clock reads amortize
     * across the popped batch. Front-cache hits record nothing.
     */
    static constexpr uint64_t kStageSamplePeriod = 8;

    /** Draw one sampling decision (false when telemetry is off). */
    bool sampleTick();

    /** Resolve stage_ and mirror stats_ (constructor tail). */
    void registerMetrics();

    StageMetrics stage_;
    std::atomic<uint64_t> stageSampleTick_{0};
    obs::MetricRegistry *registry_ = nullptr;
    std::string metricPrefix_;

    /**
     * One dispatcher: an intake queue (guarded by queueMutex_ like
     * all queue state) plus the one executor its thread serves
     * batches on. unique_ptr entries so dispatcher addresses are
     * stable.
     */
    struct DispatchWorker
    {
        explicit DispatchWorker(
            std::shared_ptr<const nn::WeightSnapshot> snapshot)
            : executor(std::move(snapshot))
        {
        }

        std::deque<Pending> queue;
        nn::BatchedForward executor;
        std::thread thread;
    };

    /**
     * One mutex guards every per-dispatcher queue plus the stop
     * flag: queue operations are tiny next to batch execution, so
     * striping the *lock* would buy nothing — what the per-dispatcher
     * queues buy is striped FIFO assignment and idle-steal, and
     * above all one private executor per dispatcher so batch
     * *execution* overlaps.
     */
    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::vector<std::unique_ptr<DispatchWorker>> pool_;
    /** Round-robin intake stripe counter (submit picks a queue;
     *  submitAll places by text hash instead). */
    std::atomic<uint64_t> intakeStripe_{0};
    /** Sum of all per-dispatcher queue sizes (guarded by
     *  queueMutex_); what the queue_depth gauge mirrors — one
     *  dispatcher's queue alone would under-report the backlog. */
    size_t totalQueued_ = 0;
    bool stopping_ = false;
    /** Fast intake-closed check (set before stopping_ is taken). */
    std::atomic<bool> stopped_{false};
    /**
     * Dispatchers start lazily on the first request past the front
     * cache (guarded by queueMutex_), so an engine that only ever
     * answers from its caches or through predictUncached owns no
     * threads and no executors.
     */
    bool dispatchersStarted_ = false;
    /** Serializes shutdown(): exactly one caller joins. */
    std::mutex shutdownMutex_;
};

} // namespace difftune::serve

#endif // DIFFTUNE_SERVE_ASYNC_ENGINE_HH
