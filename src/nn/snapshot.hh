/**
 * @file
 * WeightSnapshot: one immutable, shareable bundle of everything a
 * forward-only executor derives from a frozen ParamSet.
 *
 * Before serving API v2 every nn::BatchedForward owned a private
 * copy of the derived weight state — the f32-converted panels and
 * the per-(weight, table) input-projection tables — so a W-shard
 * serving engine paid W conversions and held W copies. A
 * WeightSnapshot hoists all of that out of the executor: it borrows
 * the frozen f64 ParamSet in place (zero copy), packs the f64
 * matvec panels into a PanelCache lazily (once, on the first kF64
 * bind), converts the f32 panels lazily (once, on the first kF32
 * bind), caches input projections once per (weight, table) pair,
 * and can carry the loader's precomputed constant input columns
 * (the serving engine's per-opcode parameter-input tensors).
 * Executors borrow the snapshot through a shared_ptr, so any number
 * of shards — across any number of engines — share one copy of
 * every derived table.
 *
 * # Immutability and thread safety
 *
 * The bound ParamSet must stay frozen for the snapshot's lifetime,
 * and the snapshot itself is logically immutable: every query
 * returns the same bytes forever. The lazy caches are built
 * thread-safely (ensurePanels and ensureF32 via std::call_once;
 * projection tables via an append-only lock-free list with
 * acquire/release publication), and all are pure functions of the
 * frozen weights, so a racing reader either sees the published
 * entry or computes the identical value — results never depend on
 * timing. setInputColumns is the
 * one setup-time mutation: call it before the snapshot is shared
 * across threads (the serving engine does so at load time).
 *
 * Bit-exactness: the f64 panels are a permutation of the ParamSet
 * storage, f32 panels are float(double) per element, and every
 * projected row comes from the shared matvec kernels
 * (nn/matvec_inl.hh) — all identical to what a private-copy
 * executor computed before, so sharing changes memory, never
 * results.
 */

#ifndef DIFFTUNE_NN_SNAPSHOT_HH
#define DIFFTUNE_NN_SNAPSHOT_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/graph.hh"

namespace difftune::nn
{

/** Frozen-weight bundle shared by forward-only executors. */
class WeightSnapshot
{
  public:
    /**
     * Bind to @p params, which must stay frozen and alive for the
     * snapshot's lifetime. @p owner (optional) is held to keep the
     * ParamSet's storage alive — e.g. the surrogate::Model that owns
     * it.
     */
    explicit WeightSnapshot(const ParamSet &params,
                            std::shared_ptr<const void> owner = nullptr);
    ~WeightSnapshot();

    WeightSnapshot(const WeightSnapshot &) = delete;
    WeightSnapshot &operator=(const WeightSnapshot &) = delete;

    const ParamSet &params() const { return params_; }

    // ---- Loader-provided constant input columns

    /**
     * Attach precomputed constant input tensors (the serving
     * engine's per-opcode parameter-input columns). Thread-safe:
     * the first caller wins (std::call_once) and later callers —
     * e.g. sibling engines binding the same snapshot concurrently —
     * discard their argument and synchronize with the winner's
     * write. Safe because the columns are a pure function of the
     * frozen checkpoint, so every caller computes identical ones.
     */
    void setInputColumns(std::vector<Tensor> columns);

    const std::vector<Tensor> &
    inputColumns() const
    {
        return inputColumns_;
    }

    /**
     * Whether a setInputColumns call has completed. An acquire
     * read: a true result also makes the columns themselves visible,
     * so sibling engines can skip recomputing them entirely.
     */
    bool
    hasInputColumns() const
    {
        return columnsSet_.load(std::memory_order_acquire);
    }

    // ---- f64 matvec panels (lazy)

    /**
     * Pack every parameter into its f64 matvec panel if not yet
     * done. Thread-safe and idempotent; called by every kF64
     * executor bind, so the packing happens once per snapshot.
     */
    void ensurePanels() const;

    /** Whether ensurePanels has completed. */
    bool
    hasPanels() const
    {
        return panelsReady_.load(std::memory_order_acquire);
    }

    /**
     * The packed f64 panel of parameter @p index (ensurePanels must
     * have completed).
     */
    const double *
    panelF64(int index) const
    {
        panic_if(!hasPanels(), "panelF64 before ensurePanels");
        return panelPtrs_[size_t(index)];
    }

    /**
     * The cache holding the f64 panels, for autograd graphs that
     * read the same frozen weights (the serving engine's reference
     * path): they find the panels already packed instead of packing
     * their own. Thread-safe; never reset, since the weights are
     * frozen for the snapshot's lifetime.
     */
    PanelCache &panelCache() const { return panels_; }

    // ---- f32 panels (lazy)

    /**
     * Build the float-narrowed weight panels if not yet built.
     * Thread-safe and idempotent; called by every kF32 executor
     * bind, so the conversion happens once per snapshot, not once
     * per shard.
     */
    void ensureF32() const;

    /** Whether ensureF32 has completed. */
    bool
    hasF32() const
    {
        return f32Ready_.load(std::memory_order_acquire);
    }

    /**
     * Base pointer of parameter @p index in the f32 panels
     * (ensureF32 must have completed).
     */
    const float *
    weightF32(int index) const
    {
        panic_if(!hasF32(), "weightF32 before ensureF32");
        return f32Weights_.data() + offsets_[size_t(index)];
    }

    /**
     * The projection of every row of parameter table @p table
     * through weight @p wx (lazy; cached once per (wx, table) pair
     * for the snapshot's lifetime). Row r of the result is the
     * shared matvec kernel's product of @p wx against table row r —
     * bit-identical to running that matvec at step time. @p rows is
     * the output height (4H for an LSTM input weight), @p in_dim the
     * table row width. T is double or float (float implies a prior
     * ensureF32).
     */
    template <typename T>
    const T *projTable(int wx, int table, int rows, int in_dim) const;

    // ---- Memory accounting (for the serving CLI / bench / tests)

    /** Bytes of the borrowed f64 ParamSet storage (not owned). */
    size_t f64Bytes() const;

    /** Bytes of the f64 matvec panels (0 until ensurePanels). */
    size_t
    panelBytes() const
    {
        return hasPanels() ? offsets_.back() * sizeof(double) : 0;
    }

    /** Bytes of the f32 panels (0 until ensureF32). */
    size_t
    f32Bytes() const
    {
        return hasF32() ? f32Weights_.size() * sizeof(float) : 0;
    }

    /** Bytes of all cached input projections (grows lazily). */
    size_t
    projBytes() const
    {
        return projBytesF64() + projBytesF32();
    }

    /** Bytes of the cached f64 / f32 input projections alone. */
    size_t projBytesF64() const;
    size_t projBytesF32() const;

    /** Bytes of the attached constant input columns. */
    size_t inputColumnBytes() const;

    /**
     * Bytes of derived state this snapshot holds once for all its
     * executors (f64 and f32 panels + projection tables + input
     * columns). The f64 weights themselves are excluded — they are
     * borrowed in place.
     */
    size_t
    sharedBytes() const
    {
        return panelBytes() + f32Bytes() + projBytes() +
               inputColumnBytes();
    }

  private:
    /** One published (wx, table) projection; append-only list node. */
    template <typename T> struct ProjNode
    {
        int wx = -1;
        int table = -1;
        std::vector<T> data;
        ProjNode *next = nullptr;
    };

    template <typename T> std::atomic<ProjNode<T> *> &projHead() const;

    const ParamSet &params_;
    std::shared_ptr<const void> owner_;
    std::once_flag columnsOnce_;
    std::atomic<bool> columnsSet_{false};
    std::vector<Tensor> inputColumns_;

    /** Per-tensor offsets into both panel sets (precomputed). */
    std::vector<size_t> offsets_;
    mutable PanelCache panels_;
    mutable std::once_flag panelsOnce_;
    mutable std::vector<const double *> panelPtrs_; ///< per parameter
    mutable std::atomic<bool> panelsReady_{false};
    mutable std::once_flag f32Once_;
    mutable std::vector<float> f32Weights_;
    mutable std::atomic<bool> f32Ready_{false};

    mutable std::atomic<ProjNode<double> *> projF64_{nullptr};
    mutable std::atomic<ProjNode<float> *> projF32_{nullptr};
};

} // namespace difftune::nn

#endif // DIFFTUNE_NN_SNAPSHOT_HH
