/**
 * @file
 * WeightSnapshot: one immutable, shareable bundle of everything a
 * forward-only executor derives from a frozen ParamSet.
 *
 * A WeightSnapshot borrows the frozen f64 ParamSet in place (zero
 * copy), packs the f64 matvec panels into a PanelCache lazily (once,
 * on the first executor bind), caches input projections once per
 * (weight, table) pair, and can carry the loader's precomputed
 * constant input columns (the serving engine's per-opcode
 * parameter-input tensors). Executors borrow the snapshot through a
 * shared_ptr, so any number of executors — across any number of
 * engines — share one copy of every derived table instead of one
 * copy each.
 *
 * # Immutability and thread safety
 *
 * The bound ParamSet must stay frozen for the snapshot's lifetime,
 * and the snapshot itself is logically immutable: every query
 * returns the same bytes forever. The lazy caches are built
 * thread-safely (ensurePanels via std::call_once; projection tables
 * via an append-only lock-free list with acquire/release
 * publication), and all are pure functions of the frozen weights,
 * so a racing reader either sees the published entry or computes
 * the identical value — results never depend on timing.
 * setInputColumns is the one setup-time mutation: call it before
 * the snapshot is shared across threads (the serving engine does so
 * at load time).
 *
 * Bit-exactness: the f64 panels are a permutation of the ParamSet
 * storage, and every projected row comes from the shared matvec
 * kernels (nn/matvec_inl.hh) — identical to what a private-copy
 * executor would compute, so sharing changes memory, never results.
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
     * done. Thread-safe and idempotent; called by every executor
     * bind, so the packing happens once per snapshot.
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

    /**
     * The projection of every row of parameter table @p table
     * through weight @p wx (lazy; cached once per (wx, table) pair
     * for the snapshot's lifetime). Row r of the result is the
     * shared matvec kernel's product of @p wx against table row r —
     * bit-identical to running that matvec at step time. @p rows is
     * the output height (4H for an LSTM input weight), @p in_dim the
     * table row width.
     */
    const double *projTable(int wx, int table, int rows, int in_dim) const;

    // ---- Memory accounting (for the serving CLI / bench / tests)

    /** Bytes of the borrowed f64 ParamSet storage (not owned). */
    size_t f64Bytes() const;

    /** Bytes of the f64 matvec panels (0 until ensurePanels). */
    size_t
    panelBytes() const
    {
        return hasPanels() ? f64Bytes() : 0;
    }

    /** Bytes of all cached input projections (grows lazily). */
    size_t projBytes() const;

    /** Bytes of the attached constant input columns. */
    size_t inputColumnBytes() const;

    /**
     * Bytes of derived state this snapshot holds once for all its
     * executors (panels + projection tables + input columns). The
     * f64 weights themselves are excluded — they are borrowed in
     * place.
     */
    size_t
    sharedBytes() const
    {
        return panelBytes() + projBytes() + inputColumnBytes();
    }

  private:
    /** One published (wx, table) projection; append-only list node. */
    struct ProjNode
    {
        int wx = -1;
        int table = -1;
        std::vector<double> data;
        ProjNode *next = nullptr;
    };

    const ParamSet &params_;
    std::shared_ptr<const void> owner_;
    std::once_flag columnsOnce_;
    std::atomic<bool> columnsSet_{false};
    std::vector<Tensor> inputColumns_;

    mutable PanelCache panels_;
    mutable std::once_flag panelsOnce_;
    mutable std::vector<const double *> panelPtrs_; ///< per parameter
    mutable std::atomic<bool> panelsReady_{false};

    mutable std::atomic<ProjNode *> proj_{nullptr};
};

} // namespace difftune::nn

#endif // DIFFTUNE_NN_SNAPSHOT_HH
