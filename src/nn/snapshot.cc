/**
 * @file
 * WeightSnapshot implementation: lazy f64 and f32 panels and the
 * lock-free projection-table cache.
 */

#include "nn/snapshot.hh"

#include "nn/matvec_inl.hh"

namespace difftune::nn
{

WeightSnapshot::WeightSnapshot(const ParamSet &params,
                               std::shared_ptr<const void> owner)
    : params_(params), owner_(std::move(owner))
{
    // Offsets are cheap (one size_t per tensor); precomputing them
    // here keeps ensurePanels and ensureF32 pure value fills.
    offsets_.reserve(params.count() + 1);
    size_t total = 0;
    for (size_t i = 0; i < params.count(); ++i) {
        offsets_.push_back(total);
        total += params[int(i)].size();
    }
    offsets_.push_back(total);
}

WeightSnapshot::~WeightSnapshot()
{
    for (ProjNode<double> *node = projF64_.load(); node != nullptr;) {
        ProjNode<double> *next = node->next;
        delete node;
        node = next;
    }
    for (ProjNode<float> *node = projF32_.load(); node != nullptr;) {
        ProjNode<float> *next = node->next;
        delete node;
        node = next;
    }
}

void
WeightSnapshot::setInputColumns(std::vector<Tensor> columns)
{
    // Columns are a pure function of the frozen checkpoint, so a
    // second engine binding the same snapshot computes identical
    // ones — the first caller wins, and call_once gives every later
    // caller a happens-before edge to the winner's write.
    std::call_once(columnsOnce_, [this, &columns] {
        inputColumns_ = std::move(columns);
        columnsSet_.store(true, std::memory_order_release);
    });
}

void
WeightSnapshot::ensurePanels() const
{
    std::call_once(panelsOnce_, [this] {
        // The one-time packing of every parameter tensor, shared by
        // every kF64 executor bound to this snapshot (and by graphs
        // using panelCache()).
        panelPtrs_.reserve(params_.count());
        for (size_t i = 0; i < params_.count(); ++i) {
            const Tensor &t = params_[int(i)];
            panelPtrs_.push_back(
                panels_.panel(t.data.data(), t.rows, t.cols));
        }
        panelsReady_.store(true, std::memory_order_release);
    });
}

void
WeightSnapshot::ensureF32() const
{
    std::call_once(f32Once_, [this] {
        // The one-time weight conversion: every parameter tensor,
        // narrowed to float, packed back to back. Shared by every
        // kF32 executor bound to this snapshot, so a W-shard engine
        // pays it once per checkpoint load instead of W times.
        f32Weights_.reserve(offsets_.back());
        for (size_t i = 0; i < params_.count(); ++i)
            for (double v : params_[int(i)].data)
                f32Weights_.push_back(float(v));
        f32Ready_.store(true, std::memory_order_release);
    });
}

template <> std::atomic<WeightSnapshot::ProjNode<double> *> &
WeightSnapshot::projHead() const
{
    return projF64_;
}

template <> std::atomic<WeightSnapshot::ProjNode<float> *> &
WeightSnapshot::projHead() const
{
    return projF32_;
}

template <typename T>
const T *
WeightSnapshot::projTable(int wx, int table, int rows, int in_dim) const
{
    std::atomic<ProjNode<T> *> &head = projHead<T>();
    for (ProjNode<T> *node = head.load(std::memory_order_acquire);
         node != nullptr; node = node->next)
        if (node->wx == wx && node->table == table)
            return node->data.data();

    // Miss: compute the projection, then publish with a CAS push.
    // Concurrent computations of the same pair produce identical
    // bytes (pure function of the frozen weights); the loser of the
    // race re-scans, finds the winner's entry and discards its own,
    // so the list never holds duplicates.
    const T *wxv;
    const T *tab;
    if constexpr (std::is_same_v<T, float>) {
        ensureF32();
        wxv = weightF32(wx);
        tab = weightF32(table);
    } else {
        ensurePanels();
        wxv = panelF64(wx);
        tab = params_[table].data.data();
    }
    const int table_rows = params_[table].rows;
    auto node = std::make_unique<ProjNode<T>>();
    node->wx = wx;
    node->table = table;
    node->data.resize(size_t(table_rows) * rows);
    for (int row = 0; row < table_rows; ++row)
        matvecForward(wxv, tab + size_t(row) * in_dim,
                      node->data.data() + size_t(row) * rows, rows,
                      in_dim);

    ProjNode<T> *expected = head.load(std::memory_order_acquire);
    while (true) {
        for (ProjNode<T> *seen = expected; seen != nullptr;
             seen = seen->next)
            if (seen->wx == wx && seen->table == table)
                return seen->data.data(); // lost the race; use theirs
        node->next = expected;
        if (head.compare_exchange_weak(expected, node.get(),
                                       std::memory_order_release,
                                       std::memory_order_acquire))
            return node.release()->data.data();
    }
}

template const double *WeightSnapshot::projTable<double>(int, int, int,
                                                         int) const;
template const float *WeightSnapshot::projTable<float>(int, int, int,
                                                       int) const;

size_t
WeightSnapshot::f64Bytes() const
{
    return params_.scalarCount() * sizeof(double);
}

size_t
WeightSnapshot::projBytesF64() const
{
    size_t bytes = 0;
    for (const ProjNode<double> *node =
             projF64_.load(std::memory_order_acquire);
         node != nullptr; node = node->next)
        bytes += node->data.size() * sizeof(double);
    return bytes;
}

size_t
WeightSnapshot::projBytesF32() const
{
    size_t bytes = 0;
    for (const ProjNode<float> *node =
             projF32_.load(std::memory_order_acquire);
         node != nullptr; node = node->next)
        bytes += node->data.size() * sizeof(float);
    return bytes;
}

size_t
WeightSnapshot::inputColumnBytes() const
{
    size_t bytes = 0;
    for (const Tensor &column : inputColumns_)
        bytes += column.size() * sizeof(double);
    return bytes;
}

} // namespace difftune::nn
