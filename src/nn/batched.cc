/**
 * @file
 * Batched forward-only execution kernels.
 *
 * Bit-stability contract: every per-lane expression below
 * replicates graph.cc's fused kernels exactly — each gate
 * pre-activation is (wx_r . x + wh_r . h) + b_r with both dot
 * products accumulated in ascending k order, and the cell update is
 * the per-element chain of lstmStep. Lanes are arithmetically
 * independent, so lockstep batching and the lane-blocked inner loops
 * (independent accumulator chains, k order preserved) cannot change
 * any lane's bits. When touching a kernel, keep the expression
 * associativity exactly as written.
 */

#include "nn/batched.hh"

#include "nn/matvec_inl.hh"

#include <algorithm>
#include <cmath>

namespace difftune::nn
{

BatchedForward::BatchedForward(
    std::shared_ptr<const WeightSnapshot> snapshot)
    : snapshot_(std::move(snapshot)), params_(snapshot_->params())
{
    // The panels live in the snapshot: the first bind pays the
    // one-time packing, every later bind reuses it.
    snapshot_->ensurePanels();
}

BatchedForward::BatchedForward(const ParamSet &params)
    : BatchedForward(std::make_shared<WeightSnapshot>(params))
{
}

void
BatchedForward::begin(int dim)
{
    panic_if(dim <= 0, "BatchedForward::begin: dim {} <= 0", dim);
    dim_ = dim;
    lanes_.clear();
    rowTab_.clear();
    rowIdx_.clear();
    in_.clear();
}

int
BatchedForward::addLane(int steps)
{
    panic_if(dim_ == 0, "addLane before begin()");
    panic_if(steps <= 0, "addLane: lane needs >= 1 steps, got {}",
             steps);
    Lane lane;
    lane.len = steps;
    lane.off = in_.size();
    in_.resize(lane.off + size_t(steps) * dim_);
    lane.step0 = int32_t(lane.off / size_t(dim_));
    rowTab_.resize(size_t(lane.step0) + size_t(steps), -1);
    rowIdx_.resize(size_t(lane.step0) + size_t(steps), -1);
    lanes_.push_back(lane);
    return int(lanes_.size()) - 1;
}

void
BatchedForward::setInput(int lane, int step, int offset,
                         const double *x, int n)
{
    panic_if(lane < 0 || size_t(lane) >= lanes_.size(),
             "setInput: lane {} of {}", lane, lanes_.size());
    panic_if(step < 0 || step >= lanes_[size_t(lane)].len,
             "setInput: step {} of {}", step,
             lanes_[size_t(lane)].len);
    panic_if(offset < 0 || offset + n > dim_,
             "setInput: [{}, {}) out of dim {}", offset, offset + n,
             dim_);
    const size_t at =
        lanes_[size_t(lane)].off + size_t(step) * dim_ + offset;
    // A raw write makes the step's value no longer a pure table row.
    rowTab_[size_t(lanes_[size_t(lane)].step0) + size_t(step)] = -1;
    std::copy(x, x + n, in_.begin() + long(at));
}

void
BatchedForward::setInputParamRow(int lane, int step, int offset,
                                 int table_index, int row)
{
    const Tensor &table = params_[table_index];
    panic_if(row < 0 || row >= table.rows,
             "setInputParamRow: row {} of {}", row, table.rows);
    setInput(lane, step, offset, table.row(row), table.cols);
    // A step whose whole input is one table row is marked with its
    // provenance so run() can use the precomputed Wx projection of
    // that row (an embedding gather skips its layer-0 input matvec);
    // setInput has already cleared the mark of any other step.
    if (offset == 0 && table.cols == dim_) {
        const size_t mark =
            size_t(lanes_[size_t(lane)].step0) + size_t(step);
        rowTab_[mark] = int32_t(table_index);
        rowIdx_[mark] = int32_t(row);
    }
}

void
BatchedForward::setInputPrevHidden(int lane, int step, int offset,
                                   int src_lane)
{
    panic_if(lastHidden_ == 0,
             "setInputPrevHidden: no previous run()");
    panic_if(lane < 0 || size_t(lane) >= lanes_.size(),
             "setInputPrevHidden: lane {} of {}", lane, lanes_.size());
    panic_if(step < 0 || step >= lanes_[size_t(lane)].len,
             "setInputPrevHidden: step {} of {}", step,
             lanes_[size_t(lane)].len);
    panic_if(offset < 0 || offset + lastHidden_ > dim_,
             "setInputPrevHidden: [{}, {}) out of dim {}", offset,
             offset + lastHidden_, dim_);
    const size_t at =
        lanes_[size_t(lane)].off + size_t(step) * dim_ + offset;
    rowTab_[size_t(lanes_[size_t(lane)].step0) + size_t(step)] = -1;
    panic_if(src_lane < 0 ||
                 size_t(src_lane + 1) * lastHidden_ > finalH_.size(),
             "setInputPrevHidden: bad source lane {}", src_lane);
    const double *src = finalH_.data() + size_t(src_lane) * lastHidden_;
    std::copy(src, src + lastHidden_, in_.begin() + long(at));
}

namespace
{

/**
 * The gate pre-activations of one lane at one step:
 *
 *     z = (Wx x + Wh h) + b
 *
 * computed exactly as graph.cc's fused lstmStep computes them — two
 * runs of the shared matvec kernel on the same packed panels and
 * one combining pass — so the batched forward is bit-identical to
 * the sequential engine by construction.
 *
 * The one divergence is an *exact* shortcut: at a lane's first step
 * the incoming hidden state is all zero, so the (4H x H) recurrent
 * matvec is skipped. Its degenerate per-row sum is always +0.0 —
 * the kernel's accumulators start at +0.0 and IEEE-754
 * round-to-nearest gives (+0.0) + (±0.0) = +0.0 for every
 * wh * 0.0 term — so adding a literal +0.0 reproduces the skipped
 * matvec bit for bit at one third fewer multiplies per first step.
 */
/** wxx may alias z (in-place combine), so neither is restrict. */
inline void
laneGatesCombine(const double *wxx, const double *__restrict wh,
                 const double *__restrict bias, const double *__restrict h,
                 double *z, double *__restrict scratch, int rows, int hidden)
{
    if (h) {
        matvecForward(wh, h, scratch, rows, hidden);
        for (int r = 0; r < rows; ++r)
            z[r] = (wxx[r] + scratch[r]) + bias[r];
    } else {
        for (int r = 0; r < rows; ++r)
            z[r] = (wxx[r] + 0.0) + bias[r];
    }
}

inline void
laneGates(const double *__restrict wx, const double *__restrict wh,
          const double *__restrict bias, const double *__restrict x,
          const double *__restrict h, double *__restrict z,
          double *__restrict scratch, int rows, int in_dim, int hidden)
{
    matvecForward(wx, x, z, rows, in_dim);
    laneGatesCombine(z, wh, bias, h, z, scratch, rows, hidden);
}

/**
 * The per-element LSTM cell update of one lane, gate order
 * [i f g o]: the exact expression chain of graph.cc's lstmStep
 * forward, libm exp/tanh included.
 */
inline void
laneCellUpdate(const double *__restrict z, double *__restrict h,
               double *__restrict c, int hidden)
{
    for (int i = 0; i < hidden; ++i) {
        const double gi = 1.0 / (1.0 + std::exp(-z[i]));
        const double gf = 1.0 / (1.0 + std::exp(-z[hidden + i]));
        const double gg = std::tanh(z[2 * hidden + i]);
        const double go = 1.0 / (1.0 + std::exp(-z[3 * hidden + i]));
        const double cnew = (gf * c[i]) + (gi * gg);
        h[i] = go * std::tanh(cnew);
        c[i] = cnew;
    }
}

} // namespace

void
BatchedForward::run(const LstmStackRef &stack)
{
    const int hidden = stack.hidden;
    const int layers = int(stack.layers.size());
    const int count = int(lanes_.size());
    panic_if(stack.inDim != dim_,
             "run: stack expects {}-wide inputs, batch was built "
             "with {}",
             stack.inDim, dim_);
    panic_if(layers == 0 || hidden == 0, "run: empty stack ref");

    lastHidden_ = hidden;
    finalH_.resize(size_t(count) * hidden);
    if (count == 0)
        return;

    // Sort lanes by descending length (stable): at step t the lanes
    // still running are the prefix [0, active) of the sorted order —
    // masking by exclusion, which cannot perturb the surviving
    // lanes' numerics.
    order_.resize(size_t(count));
    for (int i = 0; i < count; ++i)
        order_[size_t(i)] = i;
    std::stable_sort(order_.begin(), order_.end(),
                     [this](int a, int b) {
                         return lanes_[size_t(a)].len >
                                lanes_[size_t(b)].len;
                     });

    // Lane-major state: h/c of sorted lane s, layer l, at
    // [l * count + s] * hidden. The zero fill of c is load-bearing:
    // laneCellUpdate reads c at every lane's first step (gf * c[i]),
    // and the sequential engine's initial cell state is exactly
    // zero. h's zero fill is only defensive — the t = 0 shortcut in
    // laneGates never reads the initial hidden state.
    const size_t per_layer = size_t(count) * hidden;
    h_.assign(size_t(layers) * per_layer, 0.0);
    c_.assign(size_t(layers) * per_layer, 0.0);
    gates_.resize(size_t(8) * hidden); // z (4H) + wh scratch (4H)
    double *z = gates_.data();
    double *scratch = z + size_t(4) * hidden;

    const int max_len = lanes_[size_t(order_[0])].len;
    int active = count;
    for (int t = 0; t < max_len; ++t) {
        while (active > 0 &&
               lanes_[size_t(order_[size_t(active) - 1])].len <= t)
            --active;
        // Layer outer, lane inner: one layer's (Wx, Wh) panel is
        // streamed over every active lane back to back — the weight
        // reads stay cache-hot across the whole batch instead of
        // being re-fetched per block as in the sequential engine.
        // Lanes are arithmetically independent, so this order
        // change is invisible to the results.
        for (int l = 0; l < layers; ++l) {
            const LstmLayerRef &layer = stack.layers[size_t(l)];
            const int in_dim = l == 0 ? dim_ : hidden;
            const double *wx = snapshot_->panelF64(layer.wx);
            const double *wh = snapshot_->panelF64(layer.wh);
            // Read in place (the zero-copy argument from
            // Graph::param: weights are never written during a
            // forward pass).
            const double *bias = params_[layer.bias].data.data();
            double *hl = h_.data() + size_t(l) * per_layer;
            double *cl = c_.data() + size_t(l) * per_layer;
            for (int s = 0; s < active; ++s) {
                const Lane &lane =
                    lanes_[size_t(order_[size_t(s)])];
                double *h = hl + size_t(s) * hidden;
                double *c = cl + size_t(s) * hidden;
                const double *prev_h = t == 0 ? nullptr : h;
                const int32_t tab =
                    l == 0 ? rowTab_[size_t(lane.step0) + size_t(t)]
                           : -1;
                if (tab >= 0) {
                    // The step's input is row r of a parameter
                    // table (an embedding gather): its Wx product
                    // is precomputed per vocabulary entry — in the
                    // shared snapshot, once across all sibling
                    // executors — so the whole layer-0 input matvec
                    // is skipped.
                    const double *proj = snapshot_->projTable(
                        layer.wx, tab, 4 * hidden, in_dim);
                    const int32_t row =
                        rowIdx_[size_t(lane.step0) + size_t(t)];
                    laneGatesCombine(proj + size_t(row) * 4 * hidden,
                                     wh, bias, prev_h, z, scratch,
                                     4 * hidden, hidden);
                } else {
                    const double *x =
                        l == 0 ? in_.data() + lane.off +
                                     size_t(t) * dim_
                               : h - per_layer; // layer below
                    laneGates(wx, wh, bias, x, prev_h, z, scratch,
                              4 * hidden, in_dim, hidden);
                }
                laneCellUpdate(z, h, c, hidden);
            }
        }
        // Lanes ending at this step hand their top-layer hidden
        // state to finalH_, indexed by original lane id.
        const double *top = h_.data() + size_t(layers - 1) * per_layer;
        for (int s = 0; s < active; ++s) {
            const int id = order_[size_t(s)];
            if (lanes_[size_t(id)].len != t + 1)
                continue;
            const double *src = top + size_t(s) * hidden;
            std::copy(src, src + hidden,
                      finalH_.begin() + long(size_t(id) * hidden));
        }
    }
}

void
BatchedForward::headAll(const LinearRef &head, double *out) const
{
    panic_if(head.outDim != 1,
             "headAll expects a scalar head, got outDim {}",
             head.outDim);
    panic_if(head.inDim != lastHidden_,
             "headAll: head expects {} inputs, last run produced {}",
             head.inDim, lastHidden_);
    const double *w = params_[head.weight].data.data();
    const double b = params_[head.bias].data[0];
    for (size_t j = 0; j < lanes_.size(); ++j) {
        const double *hj = finalH_.data() + j * lastHidden_;
        double sum = 0;
        for (int k = 0; k < lastHidden_; ++k)
            sum += w[k] * hj[k];
        out[j] = sum + b;
    }
}

void
BatchedForward::finalHidden(int lane, double *out) const
{
    panic_if(lastHidden_ == 0, "finalHidden before run()");
    panic_if(lane < 0 ||
                 size_t(lane + 1) * lastHidden_ > finalH_.size(),
             "finalHidden: bad lane {}", lane);
    const double *src = finalH_.data() + size_t(lane) * lastHidden_;
    std::copy(src, src + lastHidden_, out);
}

} // namespace difftune::nn
