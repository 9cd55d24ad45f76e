/**
 * @file
 * Autograd implementation: arena-backed tape, tagged-op dispatch and
 * the fused-op kernels.
 *
 * Bit-stability contract: every kernel — fused or primitive —
 * replicates the per-element expression shape and accumulation order
 * of the original node-per-op engine, so the rewrite is invisible to
 * the golden-regression suite (tests/golden/). When touching a
 * backward case, keep the expression associativity exactly as
 * written; (g * y) * (1 - y) and g * (y * (1 - y)) differ in the
 * last ulp. The matvec forward and backward kernels come from the
 * runtime-selected kernel table (nn/matvec_dispatch.hh), whose every
 * path keeps that order too.
 */

#include "nn/graph.hh"

#include "nn/matvec_inl.hh"
#include "nn/ref_kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace difftune::nn
{

// ---------------------------------------------------------------- ParamSet

size_t
ParamSet::scalarCount() const
{
    size_t total = 0;
    for (const auto &p : params_)
        total += p.size();
    return total;
}

std::string
ParamSet::save() const
{
    std::ostringstream os;
    os.precision(17);
    os << "difftune-nn v1 " << params_.size() << "\n";
    for (const auto &p : params_) {
        os << p.rows << ' ' << p.cols;
        for (double v : p.data)
            os << ' ' << v;
        os << '\n';
    }
    return os.str();
}

void
ParamSet::load(const std::string &text)
{
    std::istringstream is(text);
    std::string magic, version;
    size_t count = 0;
    is >> magic >> version >> count;
    fatal_if(magic != "difftune-nn",
             "bad model file (magic '{}', expected 'difftune-nn')",
             magic);
    fatal_if(version != "v1",
             "unsupported model file version '{}' (expected 'v1')",
             version);
    fatal_if(count != params_.size(),
             "bad model file (|params| {} vs expected {})", count,
             params_.size());
    for (auto &p : params_) {
        int rows = 0, cols = 0;
        is >> rows >> cols;
        fatal_if(rows != p.rows || cols != p.cols,
                 "model file shape mismatch: {}x{} vs {}x{}", rows, cols,
                 p.rows, p.cols);
        for (double &v : p.data)
            is >> v;
    }
    fatal_if(!is, "truncated model file");
}

// ------------------------------------------------------------------- Grads

Grads::Grads(const ParamSet &params)
{
    grads_.reserve(params.count());
    for (size_t i = 0; i < params.count(); ++i)
        grads_.emplace_back(params[int(i)].rows, params[int(i)].cols);
}

void
Grads::zero()
{
    for (auto &g : grads_)
        g.zero();
}

void
Grads::addFrom(const Grads &other)
{
    panic_if(grads_.size() != other.grads_.size(),
             "grads size mismatch");
    for (size_t i = 0; i < grads_.size(); ++i)
        grads_[i].addInPlace(other.grads_[i]);
}

void
Grads::scale(double factor)
{
    for (auto &g : grads_)
        for (double &v : g.data)
            v *= factor;
}

double
Grads::l2Norm() const
{
    double total = 0.0;
    for (const auto &g : grads_)
        for (double v : g.data)
            total += v * v;
    return std::sqrt(total);
}

double
Grads::clipFactor(double max_norm) const
{
    const double norm = l2Norm();
    return norm > max_norm && norm > 0.0 ? max_norm / norm : 1.0;
}

void
Grads::clipL2(double max_norm)
{
    const double factor = clipFactor(max_norm);
    if (factor != 1.0)
        scale(factor);
}

// ------------------------------------------------------------- DoubleArena

double *
DoubleArena::alloc(size_t n)
{
    if (n == 0)
        return nullptr;
    // Skipped slab remainders stay unused until the next reset();
    // identical allocation sequences therefore always land on
    // identical addresses.
    while (cur_ < slabs_.size() &&
           slabs_[cur_].used + n > slabs_[cur_].cap)
        ++cur_;
    if (cur_ == slabs_.size()) {
        // Geometric slab growth: short-lived graphs pay one small
        // allocation, big reused graphs converge on a few large
        // slabs. Deliberately uninitialized — values are always
        // written before being read, gradients are zeroed per
        // backward() sweep.
        size_t cap = slabs_.empty()
                         ? firstSlabDoubles
                         : std::min(slabs_.back().cap * 4,
                                    maxSlabDoubles);
        if (cap < n)
            cap = n;
        Slab slab;
        slab.cap = cap;
        slab.data = std::unique_ptr<double[]>(new double[cap]);
        slabs_.push_back(std::move(slab));
    }
    Slab &slab = slabs_[cur_];
    double *ptr = slab.data.get() + slab.used;
    slab.used += n;
    used_ += n;
    return ptr;
}

void
DoubleArena::reset()
{
    for (Slab &slab : slabs_)
        slab.used = 0;
    cur_ = 0;
    used_ = 0;
}

void
DoubleArena::zeroUsed()
{
    for (Slab &slab : slabs_) {
        if (slab.used)
            std::memset(slab.data.get(), 0,
                        slab.used * sizeof(double));
    }
}

// ------------------------------------------------------------------- Graph

void
Graph::clear()
{
    nodes_.clear();
    paramCache_.clear();
    extraVars_.clear();
    extraData_.clear();
    pendingSlots_ = 0;
    varena_.reset();
    garena_.reset();
}

namespace
{

uint64_t
paramKey(const ParamSet &params, int index, int row)
{
    uint64_t key = reinterpret_cast<uint64_t>(&params);
    key ^= uint64_t(index + 1) * 0x9e3779b97f4a7c15ULL;
    key ^= uint64_t(row + 2) * 0xc2b2ae3d27d4eb4fULL;
    return key;
}

void
checkSameShape(int ar, int ac, int br, int bc, const char *op)
{
    panic_if(ar != br || ac != bc,
             "{}: shape mismatch {}x{} vs {}x{}", op, ar, ac, br, bc);
}

} // namespace

// -------------------------------------------------------------- PanelCache

const double *
PanelCache::panel(const double *w, int rows, int cols)
{
    // Packing under the lock is fine: it happens once per weight per
    // batch, and a racing shard needs the same panel anyway.
    std::lock_guard lock(mutex_);
    Entry *entry = nullptr;
    for (Entry &e : entries_) {
        if (e.w == w && e.rows == rows && e.cols == cols) {
            entry = &e;
            break;
        }
    }
    if (!entry) {
        entry = &entries_.emplace_back();
        entry->w = w;
        entry->rows = rows;
        entry->cols = cols;
        entry->data.resize(size_t(rows) * cols);
    }
    if (!entry->packed) {
        packPanel(w, entry->data.data(), rows, cols);
        entry->packed = true;
    }
    return entry->data.data();
}

void
PanelCache::reset()
{
    entries_.remove_if([](const Entry &e) { return !e.packed; });
    for (Entry &e : entries_)
        e.packed = false;
}

Var
Graph::pushNode(Op op, int rows, int cols, bool requires_grad,
                size_t aux_doubles)
{
    Node n;
    n.op = op;
    n.rows = rows;
    n.cols = cols;
    n.requiresGrad = requires_grad;
    n.val = varena_.alloc(size_t(rows) * cols);
    if (requires_grad)
        n.grad = garena_.alloc(size_t(rows) * cols);
    if (aux_doubles)
        n.aux = varena_.alloc(aux_doubles);
    nodes_.push_back(n);
    return Var{int32_t(nodes_.size()) - 1};
}

Var
Graph::pushAliasNode(Op op, int rows, int cols, bool requires_grad,
                     double *val)
{
    Node n;
    n.op = op;
    n.rows = rows;
    n.cols = cols;
    n.requiresGrad = requires_grad;
    n.val = val;
    if (requires_grad)
        n.grad = garena_.alloc(size_t(rows) * cols);
    nodes_.push_back(n);
    return Var{int32_t(nodes_.size()) - 1};
}

void
Graph::weightMatvec(Var w, const double *x, double *out)
{
    Node &wn = node(w);
    if (wn.op != Op::Param) {
        matvecForwardScalarT(wn.val, x, out, wn.rows, wn.cols);
        return;
    }
    if (!wn.aux) {
        if (panelCache_) {
            // Read-only like the weight itself; aux is just the slot.
            wn.aux = const_cast<double *>(
                panelCache_->panel(wn.val, wn.rows, wn.cols));
        } else {
            wn.aux = varena_.alloc(size_t(wn.rows) * wn.cols);
            packPanel(wn.val, wn.aux, wn.rows, wn.cols);
        }
    }
    matvecForward(wn.aux, x, out, wn.rows, wn.cols);
}

TensorView
Graph::value(Var v) const
{
    const Node &n = node(v);
    return TensorView{n.rows, n.cols, n.val};
}

TensorView
Graph::grad(Var v) const
{
    const Node &n = node(v);
    return TensorView{n.rows, n.cols, n.grad};
}

double
Graph::scalarValue(Var v) const
{
    return node(v).val[0];
}

// ---- Leaves

Var
Graph::input(const Tensor &value)
{
    Var v = pushNode(Op::Input, value.rows, value.cols, false);
    std::memcpy(node(v).val, value.data.data(),
                value.size() * sizeof(double));
    return v;
}

Var
Graph::inputScalar(double value)
{
    Var v = pushNode(Op::Input, 1, 1, false);
    node(v).val[0] = value;
    return v;
}

Var
Graph::zeros(int rows, int cols)
{
    Var v = pushNode(Op::Input, rows, cols, false);
    std::memset(node(v).val, 0, size_t(rows) * cols * sizeof(double));
    return v;
}

Var
Graph::param(const ParamSet &params, int index, Grads *sink)
{
    const uint64_t key = paramKey(params, index, -1);
    for (const auto &[cached_key, var] : paramCache_)
        if (cached_key == key)
            return var;

    // Zero-copy: a parameter leaf aliases the ParamSet's storage
    // (never written through; optimizer steps happen between graph
    // lifetimes, not during them). Its gradient buffer, if it needs
    // one, is allocated by backward() (see deferWeightGrad()).
    const Tensor &value = params[index];
    Var var = pushAliasNode(Op::Param, value.rows, value.cols, false,
                            const_cast<double *>(value.data.data()));
    Node &n = node(var);
    n.requiresGrad = sink != nullptr;
    n.sink = sink;
    n.i0 = index;
    if (sink) {
        if (pendingSlots_ == pending_.size())
            pending_.emplace_back();
        n.extra = int32_t(pendingSlots_++);
    }
    paramCache_.emplace_back(key, var);
    return var;
}

Var
Graph::paramRow(const ParamSet &params, int index, int row, Grads *sink)
{
    const Tensor &table = params[index];
    panic_if(row < 0 || row >= table.rows,
             "paramRow: row {} out of {} rows", row, table.rows);
    const uint64_t key = paramKey(params, index, row);
    for (const auto &[cached_key, var] : paramCache_)
        if (cached_key == key)
            return var;

    // A row of a row-major matrix is contiguous: the gathered column
    // vector aliases it directly (same zero-copy argument as param()).
    Var var = pushAliasNode(Op::ParamRow, table.cols, 1,
                            sink != nullptr,
                            const_cast<double *>(table.row(row)));
    Node &n = node(var);
    n.sink = sink;
    n.i0 = index;
    n.i1 = row;
    paramCache_.emplace_back(key, var);
    return var;
}

// ---- Primitive ops

Var
Graph::matmul(Var a, Var b)
{
    const Node &an = node(a);
    const Node &bn = node(b);
    panic_if(an.cols != bn.rows, "matmul: {}x{} * {}x{}", an.rows,
             an.cols, bn.rows, bn.cols);
    const bool needs = an.requiresGrad || bn.requiresGrad;
    Var v = pushNode(Op::Matmul, an.rows, bn.cols, needs);
    Node &n = node(v);
    n.a = a.id;
    n.b = b.id;
    const double *av = node(a).val;
    const double *bv = node(b).val;
    const int m = n.rows, k = node(a).cols, cols = n.cols;
    if (cols == 1) {
        // Fast matrix-vector path: every LSTM/linear op lands here.
        if (refKernels_)
            refMatvecForward(av, bv, n.val, m, k);
        else
            weightMatvec(a, bv, n.val);
    } else {
        std::memset(n.val, 0, size_t(m) * cols * sizeof(double));
        for (int i = 0; i < m; ++i) {
            const double *arow = av + size_t(i) * k;
            double *orow = n.val + size_t(i) * cols;
            for (int p = 0; p < k; ++p) {
                const double aik = arow[p];
                const double *brow = bv + size_t(p) * cols;
                for (int j = 0; j < cols; ++j)
                    orow[j] += aik * brow[j];
            }
        }
    }
    return v;
}

Var
Graph::add(Var a, Var b)
{
    const Node &an = node(a);
    const Node &bn = node(b);
    checkSameShape(an.rows, an.cols, bn.rows, bn.cols, "add");
    const bool needs = an.requiresGrad || bn.requiresGrad;
    Var v = pushNode(Op::Add, an.rows, an.cols, needs);
    Node &n = node(v);
    n.a = a.id;
    n.b = b.id;
    const double *av = node(a).val;
    const double *bv = node(b).val;
    const size_t count = size_t(n.rows) * n.cols;
    for (size_t i = 0; i < count; ++i)
        n.val[i] = av[i] + bv[i];
    return v;
}

Var
Graph::sub(Var a, Var b)
{
    const Node &an = node(a);
    const Node &bn = node(b);
    checkSameShape(an.rows, an.cols, bn.rows, bn.cols, "sub");
    const bool needs = an.requiresGrad || bn.requiresGrad;
    Var v = pushNode(Op::Sub, an.rows, an.cols, needs);
    Node &n = node(v);
    n.a = a.id;
    n.b = b.id;
    const double *av = node(a).val;
    const double *bv = node(b).val;
    const size_t count = size_t(n.rows) * n.cols;
    for (size_t i = 0; i < count; ++i)
        n.val[i] = av[i] - bv[i];
    return v;
}

Var
Graph::mul(Var a, Var b)
{
    const Node &an = node(a);
    const Node &bn = node(b);
    checkSameShape(an.rows, an.cols, bn.rows, bn.cols, "mul");
    const bool needs = an.requiresGrad || bn.requiresGrad;
    Var v = pushNode(Op::Mul, an.rows, an.cols, needs);
    Node &n = node(v);
    n.a = a.id;
    n.b = b.id;
    const double *av = node(a).val;
    const double *bv = node(b).val;
    const size_t count = size_t(n.rows) * n.cols;
    for (size_t i = 0; i < count; ++i)
        n.val[i] = av[i] * bv[i];
    return v;
}

Var
Graph::scale(Var a, double c)
{
    const Node &an = node(a);
    Var v = pushNode(Op::Scale, an.rows, an.cols, an.requiresGrad);
    Node &n = node(v);
    n.a = a.id;
    n.c0 = c;
    const double *av = node(a).val;
    const size_t count = size_t(n.rows) * n.cols;
    for (size_t i = 0; i < count; ++i)
        n.val[i] = av[i] * c;
    return v;
}

Var
Graph::scaleByVec(Var a, const std::vector<double> &factors)
{
    const Node &an = node(a);
    const size_t count = size_t(an.rows) * an.cols;
    panic_if(factors.size() != count,
             "scaleByVec: {} factors for {} elements", factors.size(),
             count);
    Var v = pushNode(Op::ScaleVec, an.rows, an.cols, an.requiresGrad);
    Node &n = node(v);
    n.a = a.id;
    n.extra = int32_t(extraData_.size());
    extraData_.insert(extraData_.end(), factors.begin(), factors.end());
    const double *av = node(a).val;
    const double *f = extraData_.data() + n.extra;
    for (size_t i = 0; i < count; ++i)
        n.val[i] = av[i] * f[i];
    return v;
}

Var
Graph::unaryElementwise(Op op, Var a)
{
    const Node &an = node(a);
    Var v = pushNode(op, an.rows, an.cols, an.requiresGrad);
    Node &n = node(v);
    n.a = a.id;
    const double *av = node(a).val;
    const size_t count = size_t(n.rows) * n.cols;
    switch (op) {
    case Op::Sigmoid:
        for (size_t i = 0; i < count; ++i)
            n.val[i] = 1.0 / (1.0 + std::exp(-av[i]));
        break;
    case Op::Tanh:
        for (size_t i = 0; i < count; ++i)
            n.val[i] = std::tanh(av[i]);
        break;
    case Op::Relu:
        for (size_t i = 0; i < count; ++i)
            n.val[i] = av[i] > 0.0 ? av[i] : 0.0;
        break;
    case Op::Abs:
        for (size_t i = 0; i < count; ++i)
            n.val[i] = std::fabs(av[i]);
        break;
    case Op::Exp:
        for (size_t i = 0; i < count; ++i)
            n.val[i] = std::exp(std::min(av[i], 30.0));
        break;
    default:
        panic_if(true, "unaryElementwise: bad op");
    }
    return v;
}

Var
Graph::sigmoid(Var a)
{
    return unaryElementwise(Op::Sigmoid, a);
}

Var
Graph::tanh(Var a)
{
    return unaryElementwise(Op::Tanh, a);
}

Var
Graph::relu(Var a)
{
    return unaryElementwise(Op::Relu, a);
}

Var
Graph::abs(Var a)
{
    return unaryElementwise(Op::Abs, a);
}

Var
Graph::exp(Var a)
{
    return unaryElementwise(Op::Exp, a);
}

Var
Graph::slice(Var a, int row0, int nrows)
{
    const Node &an = node(a);
    panic_if(an.cols != 1, "slice expects a column vector");
    panic_if(row0 < 0 || row0 + nrows > an.rows,
             "slice [{}:{}) out of {} rows", row0, row0 + nrows,
             an.rows);
    // Zero-copy: a slice's value aliases its input's storage (node
    // values are immutable once computed).
    Var v = pushAliasNode(Op::Slice, nrows, 1, an.requiresGrad,
                          node(a).val + row0);
    Node &n = node(v);
    n.a = a.id;
    n.i0 = row0;
    return v;
}

Var
Graph::concat(const std::vector<Var> &parts)
{
    int total = 0;
    bool needs = false;
    for (Var part : parts) {
        panic_if(node(part).cols != 1, "concat expects column vectors");
        total += node(part).rows;
        needs = needs || node(part).requiresGrad;
    }
    Var v = pushNode(Op::Concat, total, 1, needs);
    Node &n = node(v);
    n.extra = int32_t(extraVars_.size());
    n.i0 = int32_t(parts.size());
    for (Var part : parts)
        extraVars_.push_back(part.id);
    int offset = 0;
    for (Var part : parts) {
        const Node &pn = node(part);
        std::memcpy(n.val + offset, pn.val,
                    size_t(pn.rows) * sizeof(double));
        offset += pn.rows;
    }
    return v;
}

// ---- Fused ops

Var
Graph::linear(Var w, Var x, Var b, Act act)
{
    const Node &wn = node(w);
    const Node &xn = node(x);
    const Node &bn = node(b);
    panic_if(xn.cols != 1 || bn.cols != 1,
             "linear expects column-vector x and b");
    panic_if(wn.cols != xn.rows || wn.rows != bn.rows,
             "linear: {}x{} * {}x1 + {}x1", wn.rows, wn.cols, xn.rows,
             bn.rows);
    const bool needs =
        wn.requiresGrad || xn.requiresGrad || bn.requiresGrad;
    Var v = pushNode(Op::Linear, wn.rows, 1, needs);
    Node &n = node(v);
    n.a = w.id;
    n.b = x.id;
    n.c = b.id;
    n.act = act;
    const double *xv = node(x).val;
    const double *bv = node(b).val;
    const int out = n.rows;
    weightMatvec(w, xv, n.val);
    for (int i = 0; i < out; ++i) {
        const double z = n.val[i] + bv[i];
        switch (act) {
        case Act::None:
            n.val[i] = z;
            break;
        case Act::Sigmoid:
            n.val[i] = 1.0 / (1.0 + std::exp(-z));
            break;
        case Act::Tanh:
            n.val[i] = std::tanh(z);
            break;
        case Act::Relu:
            n.val[i] = z > 0.0 ? z : 0.0;
            break;
        }
    }
    return v;
}

Graph::LstmState
Graph::lstmStep(Var wx, Var wh, Var bias, Var x, Var h, Var c)
{
    const Node &wxn = node(wx);
    const Node &whn = node(wh);
    const Node &bn = node(bias);
    const Node &xn = node(x);
    const Node &hn = node(h);
    const Node &cn = node(c);
    const int hidden = cn.rows;
    const int in = xn.rows;
    panic_if(xn.cols != 1 || hn.cols != 1 || cn.cols != 1 ||
                 bn.cols != 1,
             "lstmStep expects column vectors");
    panic_if(wxn.rows != 4 * hidden || wxn.cols != in ||
                 whn.rows != 4 * hidden || whn.cols != hidden ||
                 bn.rows != 4 * hidden || hn.rows != hidden,
             "lstmStep: inconsistent shapes (hidden {}, in {})", hidden,
             in);
    const bool needs = wxn.requiresGrad || whn.requiresGrad ||
                       bn.requiresGrad || xn.requiresGrad ||
                       hn.requiresGrad || cn.requiresGrad;
    // Value [h'; c'] (2H); aux: post-activation gates [i f g o] (4H),
    // tanh(c') (H), and backward dz scratch (4H).
    Var v = pushNode(Op::LstmCell, 2 * hidden, 1, needs,
                     size_t(9) * hidden);
    Node &n = node(v);
    n.a = wx.id;
    n.b = wh.id;
    n.c = bias.id;
    n.i0 = hidden;
    n.extra = int32_t(extraVars_.size());
    extraVars_.push_back(x.id);
    extraVars_.push_back(h.id);
    extraVars_.push_back(c.id);

    const double *bv = node(bias).val;
    const double *xv = node(x).val;
    const double *hv = node(h).val;
    const double *cv = node(c).val;
    double *gates = n.aux;
    double *tanh_c = n.aux + 4 * hidden;

    // Pre-activations z = (Wx x + Wh h) + b, in the reference
    // engine's summation order. The dz scratch area doubles as a
    // forward temporary for the Wh h product.
    double *scratch = n.aux + 5 * hidden;
    weightMatvec(wx, xv, gates);
    weightMatvec(wh, hv, scratch);
    for (int r = 0; r < 4 * hidden; ++r)
        gates[r] = (gates[r] + scratch[r]) + bv[r];
    // Gate activations and the state update, gate order [i f g o].
    for (int i = 0; i < hidden; ++i) {
        const double gi = 1.0 / (1.0 + std::exp(-gates[i]));
        const double gf =
            1.0 / (1.0 + std::exp(-gates[hidden + i]));
        const double gg = std::tanh(gates[2 * hidden + i]);
        const double go =
            1.0 / (1.0 + std::exp(-gates[3 * hidden + i]));
        gates[i] = gi;
        gates[hidden + i] = gf;
        gates[2 * hidden + i] = gg;
        gates[3 * hidden + i] = go;
        const double cnew = (gf * cv[i]) + (gi * gg);
        const double tc = std::tanh(cnew);
        tanh_c[i] = tc;
        n.val[i] = go * tc;
        n.val[hidden + i] = cnew;
    }
    return LstmState{slice(v, 0, hidden), slice(v, hidden, hidden)};
}

Var
Graph::dot(Var a, Var b)
{
    const Node &an = node(a);
    const Node &bn = node(b);
    panic_if(an.cols != 1 || bn.cols != 1 || an.rows != bn.rows,
             "dot: {}x{} . {}x{}", an.rows, an.cols, bn.rows, bn.cols);
    const bool needs = an.requiresGrad || bn.requiresGrad;
    Var v = pushNode(Op::Dot, 1, 1, needs);
    Node &n = node(v);
    n.a = a.id;
    n.b = b.id;
    const double *av = node(a).val;
    const double *bv = node(b).val;
    double sum = 0.0;
    for (int i = 0; i < node(a).rows; ++i)
        sum += av[i] * bv[i];
    n.val[0] = sum;
    return v;
}

Var
Graph::scaledSoftClamp(Var a, const std::vector<double> &scales,
                       double cap)
{
    const Node &an = node(a);
    const size_t count = size_t(an.rows) * an.cols;
    panic_if(scales.size() != count,
             "scaledSoftClamp: {} scales for {} elements",
             scales.size(), count);
    panic_if(cap <= 0.0, "scaledSoftClamp: cap must be positive");
    Var v = pushNode(Op::SoftClamp, an.rows, an.cols, an.requiresGrad,
                     count);
    Node &n = node(v);
    n.a = a.id;
    n.c0 = cap;
    n.c1 = 1.0 / cap;
    n.extra = int32_t(extraData_.size());
    extraData_.insert(extraData_.end(), scales.begin(), scales.end());
    const double *av = node(a).val;
    const double *s = extraData_.data() + n.extra;
    // Reference chain: scale(tanh(scale(scaleByVec(abs(a), s),
    // 1/cap)), cap), one multiply at a time.
    for (size_t i = 0; i < count; ++i) {
        const double t1 = std::fabs(av[i]);
        const double t2 = t1 * s[i];
        const double t3 = t2 * n.c1;
        const double t4 = std::tanh(t3);
        n.aux[i] = t4;
        n.val[i] = t4 * cap;
    }
    return v;
}

// ---- Losses

Var
Graph::lossNode(Op op, Var pred, double target, double value,
                double denom)
{
    Var v = pushNode(op, 1, 1, node(pred).requiresGrad);
    Node &n = node(v);
    n.a = pred.id;
    n.c0 = target;
    n.c1 = denom;
    n.val[0] = value;
    return v;
}

Var
Graph::lossMape(Var pred, double target, double floor)
{
    panic_if(node(pred).rows * node(pred).cols != 1,
             "lossMape expects a scalar");
    const double denom = std::max(target, floor);
    const double p = scalarValue(pred);
    return lossNode(Op::LossMape, pred, target,
                    std::fabs(p - target) / denom, denom);
}

Var
Graph::lossMae(Var pred, double target)
{
    panic_if(node(pred).rows * node(pred).cols != 1,
             "lossMae expects a scalar");
    const double p = scalarValue(pred);
    return lossNode(Op::LossMae, pred, target, std::fabs(p - target),
                    0.0);
}

Var
Graph::lossMse(Var pred, double target)
{
    panic_if(node(pred).rows * node(pred).cols != 1,
             "lossMse expects a scalar");
    const double p = scalarValue(pred);
    return lossNode(Op::LossMse, pred, target,
                    (p - target) * (p - target), 0.0);
}

// ---- Backward

namespace
{

/**
 * dW[i,:] += dz_i * x^T and dx += W^T dz, in reference order (rows
 * ascending, the dz_i == 0 rows skipped exactly as the primitive
 * matmul backward does), through the selected kernel table's
 * rank-K (K = 1) and transposed entries. Values and gradients live
 * in separate arenas, so no operand aliases another. A K = 1 update
 * adds +0.0 + dz_i * x_j, which equals adding dz_i * x_j to any
 * element that is not -0.0; a tape gradient buffer starts at +0.0
 * and only ever has values added to it, so it never holds -0.0.
 */
inline void
matvecBackward(const double *wv, double *wgrad, bool w_live,
               const double *xv, double *xgrad, bool x_live, int rows,
               int cols, const double *dz)
{
    const MatvecKernels &kernels = matvecKernels();
    if (w_live)
        kernels.rankKF64(wgrad, &dz, &xv, 1, rows, cols);
    if (x_live)
        kernels.transposedF64(wv, dz, xgrad, rows, cols);
}

} // namespace

void
Graph::backwardNode(Node &n)
{
    const size_t count = size_t(n.rows) * n.cols;
    const double *g = n.grad;
    switch (n.op) {
    case Op::Input:
        break;

    case Op::Param: {
        Tensor &t = (*n.sink)[n.i0];
        if (!g) {
            // Only LSTM cells wrote this weight's gradient: their
            // deferred terms go into the sink in one pass.
            const PendingTerms &terms = pending_[size_t(n.extra)];
            matvecKernels().rankKF64(t.data.data(), terms.dz.data(),
                                     terms.x.data(),
                                     int(terms.dz.size()), n.rows,
                                     n.cols);
            break;
        }
        for (size_t i = 0; i < count; ++i)
            t.data[i] += g[i];
        break;
    }

    case Op::ParamRow: {
        Tensor &t = (*n.sink)[n.i0];
        for (int c = 0; c < t.cols; ++c)
            t.at(n.i1, c) += g[c];
        break;
    }

    case Op::Matmul: {
        Node &an = nodes_[n.a];
        Node &bn = nodes_[n.b];
        const int m = n.rows, k = an.cols, cols = n.cols;
        if (cols == 1 && n.a == n.b) {
            // matmul(a, a): both gradients land in one buffer, which
            // the __restrict fast path must not touch. Reference
            // accumulation order: dA first, then dB.
            for (int i = 0; i < m; ++i) {
                const double dci = g[i];
                if (dci == 0.0)
                    continue;
                double *row = an.grad + size_t(i) * k;
                for (int p = 0; p < k; ++p)
                    row[p] += dci * an.val[p];
            }
            for (int i = 0; i < m; ++i) {
                const double dci = g[i];
                if (dci == 0.0)
                    continue;
                const double *row = an.val + size_t(i) * k;
                for (int p = 0; p < k; ++p)
                    an.grad[p] += row[p] * dci;
            }
        } else if (cols == 1 && refKernels_) {
            refMatvecBackward(an.val,
                              an.requiresGrad ? an.grad : nullptr,
                              bn.val,
                              bn.requiresGrad ? bn.grad : nullptr, m,
                              k, g);
        } else if (cols == 1) {
            matvecBackward(an.val, an.requiresGrad ? an.grad : nullptr,
                           an.requiresGrad, bn.val,
                           bn.requiresGrad ? bn.grad : nullptr,
                           bn.requiresGrad, m, k, g);
        } else {
            if (an.requiresGrad) {
                // dA += dC * B^T
                for (int i = 0; i < m; ++i)
                    for (int p = 0; p < k; ++p) {
                        double sum = 0.0;
                        for (int j = 0; j < cols; ++j)
                            sum += g[size_t(i) * cols + j] *
                                   bn.val[size_t(p) * cols + j];
                        an.grad[size_t(i) * k + p] += sum;
                    }
            }
            if (bn.requiresGrad) {
                // dB += A^T * dC
                for (int p = 0; p < k; ++p)
                    for (int j = 0; j < cols; ++j) {
                        double sum = 0.0;
                        for (int i = 0; i < m; ++i)
                            sum += an.val[size_t(i) * k + p] *
                                   g[size_t(i) * cols + j];
                        bn.grad[size_t(p) * cols + j] += sum;
                    }
            }
        }
        if (an.requiresGrad)
            an.gradLive = true;
        if (bn.requiresGrad)
            bn.gradLive = true;
        break;
    }

    case Op::Add: {
        Node &an = nodes_[n.a];
        Node &bn = nodes_[n.b];
        if (an.requiresGrad) {
            an.gradLive = true;
            for (size_t i = 0; i < count; ++i)
                an.grad[i] += g[i];
        }
        if (bn.requiresGrad) {
            bn.gradLive = true;
            for (size_t i = 0; i < count; ++i)
                bn.grad[i] += g[i];
        }
        break;
    }

    case Op::Sub: {
        Node &an = nodes_[n.a];
        Node &bn = nodes_[n.b];
        if (an.requiresGrad) {
            an.gradLive = true;
            for (size_t i = 0; i < count; ++i)
                an.grad[i] += g[i];
        }
        if (bn.requiresGrad) {
            bn.gradLive = true;
            for (size_t i = 0; i < count; ++i)
                bn.grad[i] -= g[i];
        }
        break;
    }

    case Op::Mul: {
        Node &an = nodes_[n.a];
        Node &bn = nodes_[n.b];
        if (an.requiresGrad) {
            an.gradLive = true;
            for (size_t i = 0; i < count; ++i)
                an.grad[i] += g[i] * bn.val[i];
        }
        if (bn.requiresGrad) {
            bn.gradLive = true;
            for (size_t i = 0; i < count; ++i)
                bn.grad[i] += g[i] * an.val[i];
        }
        break;
    }

    case Op::Scale: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        for (size_t i = 0; i < count; ++i)
            an.grad[i] += g[i] * n.c0;
        break;
    }

    case Op::ScaleVec: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        const double *f = extraData_.data() + n.extra;
        for (size_t i = 0; i < count; ++i)
            an.grad[i] += g[i] * f[i];
        break;
    }

    case Op::Sigmoid: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        for (size_t i = 0; i < count; ++i) {
            const double y = n.val[i];
            an.grad[i] += g[i] * y * (1.0 - y);
        }
        break;
    }

    case Op::Tanh: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        for (size_t i = 0; i < count; ++i) {
            const double y = n.val[i];
            an.grad[i] += g[i] * (1.0 - y * y);
        }
        break;
    }

    case Op::Relu: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        for (size_t i = 0; i < count; ++i)
            if (an.val[i] > 0.0)
                an.grad[i] += g[i];
        break;
    }

    case Op::Abs: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        for (size_t i = 0; i < count; ++i) {
            const double sign = an.val[i] >= 0.0 ? 1.0 : -1.0;
            an.grad[i] += g[i] * sign;
        }
        break;
    }

    case Op::Exp: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        for (size_t i = 0; i < count; ++i) {
            if (an.val[i] >= 30.0)
                continue; // clamped region: zero grad
            an.grad[i] += g[i] * n.val[i];
        }
        break;
    }

    case Op::Slice: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        for (int r = 0; r < n.rows; ++r)
            an.grad[n.i0 + r] += g[r];
        break;
    }

    case Op::Concat: {
        int offset = 0;
        for (int32_t p = 0; p < n.i0; ++p) {
            Node &pn = nodes_[extraVars_[size_t(n.extra) + p]];
            if (pn.requiresGrad) {
                pn.gradLive = true;
                for (int r = 0; r < pn.rows; ++r)
                    pn.grad[r] += g[offset + r];
            }
            offset += pn.rows;
        }
        break;
    }

    case Op::Linear: {
        Node &wn = nodes_[n.a];
        Node &xn = nodes_[n.b];
        Node &bn = nodes_[n.c];
        const int out = n.rows, in = xn.rows;
        // dz_i = dy_i * act'(y_i); the composition order matches the
        // primitive act-then-add-then-matmul backward chain.
        for (int i = 0; i < out; ++i) {
            double dz = 0.0;
            const double y = n.val[i];
            switch (n.act) {
            case Act::None:
                dz = g[i];
                break;
            case Act::Sigmoid:
                dz = g[i] * y * (1.0 - y);
                break;
            case Act::Tanh:
                dz = g[i] * (1.0 - y * y);
                break;
            case Act::Relu:
                dz = y > 0.0 ? g[i] : 0.0;
                break;
            }
            if (bn.requiresGrad)
                bn.grad[i] += dz;
            if (dz == 0.0)
                continue;
            if (wn.requiresGrad) {
                double *wrow = wn.grad + size_t(i) * in;
                for (int k = 0; k < in; ++k)
                    wrow[k] += dz * xn.val[k];
            }
            if (xn.requiresGrad) {
                const double *wrow = wn.val + size_t(i) * in;
                for (int k = 0; k < in; ++k)
                    xn.grad[k] += wrow[k] * dz;
            }
        }
        if (wn.requiresGrad)
            wn.gradLive = true;
        if (xn.requiresGrad)
            xn.gradLive = true;
        if (bn.requiresGrad)
            bn.gradLive = true;
        break;
    }

    case Op::LstmCell: {
        Node &wxn = nodes_[n.a];
        Node &whn = nodes_[n.b];
        Node &bn = nodes_[n.c];
        Node &xn = nodes_[extraVars_[size_t(n.extra) + 0]];
        Node &hn = nodes_[extraVars_[size_t(n.extra) + 1]];
        Node &cn = nodes_[extraVars_[size_t(n.extra) + 2]];
        const int hidden = n.i0;
        const int in = xn.rows;
        const double *gates = n.aux;
        const double *tanh_c = n.aux + 4 * hidden;
        double *dz = n.aux + 5 * hidden;
        const double *dh = g;
        const double *dcg = g + hidden;
        // Per-element chain in the reference composition's order
        // (h = o*tanh(c'), c' = f*c + i*g, gates = sigma/tanh of z).
        for (int i = 0; i < hidden; ++i) {
            const double gi = gates[i];
            const double gf = gates[hidden + i];
            const double gg = gates[2 * hidden + i];
            const double go = gates[3 * hidden + i];
            const double tc = tanh_c[i];
            const double dout = dh[i] * tc;
            const double dtc = dh[i] * go;
            const double dc = dcg[i] + dtc * (1.0 - tc * tc);
            const double di = dc * gg;
            const double dg = dc * gi;
            const double df = dc * cn.val[i];
            if (cn.requiresGrad)
                cn.grad[i] += dc * gf;
            dz[i] = di * gi * (1.0 - gi);
            dz[hidden + i] = df * gf * (1.0 - gf);
            dz[2 * hidden + i] = dg * (1.0 - gg * gg);
            dz[3 * hidden + i] = dout * go * (1.0 - go);
        }
        if (bn.requiresGrad) {
            for (int r = 0; r < 4 * hidden; ++r)
                bn.grad[r] += dz[r];
        }
        // Reference order: the Wh*h matmul backward runs before the
        // Wx*x one (it sits later on the tape).
        const TransposedF64Fn transposed = matvecKernels().transposedF64;
        deferWeightGrad(whn, dz, hn.val);
        if (hn.requiresGrad)
            transposed(whn.val, dz, hn.grad, 4 * hidden, hidden);
        deferWeightGrad(wxn, dz, xn.val);
        if (xn.requiresGrad)
            transposed(wxn.val, dz, xn.grad, 4 * hidden, in);
        if (bn.requiresGrad)
            bn.gradLive = true;
        if (xn.requiresGrad)
            xn.gradLive = true;
        if (hn.requiresGrad)
            hn.gradLive = true;
        if (cn.requiresGrad)
            cn.gradLive = true;
        break;
    }

    case Op::Dot: {
        Node &an = nodes_[n.a];
        Node &bn = nodes_[n.b];
        const double g0 = g[0];
        if (an.requiresGrad) {
            an.gradLive = true;
            for (int i = 0; i < an.rows; ++i)
                an.grad[i] += g0 * bn.val[i];
        }
        if (bn.requiresGrad) {
            bn.gradLive = true;
            for (int i = 0; i < bn.rows; ++i)
                bn.grad[i] += g0 * an.val[i];
        }
        break;
    }

    case Op::SoftClamp: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        const double *s = extraData_.data() + n.extra;
        for (size_t i = 0; i < count; ++i) {
            const double t4 = n.aux[i];
            const double d4 = g[i] * n.c0;
            const double d3 = d4 * (1.0 - t4 * t4);
            const double d2 = d3 * n.c1;
            const double d1 = d2 * s[i];
            const double sign = an.val[i] >= 0.0 ? 1.0 : -1.0;
            an.grad[i] += d1 * sign;
        }
        break;
    }

    case Op::LossMape: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        const double p = an.val[0];
        const double sign = p >= n.c0 ? 1.0 : -1.0;
        an.grad[0] += g[0] * sign / n.c1;
        break;
    }

    case Op::LossMae: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        const double p = an.val[0];
        const double sign = p >= n.c0 ? 1.0 : -1.0;
        an.grad[0] += g[0] * sign;
        break;
    }

    case Op::LossMse: {
        Node &an = nodes_[n.a];
        if (!an.requiresGrad)
            break;
        an.gradLive = true;
        const double p = an.val[0];
        an.grad[0] += g[0] * 2.0 * (p - n.c0);
        break;
    }
    }
}

void
Graph::allocParamGrad(int32_t id)
{
    if (id < 0)
        return;
    Node &p = nodes_[size_t(id)];
    if (p.op == Op::Param && p.requiresGrad && !p.grad)
        p.grad = garena_.alloc(size_t(p.rows) * p.cols);
}

void
Graph::deferWeightGrad(Node &w, const double *dz, const double *x)
{
    if (!w.requiresGrad)
        return;
    w.gradLive = true;
    if (w.grad) {
        matvecKernels().rankKF64(w.grad, &dz, &x, 1, w.rows, w.cols);
        return;
    }
    PendingTerms &terms = pending_[size_t(w.extra)];
    terms.dz.push_back(dz);
    terms.x.push_back(x);
}

void
Graph::backward(Var loss, double seed)
{
    Node &ln = node(loss);
    panic_if(size_t(ln.rows) * ln.cols != 1,
             "backward expects a scalar loss");
    if (!ln.requiresGrad)
        return;
    for (Node &n : nodes_) {
        n.gradLive = false;
        // A parameter leaf gets a tape gradient buffer only when some
        // op other than an LSTM cell's weight slots writes its
        // gradient; every other op names its operands in a, b, c
        // (Concat: its parts in extraVars_).
        switch (n.op) {
        case Op::LstmCell:
            allocParamGrad(n.c);
            for (int p = 0; p < 3; ++p)
                allocParamGrad(extraVars_[size_t(n.extra) + p]);
            break;
        case Op::Concat:
            for (int32_t p = 0; p < n.i0; ++p)
                allocParamGrad(extraVars_[size_t(n.extra) + p]);
            break;
        default:
            allocParamGrad(n.a);
            allocParamGrad(n.b);
            allocParamGrad(n.c);
            break;
        }
    }
    garena_.zeroUsed();
    for (size_t slot = 0; slot < pendingSlots_; ++slot) {
        pending_[slot].dz.clear();
        pending_[slot].x.clear();
    }
    ln.grad[0] = seed;
    ln.gradLive = true;
    for (int32_t id = loss.id; id >= 0; --id) {
        Node &n = nodes_[size_t(id)];
        if (!n.requiresGrad || !n.gradLive)
            continue;
        backwardNode(n);
    }
}

} // namespace difftune::nn
