/**
 * @file
 * Tests for the autograd engine and NN modules: every op is checked
 * against central-difference numerical gradients, LSTM cells and
 * stacks gradcheck end-to-end, optimizers converge on toy problems.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>

#include "nn/graph.hh"
#include "nn/modules.hh"
#include "nn/optim.hh"

namespace difftune::nn
{
namespace
{

/**
 * Numerical gradient check: build the graph with `forward` (which
 * reads the single parameter tensor 0 of @p params), compare the
 * analytic gradient against central differences.
 */
void
gradCheck(ParamSet &params,
          const std::function<Var(Graph &, Ctx &)> &forward,
          double eps = 1e-5, double tol = 1e-5)
{
    Grads grads(params);
    Graph graph;
    Ctx ctx{graph, params, &grads};
    Var loss = forward(graph, ctx);
    graph.backward(loss);

    for (size_t p = 0; p < params.count(); ++p) {
        Tensor &tensor = params[int(p)];
        for (size_t i = 0; i < tensor.data.size(); ++i) {
            const double saved = tensor.data[i];
            tensor.data[i] = saved + eps;
            Graph gp;
            Ctx cp{gp, params, nullptr};
            const double up = gp.scalarValue(forward(gp, cp));
            tensor.data[i] = saved - eps;
            Graph gm;
            Ctx cm{gm, params, nullptr};
            const double down = gm.scalarValue(forward(gm, cm));
            tensor.data[i] = saved;
            const double numeric = (up - down) / (2 * eps);
            const double analytic = grads[int(p)].data[i];
            EXPECT_NEAR(analytic, numeric,
                        tol * std::max(1.0, std::fabs(numeric)))
                << "param " << p << " index " << i;
        }
    }
}

Tensor
vec(std::initializer_list<double> values)
{
    Tensor t(int(values.size()), 1);
    std::copy(values.begin(), values.end(), t.data.begin());
    return t;
}

TEST(Tensor, Basics)
{
    Tensor t(2, 3);
    EXPECT_EQ(t.size(), 6u);
    t.at(1, 2) = 5.0;
    EXPECT_EQ(t.row(1)[2], 5.0);
    Tensor u(2, 3);
    u.at(0, 0) = 1.0;
    t.addInPlace(u);
    EXPECT_EQ(t.at(0, 0), 1.0);
}

TEST(Graph, ForwardValues)
{
    Graph g;
    Var a = g.input(vec({1.0, -2.0}));
    Var b = g.input(vec({3.0, 4.0}));
    EXPECT_EQ(g.value(g.add(a, b)).data[0], 4.0);
    EXPECT_EQ(g.value(g.sub(a, b)).data[1], -6.0);
    EXPECT_EQ(g.value(g.mul(a, b)).data[1], -8.0);
    EXPECT_EQ(g.value(g.abs(a)).data[1], 2.0);
    EXPECT_EQ(g.value(g.relu(a)).data[1], 0.0);
    EXPECT_NEAR(g.value(g.sigmoid(a)).data[0], 0.7311, 1e-4);
    EXPECT_NEAR(g.value(g.tanh(a)).data[0], 0.7616, 1e-4);
    EXPECT_NEAR(g.value(g.exp(a)).data[0], std::exp(1.0), 1e-9);
}

TEST(Graph, MatmulShapes)
{
    Graph g;
    Tensor m(2, 3);
    for (int i = 0; i < 6; ++i)
        m.data[i] = i + 1;
    Var a = g.input(std::move(m));
    Var x = g.input(vec({1.0, 0.0, -1.0}));
    Var y = g.matmul(a, x);
    EXPECT_EQ(g.value(y).rows, 2);
    EXPECT_EQ(g.value(y).data[0], 1.0 - 3.0);
    EXPECT_EQ(g.value(y).data[1], 4.0 - 6.0);
}

TEST(Graph, ConcatAndSlice)
{
    Graph g;
    Var a = g.input(vec({1, 2}));
    Var b = g.input(vec({3}));
    Var c = g.concat({a, b});
    EXPECT_EQ(g.value(c).rows, 3);
    Var s = g.slice(c, 1, 2);
    EXPECT_EQ(g.value(s).data[0], 2.0);
    EXPECT_EQ(g.value(s).data[1], 3.0);
}

TEST(Graph, LossValues)
{
    Graph g;
    Var p = g.inputScalar(3.0);
    EXPECT_NEAR(g.scalarValue(g.lossMape(p, 2.0)), 0.5, 1e-12);
    EXPECT_NEAR(g.scalarValue(g.lossMae(p, 5.0)), 2.0, 1e-12);
    EXPECT_NEAR(g.scalarValue(g.lossMse(p, 1.0)), 4.0, 1e-12);
}

// ---------------------------------------------------------- grad checks

TEST(GradCheck, MatmulParam)
{
    Rng rng(1);
    ParamSet params;
    int w = params.add(3, 4);
    params[w].uniformInit(rng, 0.5);
    gradCheck(params, [&](Graph &g, Ctx &ctx) {
        Var weight = g.param(ctx.params, w, ctx.sink);
        Tensor xv(4, 1);
        xv.data = {0.3, -1.0, 0.5, 2.0};
        Var y = g.matmul(weight, g.input(std::move(xv)));
        return g.lossMse(g.slice(y, 1, 1), 0.7);
    });
}

TEST(GradCheck, ElementwiseChain)
{
    Rng rng(2);
    ParamSet params;
    int w = params.add(4, 1);
    params[w].uniformInit(rng, 0.8);
    gradCheck(params, [&](Graph &g, Ctx &ctx) {
        Var x = g.param(ctx.params, w, ctx.sink);
        Var y = g.mul(g.sigmoid(x), g.tanh(g.scale(x, 0.5)));
        Var z = g.add(y, g.abs(x));
        return g.lossMae(g.slice(z, 2, 1), 0.4);
    });
}

TEST(GradCheck, ExpAndScaleByVec)
{
    Rng rng(3);
    ParamSet params;
    int w = params.add(3, 1);
    params[w].uniformInit(rng, 0.5);
    gradCheck(params, [&](Graph &g, Ctx &ctx) {
        Var x = g.param(ctx.params, w, ctx.sink);
        Var y = g.exp(g.scaleByVec(x, {0.5, -1.0, 2.0}));
        return g.lossMse(g.slice(y, 0, 1), 2.0);
    });
}

TEST(GradCheck, ConcatSliceSubRelu)
{
    Rng rng(4);
    ParamSet params;
    int a = params.add(2, 1);
    int b = params.add(3, 1);
    params[a].uniformInit(rng, 1.0);
    params[b].uniformInit(rng, 1.0);
    gradCheck(params, [&](Graph &g, Ctx &ctx) {
        Var va = g.param(ctx.params, a, ctx.sink);
        Var vb = g.param(ctx.params, b, ctx.sink);
        Var cat = g.concat({va, vb});
        Var diff = g.sub(g.relu(cat), g.scale(cat, 0.25));
        return g.lossMae(g.slice(diff, 3, 1), -0.2);
    });
}

TEST(GradCheck, ParamRowGather)
{
    Rng rng(5);
    ParamSet params;
    int table = params.add(6, 4);
    params[table].uniformInit(rng, 1.0);
    gradCheck(params, [&](Graph &g, Ctx &ctx) {
        Var r2 = g.paramRow(ctx.params, table, 2, ctx.sink);
        Var r4 = g.paramRow(ctx.params, table, 4, ctx.sink);
        Var sum = g.add(r2, r4);
        return g.lossMse(g.slice(g.tanh(sum), 1, 1), 0.3);
    });
}

TEST(GradCheck, MapeLoss)
{
    Rng rng(6);
    ParamSet params;
    int w = params.add(1, 1);
    params[w].data[0] = 1.7;
    gradCheck(params, [&](Graph &g, Ctx &ctx) {
        Var x = g.param(ctx.params, w, ctx.sink);
        return g.lossMape(x, 3.0);
    });
}

TEST(GradCheck, LinearLayer)
{
    Rng rng(7);
    ParamSet params;
    Linear layer(params, 3, 2, rng);
    gradCheck(params, [&](Graph &g, Ctx &ctx) {
        Tensor xv(3, 1);
        xv.data = {0.2, -0.4, 1.0};
        Var y = layer.forward(ctx, g.input(std::move(xv)));
        return g.lossMse(g.slice(y, 0, 1), 0.5);
    });
}

TEST(GradCheck, LstmCellStep)
{
    Rng rng(8);
    ParamSet params;
    LstmCell cell(params, 3, 4, rng);
    gradCheck(
        params,
        [&](Graph &g, Ctx &ctx) {
            Tensor xv(3, 1);
            xv.data = {0.5, -0.2, 0.8};
            auto state = cell.initial(ctx);
            state = cell.step(ctx, g.input(Tensor(xv)), state);
            state = cell.step(ctx, g.input(Tensor(xv)), state);
            return g.lossMse(g.slice(state.h, 1, 1), 0.2);
        },
        1e-5, 1e-4);
}

TEST(GradCheck, LstmStackSequence)
{
    Rng rng(9);
    ParamSet params;
    LstmStack stack(params, 2, 3, 2, rng);
    gradCheck(
        params,
        [&](Graph &g, Ctx &ctx) {
            std::vector<Var> sequence;
            for (int t = 0; t < 3; ++t) {
                Tensor xv(2, 1);
                xv.data = {0.3 * t, -0.5 + 0.2 * t};
                sequence.push_back(g.input(std::move(xv)));
            }
            Var h = stack.runSequence(ctx, sequence);
            return g.lossMae(g.slice(h, 0, 1), 0.1);
        },
        1e-5, 1e-4);
}

TEST(GradCheck, FrozenParamsGetNoGradButPassThrough)
{
    Rng rng(10);
    ParamSet frozen;
    int w = frozen.add(2, 2);
    frozen[w].uniformInit(rng, 1.0);
    ParamSet trainable;
    int x = trainable.add(2, 1);
    trainable[x].uniformInit(rng, 1.0);

    Grads grads(trainable);
    Graph g;
    Var wv = g.param(frozen, w, nullptr); // frozen
    Var xv = g.param(trainable, x, &grads);
    Var loss = g.lossMse(g.slice(g.matmul(wv, xv), 0, 1), 1.0);
    g.backward(loss);

    double grad_norm = 0.0;
    for (double v : grads[x].data)
        grad_norm += std::fabs(v);
    EXPECT_GT(grad_norm, 0.0); // gradient flows through frozen weights
}

TEST(Graph, ParamNodeCaching)
{
    Rng rng(11);
    ParamSet params;
    int w = params.add(2, 2);
    params[w].uniformInit(rng, 1.0);
    Graph g;
    Var a = g.param(params, w, nullptr);
    Var b = g.param(params, w, nullptr);
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(g.numCachedParams(), 1u);
    Var r0 = g.paramRow(params, w, 0, nullptr);
    Var r0_again = g.paramRow(params, w, 0, nullptr);
    Var r1 = g.paramRow(params, w, 1, nullptr);
    EXPECT_EQ(r0.id, r0_again.id);
    EXPECT_NE(r0.id, r1.id);
}

TEST(Graph, CachedParamGradAccumulatesAllUses)
{
    ParamSet params;
    int w = params.add(1, 1);
    params[w].data[0] = 2.0;
    Grads grads(params);
    Graph g;
    Var x = g.param(params, w, &grads);
    Var y = g.add(x, x); // y = 2w -> dy/dw = 2
    g.backward(g.lossMae(y, 0.0));
    EXPECT_NEAR(grads[w].data[0], 2.0, 1e-12);
}

/**
 * One sample of an LSTM stack plus linear head, forward and
 * backward on @p g; returns the loss, the gradients in @p grads.
 */
double
panelSample(Graph &g, const ParamSet &params, Grads &grads,
            const LstmStack &stack, const Linear &head, int sample)
{
    g.clear();
    Ctx ctx{g, params, &grads};
    std::vector<Var> sequence;
    for (int t = 0; t < 4; ++t) {
        Tensor xv(5, 1);
        for (int i = 0; i < 5; ++i)
            xv.data[size_t(i)] = 0.1 * (sample + 1) * (t - i);
        sequence.push_back(g.input(std::move(xv)));
    }
    Var y = head.forward(ctx, stack.runSequence(ctx, sequence));
    Var loss = g.lossMse(y, 0.3);
    g.backward(loss);
    return g.scalarValue(loss);
}

bool
sameGradBits(const Grads &a, const Grads &b)
{
    for (size_t i = 0; i < a.count(); ++i)
        if (std::memcmp(a[int(i)].data.data(), b[int(i)].data.data(),
                        a[int(i)].size() * sizeof(double)) != 0)
            return false;
    return true;
}

TEST(Graph, SharedPanelCacheMatchesOwnPanels)
{
    // 4H = 28 rows: a 16-row panel group plus single 4-row blocks;
    // the 1-row head is a panel of tail rows only.
    Rng rng(12);
    ParamSet params;
    LstmStack stack(params, 5, 7, 2, rng);
    Linear head(params, 7, 1, rng);

    PanelCache cache;
    Graph own, shared;
    shared.setPanelCache(&cache);
    for (int round = 0; round < 2; ++round) {
        // Weights change between rounds; reset() drops the panels.
        cache.reset();
        for (int sample = 0; sample < 3; ++sample) {
            Grads own_grads(params), shared_grads(params);
            const double a =
                panelSample(own, params, own_grads, stack, head, sample);
            const double b = panelSample(shared, params, shared_grads,
                                         stack, head, sample);
            EXPECT_EQ(0, std::memcmp(&a, &b, sizeof(double)));
            EXPECT_TRUE(sameGradBits(own_grads, shared_grads));
        }
        for (size_t i = 0; i < params.count(); ++i)
            for (double &v : params[int(i)].data)
                v *= 0.5;
    }
}

TEST(Graph, PanelCacheSharedAcrossThreads)
{
    Rng rng(13);
    ParamSet params;
    LstmStack stack(params, 5, 8, 2, rng);
    Linear head(params, 8, 1, rng);

    Graph ref;
    std::vector<std::unique_ptr<Grads>> expected;
    for (int sample = 0; sample < 4; ++sample) {
        expected.push_back(std::make_unique<Grads>(params));
        panelSample(ref, params, *expected.back(), stack, head, sample);
    }

    PanelCache cache;
    std::vector<std::unique_ptr<Grads>> got;
    for (int sample = 0; sample < 4; ++sample)
        got.push_back(std::make_unique<Grads>(params));
    std::vector<std::thread> threads;
    for (int sample = 0; sample < 4; ++sample)
        threads.emplace_back([&, sample] {
            Graph g;
            g.setPanelCache(&cache);
            panelSample(g, params, *got[size_t(sample)], stack, head,
                        sample);
        });
    for (std::thread &thread : threads)
        thread.join();
    for (int sample = 0; sample < 4; ++sample)
        EXPECT_TRUE(sameGradBits(*expected[size_t(sample)],
                                 *got[size_t(sample)]));
}

// -------------------------------------------------------------- training

TEST(Optim, SgdSolvesLinearRegression)
{
    Rng rng(12);
    ParamSet params;
    Linear layer(params, 2, 1, rng);
    Sgd sgd(0.05);
    Grads grads(params);
    for (int step = 0; step < 600; ++step) {
        grads.zero();
        double loss_total = 0.0;
        for (int k = 0; k < 8; ++k) {
            const double x0 = rng.uniformReal(-1, 1);
            const double x1 = rng.uniformReal(-1, 1);
            const double target = 3.0 * x0 - 2.0 * x1 + 0.5;
            Graph g;
            Ctx ctx{g, params, &grads};
            Tensor xv(2, 1);
            xv.data = {x0, x1};
            Var y = layer.forward(ctx, g.input(std::move(xv)));
            Var loss = g.lossMse(y, target);
            g.backward(loss, 1.0 / 8);
            loss_total += g.scalarValue(loss);
        }
        sgd.step(params, grads);
        if (step == 599) {
            EXPECT_LT(loss_total / 8, 1e-3);
        }
    }
}

TEST(Optim, AdamFasterThanSgdOnIllConditioned)
{
    ParamSet params;
    int w = params.add(2, 1);
    params[w].data = {5.0, 5.0};
    Adam adam(0.1);
    Grads grads(params);
    for (int step = 0; step < 200; ++step) {
        grads.zero();
        // f(w) = w0^2 + 100 w1^2
        grads[w].data[0] = 2 * params[w].data[0];
        grads[w].data[1] = 200 * params[w].data[1];
        adam.step(params, grads);
    }
    EXPECT_NEAR(params[w].data[0], 0.0, 0.1);
    EXPECT_NEAR(params[w].data[1], 0.0, 0.1);
    EXPECT_EQ(adam.stepCount(), 200);
}

TEST(Grads, ClipAndNorm)
{
    ParamSet params;
    int w = params.add(2, 1);
    Grads grads(params);
    grads[w].data = {3.0, 4.0};
    EXPECT_DOUBLE_EQ(grads.l2Norm(), 5.0);
    grads.clipL2(1.0);
    EXPECT_NEAR(grads.l2Norm(), 1.0, 1e-12);
    grads.scale(2.0);
    EXPECT_NEAR(grads.l2Norm(), 2.0, 1e-12);
}

TEST(Grads, AddFrom)
{
    ParamSet params;
    int w = params.add(2, 1);
    Grads a(params), b(params);
    a[w].data = {1.0, 2.0};
    b[w].data = {3.0, -1.0};
    a.addFrom(b);
    EXPECT_EQ(a[w].data[0], 4.0);
    EXPECT_EQ(a[w].data[1], 1.0);
}

TEST(ParamSet, SaveLoadRoundTrip)
{
    Rng rng(13);
    ParamSet params;
    int a = params.add(2, 3);
    int b = params.add(4, 1);
    params[a].uniformInit(rng, 1.0);
    params[b].uniformInit(rng, 1.0);
    const std::string blob = params.save();

    ParamSet other;
    other.add(2, 3);
    other.add(4, 1);
    other.load(blob);
    EXPECT_EQ(other[a].data, params[a].data);
    EXPECT_EQ(other[b].data, params[b].data);
    EXPECT_EQ(params.scalarCount(), 10u);
}

TEST(ParamSet, LoadRejectsShapeMismatch)
{
    ParamSet params;
    params.add(2, 2);
    ParamSet other;
    other.add(3, 2);
    EXPECT_THROW(other.load(params.save()), std::runtime_error);
}

} // namespace
} // namespace difftune::nn
