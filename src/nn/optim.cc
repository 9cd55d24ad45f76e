/**
 * @file
 * Optimizer implementations.
 */

#include "nn/optim.hh"

#include <cmath>

namespace difftune::nn
{

void
Sgd::update(ParamSet &params, const Grads &grads, size_t tensor,
            size_t lo, size_t hi)
{
    double *p = params[int(tensor)].data.data();
    const double *g = grads[int(tensor)].data.data();
    for (size_t j = lo; j < hi; ++j)
        p[j] -= lr_ * g[j];
}

void
Adam::beginStep(const ParamSet &params)
{
    if (m_.empty()) {
        for (size_t i = 0; i < params.count(); ++i) {
            m_.emplace_back(params[int(i)].rows, params[int(i)].cols);
            v_.emplace_back(params[int(i)].rows, params[int(i)].cols);
        }
    }
    ++steps_;
    bc1_ = 1.0 - std::pow(beta1_, double(steps_));
    bc2_ = 1.0 - std::pow(beta2_, double(steps_));
}

void
Adam::update(ParamSet &params, const Grads &grads, size_t tensor,
             size_t lo, size_t hi)
{
    double *p = params[int(tensor)].data.data();
    const double *g = grads[int(tensor)].data.data();
    double *m = m_[tensor].data.data();
    double *v = v_[tensor].data.data();
    for (size_t j = lo; j < hi; ++j) {
        const double grad = g[j];
        m[j] = beta1_ * m[j] + (1.0 - beta1_) * grad;
        v[j] = beta2_ * v[j] + (1.0 - beta2_) * grad * grad;
        const double mhat = m[j] / bc1_;
        const double vhat = v[j] / bc2_;
        p[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
}

} // namespace difftune::nn
