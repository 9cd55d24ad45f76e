/**
 * @file
 * First-order stochastic optimizers: SGD (Robbins & Monro) and Adam
 * (Kingma & Ba) — the paper trains both the surrogate and the
 * parameter table with Adam.
 */

#ifndef DIFFTUNE_NN_OPTIM_HH
#define DIFFTUNE_NN_OPTIM_HH

#include "nn/graph.hh"

namespace difftune::nn
{

/**
 * Optimizer interface over a ParamSet + averaged Grads. A step is
 * beginStep() followed by update() over every element once; each
 * element's update reads only its own state, gradient and weight,
 * so update() calls on disjoint element ranges may run
 * concurrently and split a step any way without changing a bit.
 */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /** Apply one update using @p grads; does not zero the grads. */
    void
    step(ParamSet &params, const Grads &grads)
    {
        beginStep(params);
        for (size_t t = 0; t < params.count(); ++t)
            update(params, grads, t, 0, params[int(t)].size());
    }

    /** Start a step: the state every element's update shares. */
    virtual void beginStep(const ParamSet &params) = 0;

    /** Update elements [lo, hi) of tensor @p tensor. */
    virtual void update(ParamSet &params, const Grads &grads,
                        size_t tensor, size_t lo, size_t hi) = 0;
};

/** Plain stochastic gradient descent. */
class Sgd : public Optimizer
{
  public:
    explicit Sgd(double lr) : lr_(lr) {}

    void beginStep(const ParamSet &) override {}
    void update(ParamSet &params, const Grads &grads, size_t tensor,
                size_t lo, size_t hi) override;

  private:
    double lr_;
};

/** Adam with bias correction. */
class Adam : public Optimizer
{
  public:
    explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                  double eps = 1e-8)
        : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps)
    {
    }

    void beginStep(const ParamSet &params) override;
    void update(ParamSet &params, const Grads &grads, size_t tensor,
                size_t lo, size_t hi) override;

    long stepCount() const { return steps_; }

    /** Adjust the learning rate (for decay schedules). */
    void setLr(double lr) { lr_ = lr; }
    double lr() const { return lr_; }

  private:
    double lr_, beta1_, beta2_, eps_;
    long steps_ = 0;
    double bc1_ = 1.0, bc2_ = 1.0; ///< this step's bias corrections
    std::vector<Tensor> m_, v_;
};

} // namespace difftune::nn

#endif // DIFFTUNE_NN_OPTIM_HH
