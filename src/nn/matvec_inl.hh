/**
 * @file
 * The forward matvec entry points shared by the autograd engine
 * (nn/graph.cc), the batched forward executor (nn/batched.cc) and
 * the snapshot projection tables (nn/snapshot.cc), plus the scalar
 * reference kernel.
 *
 * Internal header: include only from nn/ translation units. Every
 * engine must run the *same* kernels so their results are
 * bit-identical by construction — matvecForward routes through the
 * one runtime dispatch point (nn/matvec_dispatch.hh), which selects
 * the scalar or the AVX2 kernel set once per process. Every kernel
 * keeps each row's accumulation in the reference k-ascending order
 * with no FMA contraction, so the selection can never change
 * results, only speed; if you change the accumulation order
 * anywhere you change the numerics contract of every engine (see
 * tests/golden/).
 */

#ifndef DIFFTUNE_NN_MATVEC_INL_HH
#define DIFFTUNE_NN_MATVEC_INL_HH

#include <cstddef>

#include "nn/matvec_dispatch.hh"

namespace difftune::nn
{

/**
 * Portable reference kernel: out = W x for row-major W and a column
 * vector x, blocked eight rows at a time — eight independent
 * accumulator chains give the FMA units ILP while each row's sum
 * keeps the reference k-ascending order, so the blocking is
 * bit-transparent. It is the graph's kernel for matrices that are
 * not parameters (and so have no panel).
 */
template <typename T>
inline void
matvecForwardScalarT(const T *__restrict w, const T *__restrict x,
                     T *__restrict out, int rows, int cols)
{
    int r = 0;
    for (; r + 8 <= rows; r += 8) {
        const T *w0 = w + size_t(r) * cols;
        const T *w1 = w0 + cols;
        const T *w2 = w1 + cols;
        const T *w3 = w2 + cols;
        const T *w4 = w3 + cols;
        const T *w5 = w4 + cols;
        const T *w6 = w5 + cols;
        const T *w7 = w6 + cols;
        T s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        T s4 = 0, s5 = 0, s6 = 0, s7 = 0;
        for (int k = 0; k < cols; ++k) {
            const T xk = x[k];
            s0 += w0[k] * xk;
            s1 += w1[k] * xk;
            s2 += w2[k] * xk;
            s3 += w3[k] * xk;
            s4 += w4[k] * xk;
            s5 += w5[k] * xk;
            s6 += w6[k] * xk;
            s7 += w7[k] * xk;
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
        out[r + 4] = s4;
        out[r + 5] = s5;
        out[r + 6] = s6;
        out[r + 7] = s7;
    }
    for (; r + 4 <= rows; r += 4) {
        const T *w0 = w + size_t(r) * cols;
        const T *w1 = w0 + cols;
        const T *w2 = w1 + cols;
        const T *w3 = w2 + cols;
        T s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (int k = 0; k < cols; ++k) {
            const T xk = x[k];
            s0 += w0[k] * xk;
            s1 += w1[k] * xk;
            s2 += w2[k] * xk;
            s3 += w3[k] * xk;
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < rows; ++r) {
        const T *wr = w + size_t(r) * cols;
        T sum = 0;
        for (int k = 0; k < cols; ++k)
            sum += wr[k] * x[k];
        out[r] = sum;
    }
}

/**
 * The forward dispatch point every nn/ engine calls: out = W x from
 * W's packed panel (packPanel), on the process-wide selected kernels
 * — see matvec_dispatch.hh.
 */
inline void
matvecForward(const double *__restrict panel, const double *__restrict x,
              double *__restrict out, int rows, int cols)
{
    matvecKernels().panelF64(panel, x, out, rows, cols);
}

} // namespace difftune::nn

#endif // DIFFTUNE_NN_MATVEC_INL_HH
