/**
 * @file
 * AVX2 kernels of the LSTM training step, bit-identical to the
 * scalar set in nn/matvec_dispatch.cc.
 *
 *  - avx2PanelF64 (forward, f64): vectorized *across rows*, one row
 *    per lane. The packed panel stores each 4-row block k-major, so
 *    column k of a block is one 4-double load; four blocks (16 rows)
 *    run as four independent accumulator chains. Remainder blocks
 *    run one chain, the rows % 4 tail the plain scalar loop.
 *  - avx2RankOneF64 (dW += dz x^T): 4 columns of one dW row per
 *    register.
 *  - avx2TransposedF64 (dx += W^T dz): a 16-column tile of dx stays
 *    in four registers across the whole row sweep instead of being
 *    loaded and stored once per row; 4-column tiles and scalar
 *    columns take the remainder.
 *
 * In every kernel each lane performs exactly the scalar kernel's
 * operation sequence for its output element: forward sums in
 * k-ascending order, backward updates in row-ascending order with
 * the dz_i == 0 rows skipped, products and sums rounded separately.
 * No FMA is used and the file is compiled with -ffp-contract=off,
 * so the compiler cannot fuse a mul+add into one rounding.
 *
 * Built only when the compiler accepts -mavx2 (the dispatcher gets
 * a null provider otherwise) and *executed* only after cpuid
 * reports AVX2 (nn/matvec_dispatch.cc).
 */

#include "nn/matvec_dispatch.hh"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstddef>

namespace difftune::nn
{

namespace
{

/** acc + col * xk with separate roundings (the scalar `s += w * x`). */
inline __m256d
mulAdd(__m256d acc, __m256d col, __m256d xk)
{
    return _mm256_add_pd(acc, _mm256_mul_pd(col, xk));
}

void
avx2PanelF64(const double *panel, const double *x, double *out,
             int rows, int cols)
{
    const int full = rows - rows % 4;
    const size_t block = size_t(4) * cols;
    int r = 0;
    for (; r + 16 <= full; r += 16) {
        const double *p0 = panel + size_t(r) * cols;
        const double *p1 = p0 + block;
        const double *p2 = p1 + block;
        const double *p3 = p2 + block;
        __m256d a0 = _mm256_setzero_pd();
        __m256d a1 = _mm256_setzero_pd();
        __m256d a2 = _mm256_setzero_pd();
        __m256d a3 = _mm256_setzero_pd();
        for (int k = 0; k < cols; ++k) {
            const __m256d xk = _mm256_broadcast_sd(x + k);
            a0 = mulAdd(a0, _mm256_loadu_pd(p0 + 4 * k), xk);
            a1 = mulAdd(a1, _mm256_loadu_pd(p1 + 4 * k), xk);
            a2 = mulAdd(a2, _mm256_loadu_pd(p2 + 4 * k), xk);
            a3 = mulAdd(a3, _mm256_loadu_pd(p3 + 4 * k), xk);
        }
        _mm256_storeu_pd(out + r, a0);
        _mm256_storeu_pd(out + r + 4, a1);
        _mm256_storeu_pd(out + r + 8, a2);
        _mm256_storeu_pd(out + r + 12, a3);
    }
    for (; r < full; r += 4) {
        const double *p0 = panel + size_t(r) * cols;
        __m256d a0 = _mm256_setzero_pd();
        for (int k = 0; k < cols; ++k)
            a0 = mulAdd(a0, _mm256_loadu_pd(p0 + 4 * k),
                        _mm256_broadcast_sd(x + k));
        _mm256_storeu_pd(out + r, a0);
    }
    for (; r < rows; ++r) {
        const double *wr = panel + size_t(r) * cols;
        double sum = 0;
        for (int k = 0; k < cols; ++k)
            sum += wr[k] * x[k];
        out[r] = sum;
    }
}

void
avx2RankOneF64(double *dw, const double *dz, const double *x, int rows,
               int cols)
{
    for (int i = 0; i < rows; ++i) {
        const double dzi = dz[i];
        if (dzi == 0.0)
            continue;
        const __m256d d = _mm256_set1_pd(dzi);
        double *row = dw + size_t(i) * cols;
        int k = 0;
        for (; k + 4 <= cols; k += 4)
            _mm256_storeu_pd(row + k,
                             mulAdd(_mm256_loadu_pd(row + k), d,
                                    _mm256_loadu_pd(x + k)));
        for (; k < cols; ++k)
            row[k] += dzi * x[k];
    }
}

void
avx2TransposedF64(const double *w, const double *dz, double *dx,
                  int rows, int cols)
{
    int k = 0;
    for (; k + 16 <= cols; k += 16) {
        __m256d a0 = _mm256_loadu_pd(dx + k);
        __m256d a1 = _mm256_loadu_pd(dx + k + 4);
        __m256d a2 = _mm256_loadu_pd(dx + k + 8);
        __m256d a3 = _mm256_loadu_pd(dx + k + 12);
        for (int i = 0; i < rows; ++i) {
            const double dzi = dz[i];
            if (dzi == 0.0)
                continue;
            const __m256d d = _mm256_set1_pd(dzi);
            const double *wr = w + size_t(i) * cols + k;
            a0 = mulAdd(a0, _mm256_loadu_pd(wr), d);
            a1 = mulAdd(a1, _mm256_loadu_pd(wr + 4), d);
            a2 = mulAdd(a2, _mm256_loadu_pd(wr + 8), d);
            a3 = mulAdd(a3, _mm256_loadu_pd(wr + 12), d);
        }
        _mm256_storeu_pd(dx + k, a0);
        _mm256_storeu_pd(dx + k + 4, a1);
        _mm256_storeu_pd(dx + k + 8, a2);
        _mm256_storeu_pd(dx + k + 12, a3);
    }
    for (; k + 4 <= cols; k += 4) {
        __m256d a0 = _mm256_loadu_pd(dx + k);
        for (int i = 0; i < rows; ++i) {
            const double dzi = dz[i];
            if (dzi == 0.0)
                continue;
            a0 = mulAdd(a0, _mm256_loadu_pd(w + size_t(i) * cols + k),
                        _mm256_set1_pd(dzi));
        }
        _mm256_storeu_pd(dx + k, a0);
    }
    for (; k < cols; ++k) {
        double sum = dx[k];
        for (int i = 0; i < rows; ++i) {
            const double dzi = dz[i];
            if (dzi == 0.0)
                continue;
            sum += w[size_t(i) * cols + k] * dzi;
        }
        dx[k] = sum;
    }
}

const MatvecKernels avx2Kernels{avx2PanelF64, avx2RankOneF64,
                                avx2TransposedF64, "avx2"};

} // namespace

const MatvecKernels *
matvecAvx2Kernels()
{
    return &avx2Kernels;
}

} // namespace difftune::nn

#else // !__AVX2__

namespace difftune::nn
{

const MatvecKernels *
matvecAvx2Kernels()
{
    return nullptr;
}

} // namespace difftune::nn

#endif // __AVX2__
