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
 *  - avx2RankKF64 (dW += sum_k dz_k x_k^T): a 4-row x 8-column
 *    tile of sums stays in eight registers across all K terms and
 *    is added to dW once; 4-column tiles, scalar columns and the
 *    rows % 4 tail rows take the remainder.
 *  - avx2TransposedF64 (dx += W^T dz): a 16-column tile of dx stays
 *    in four registers across the whole row sweep instead of being
 *    loaded and stored once per row; 4-column tiles and scalar
 *    columns take the remainder.
 *
 * In every kernel each lane performs exactly the scalar kernel's
 * operation sequence for its output element: forward sums in
 * k-ascending order, rank-K sums from +0.0 in term order and then
 * one add into dW, W^T dz updates in row-ascending order, the
 * dz_i == 0 terms skipped, products and sums rounded separately.
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

/** One rank-K term of one dW row's 8-column tile: s += d * x. */
inline void
rankKTerm(double d, __m256d x0, __m256d x1, __m256d &s0, __m256d &s1)
{
    if (d == 0.0)
        return;
    const __m256d dv = _mm256_set1_pd(d);
    s0 = mulAdd(s0, dv, x0);
    s1 = mulAdd(s1, dv, x1);
}

/** dw[0..8) += the tile row's sums s0, s1. */
inline void
addSums(double *dw, __m256d s0, __m256d s1)
{
    _mm256_storeu_pd(dw, _mm256_add_pd(_mm256_loadu_pd(dw), s0));
    _mm256_storeu_pd(dw + 4, _mm256_add_pd(_mm256_loadu_pd(dw + 4), s1));
}

/** dW rows [r, r + 4), columns [c, c + 8): eight register sums. */
inline void
rankKTile4x8(double *dw, const double *const *dz, const double *const *x,
             int terms, int r, int c, int cols)
{
    __m256d s00 = _mm256_setzero_pd(), s01 = s00, s10 = s00, s11 = s00;
    __m256d s20 = s00, s21 = s00, s30 = s00, s31 = s00;
    for (int k = 0; k < terms; ++k) {
        const __m256d x0 = _mm256_loadu_pd(x[k] + c);
        const __m256d x1 = _mm256_loadu_pd(x[k] + c + 4);
        const double *d = dz[k] + r;
        rankKTerm(d[0], x0, x1, s00, s01);
        rankKTerm(d[1], x0, x1, s10, s11);
        rankKTerm(d[2], x0, x1, s20, s21);
        rankKTerm(d[3], x0, x1, s30, s31);
    }
    double *row = dw + size_t(r) * cols + c;
    addSums(row, s00, s01);
    addSums(row + cols, s10, s11);
    addSums(row + 2 * size_t(cols), s20, s21);
    addSums(row + 3 * size_t(cols), s30, s31);
}

/** dW row r, columns [c, c + 4): one register sum. */
inline void
rankKTile1x4(double *dw, const double *const *dz, const double *const *x,
             int terms, int r, int c, int cols)
{
    __m256d s = _mm256_setzero_pd();
    for (int k = 0; k < terms; ++k) {
        const double d = dz[k][r];
        if (d != 0.0)
            s = mulAdd(s, _mm256_set1_pd(d), _mm256_loadu_pd(x[k] + c));
    }
    double *out = dw + size_t(r) * cols + c;
    _mm256_storeu_pd(out, _mm256_add_pd(_mm256_loadu_pd(out), s));
}

void
avx2RankKF64(double *dw, const double *const *dz, const double *const *x,
             int terms, int rows, int cols)
{
    const int full = cols - cols % 4;
    for (int r = 0; r < rows; r += 4) {
        const int nrows = rows - r < 4 ? rows - r : 4;
        int c = 0;
        if (nrows == 4)
            for (; c + 8 <= full; c += 8)
                rankKTile4x8(dw, dz, x, terms, r, c, cols);
        for (; c < full; c += 4)
            for (int j = 0; j < nrows; ++j)
                rankKTile1x4(dw, dz, x, terms, r + j, c, cols);
        for (; c < cols; ++c) {
            for (int j = 0; j < nrows; ++j) {
                double sum = 0.0;
                for (int k = 0; k < terms; ++k) {
                    const double dzi = dz[k][r + j];
                    if (dzi != 0.0)
                        sum += dzi * x[k][c];
                }
                dw[size_t(r + j) * cols + c] += sum;
            }
        }
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

const MatvecKernels avx2Kernels{avx2PanelF64, avx2RankKF64,
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
