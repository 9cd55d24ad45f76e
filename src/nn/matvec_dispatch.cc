/**
 * @file
 * The scalar kernel set, the panel packer and the runtime path
 * selection: scalar unless AVX2 kernels were compiled in AND cpuid
 * reports AVX2, with DIFFTUNE_FORCE_SCALAR pinning the scalar path.
 * Selected once per process (bit-stability of cached predictions
 * forbids switching mid-run).
 */

#include "nn/matvec_dispatch.hh"

#include <cstddef>

#include "base/env.hh"

namespace difftune::nn
{

namespace
{

/**
 * out = W x from the panel, two 4-row blocks (eight independent
 * accumulator chains) at a time; each row's sum keeps the
 * reference k-ascending order.
 */
void
scalarPanelF64(const double *__restrict panel, const double *__restrict x,
               double *__restrict out, int rows, int cols)
{
    const int full = rows - rows % 4;
    int r = 0;
    for (; r + 8 <= full; r += 8) {
        const double *p0 = panel + size_t(r) * cols;
        const double *p1 = p0 + size_t(4) * cols;
        double s[8] = {};
        for (int k = 0; k < cols; ++k) {
            const double xk = x[k];
            for (int j = 0; j < 4; ++j) {
                s[j] += p0[4 * k + j] * xk;
                s[4 + j] += p1[4 * k + j] * xk;
            }
        }
        for (int j = 0; j < 8; ++j)
            out[r + j] = s[j];
    }
    for (; r < full; r += 4) {
        const double *p0 = panel + size_t(r) * cols;
        double s[4] = {};
        for (int k = 0; k < cols; ++k)
            for (int j = 0; j < 4; ++j)
                s[j] += p0[4 * k + j] * x[k];
        for (int j = 0; j < 4; ++j)
            out[r + j] = s[j];
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
scalarRankOneF64(double *__restrict dw, const double *__restrict dz,
                 const double *__restrict x, int rows, int cols)
{
    for (int i = 0; i < rows; ++i) {
        const double dzi = dz[i];
        if (dzi == 0.0)
            continue;
        double *row = dw + size_t(i) * cols;
        for (int k = 0; k < cols; ++k)
            row[k] += dzi * x[k];
    }
}

void
scalarTransposedF64(const double *__restrict w, const double *__restrict dz,
                    double *__restrict dx, int rows, int cols)
{
    for (int i = 0; i < rows; ++i) {
        const double dzi = dz[i];
        if (dzi == 0.0)
            continue;
        const double *row = w + size_t(i) * cols;
        for (int k = 0; k < cols; ++k)
            dx[k] += row[k] * dzi;
    }
}

const MatvecKernels scalarKernels{scalarPanelF64, scalarRankOneF64,
                                  scalarTransposedF64, "scalar"};
const MatvecKernels forcedKernels{scalarPanelF64, scalarRankOneF64,
                                  scalarTransposedF64,
                                  "scalar (forced)"};

const MatvecKernels &
selectKernels()
{
    const std::string force =
        envString("DIFFTUNE_FORCE_SCALAR", "");
    if (!force.empty() && force != "0")
        return forcedKernels;
    if (const MatvecKernels *avx2 = matvecAvx2Kernels();
        avx2 && cpuSupportsAvx2())
        return *avx2;
    return scalarKernels;
}

} // namespace

void
packPanel(const double *__restrict w, double *__restrict panel, int rows,
          int cols)
{
    const int full = rows - rows % 4;
    for (int r = 0; r < full; r += 4) {
        const double *src = w + size_t(r) * cols;
        double *dst = panel + size_t(r) * cols;
        for (int k = 0; k < cols; ++k)
            for (int j = 0; j < 4; ++j)
                dst[4 * k + j] = src[size_t(j) * cols + k];
    }
    for (size_t i = size_t(full) * cols; i < size_t(rows) * cols; ++i)
        panel[i] = w[i];
}

bool
cpuSupportsAvx2()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

const MatvecKernels &
matvecScalarKernels()
{
    return scalarKernels;
}

const MatvecKernels &
matvecKernels()
{
    // Magic static: the probe runs once, on first use, thread-safely.
    static const MatvecKernels &selected = selectKernels();
    return selected;
}

const char *
matvecPathName()
{
    return matvecKernels().name;
}

} // namespace difftune::nn
