/**
 * @file
 * Runtime-dispatched matrix kernels of the LSTM training step.
 *
 * One process-wide selection, made on first use, routes every
 * forward matvec (autograd engine, batched executor, snapshot
 * projections — via nn/matvec_inl.hh) and both matvec backward
 * updates (nn/graph.cc) to either the portable scalar kernels or
 * the AVX2 kernels. The table holds:
 *
 *  - panelF64:      out = W x from W's packed f64 panel (packPanel);
 *  - rankKF64:      dW += sum_k dz_k x_k^T (row-major dW), the K
 *                   terms summed from +0.0 first and added to dW
 *                   once; an update that cannot wait is K = 1;
 *  - transposedF64: dx += W^T dz (row-major W).
 *
 * Paths:
 *
 *  - scalar: portable loops in matvec_dispatch.cc (the forward one
 *            blocked for ILP like the reference in matvec_inl.hh).
 *  - avx2:   the forward vectorized *across rows* (one row per
 *            lane: 4 rows per register straight from the panel),
 *            the backwards across columns (4 dW or dx elements per
 *            register; rank-K keeps a 4-row x 8-column dW tile in
 *            registers across all K terms). Selected only when the
 *            kernels were compiled in AND cpuid reports AVX2.
 *
 * Every kernel on every path keeps each output element's operation
 * sequence — forward sums k-ascending; rank-K sums its terms in
 * index order from +0.0, then adds the sum to dW; W^T dz updates
 * row-ascending; backward terms with dz_i == 0 skipped, separate
 * multiply and add, no FMA — so the selection changes speed, never
 * a bit (tests/test_frontend.cc proves it kernel by kernel; the
 * golden suites re-prove it end to end).
 *
 * Setting DIFFTUNE_FORCE_SCALAR (non-empty, not "0") pins the
 * scalar path; CI runs the nn + serve suites both ways.
 */

#ifndef DIFFTUNE_NN_MATVEC_DISPATCH_HH
#define DIFFTUNE_NN_MATVEC_DISPATCH_HH

namespace difftune::nn
{

/** out = W x in double precision, W given as its packed panel. */
using PanelMatvecF64Fn = void (*)(const double *panel, const double *x,
                                  double *out, int rows, int cols);
/**
 * dW[i][j] += s, where s starts at +0.0 and adds dz[k][i] * x[k][j]
 * for k = 0 .. terms - 1 in order, skipping every k with
 * dz[k][i] == 0. dz[k] has rows entries, x[k] cols.
 */
using RankKF64Fn = void (*)(double *dw, const double *const *dz,
                            const double *const *x, int terms, int rows,
                            int cols);
/** dx += W^T dz, rows ascending, rows with dz_i == 0 skipped. */
using TransposedF64Fn = void (*)(const double *w, const double *dz,
                                 double *dx, int rows, int cols);

/** One selectable kernel set. */
struct MatvecKernels
{
    PanelMatvecF64Fn panelF64 = nullptr;
    RankKF64Fn rankKF64 = nullptr;
    TransposedF64Fn transposedF64 = nullptr;
    const char *name = "";
};

/**
 * Pack row-major @p w (rows x cols) into its f64 panel: each full
 * block of 4 rows is stored k-major, panel[r*cols + 4k + j] =
 * W[r+j][k], so one 4-double load yields column k of the block;
 * the rows % 4 tail rows stay row-major. Same size as W. Pure data
 * movement, identical on every path.
 */
void packPanel(const double *w, double *panel, int rows, int cols);

/**
 * The process-wide selected kernels. The choice is made once, on
 * first call (cpuid probe + DIFFTUNE_FORCE_SCALAR override), and
 * never changes.
 */
const MatvecKernels &matvecKernels();

/** Name of the selected path: "avx2", "scalar", "scalar (forced)". */
const char *matvecPathName();

/** The portable scalar kernels (always available). */
const MatvecKernels &matvecScalarKernels();

/**
 * The AVX2 kernels, or null when the build had no -mavx2 support.
 * Callers must check cpuSupportsAvx2() before executing them.
 */
const MatvecKernels *matvecAvx2Kernels();

/** Whether this CPU reports AVX2 (false on non-x86). */
bool cpuSupportsAvx2();

} // namespace difftune::nn

#endif // DIFFTUNE_NN_MATVEC_DISPATCH_HH
