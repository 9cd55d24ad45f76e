/**
 * @file
 * XMca: an out-of-order superscalar basic-block CPU simulator modeled
 * on llvm-mca's Intel x86 simulation model (Section II-A).
 *
 * The simulator makes llvm-mca's two core modeling assumptions: the
 * frontend is never the bottleneck (instruction decode is ignored) and
 * all memory accesses hit the L1 cache (the memory hierarchy is
 * ignored). Execution is modeled in four stages:
 *
 *  - dispatch: up to DispatchWidth micro-ops enter per cycle, in
 *    program order, each reserving reorder-buffer slots; dispatch
 *    stalls while the reorder buffer is full;
 *  - issue: an instruction waits until its register operands are
 *    ready (producer issue time + WriteLatency, accelerated by the
 *    consumer's ReadAdvanceCycles, clipped at zero) and until every
 *    execution port in its PortMap is free;
 *  - execute: the instruction occupies each port for the number of
 *    cycles its PortMap specifies;
 *  - retire: instructions retire in program order, freeing their
 *    reorder-buffer slots.
 *
 * The load/store unit enforces store->store program ordering but does
 * not track addresses, so (like llvm-mca) XMca cannot model
 * store-to-load dependence chains — the ADD32mr case study.
 *
 * One call is a single in-order pass over the block unrolled
 * iterations() times, after resolving the block against the table
 * once. timing() stops that pass as soon as the pipeline state at an
 * iteration boundary, taken relative to the dispatch cycle, repeats
 * exactly, and extrapolates the remaining iterations; the result is
 * bit-identical to simulating them all, which timingWithTrace()
 * does. xmca.cc argues why the compared state is complete.
 */

#ifndef DIFFTUNE_MCA_XMCA_HH
#define DIFFTUNE_MCA_XMCA_HH

#include <cstdint>
#include <vector>

#include "params/simulator.hh"

namespace difftune::mca
{

/** Per-stream-instruction event times (for tests and case studies). */
struct TraceEntry
{
    int64_t dispatched; ///< cycle the last micro-op entered the ROB
    int64_t issued;     ///< cycle execution started
    int64_t retired;    ///< cycle the instruction left the ROB
};

/** Optional detailed result of one simulation. */
struct Trace
{
    std::vector<TraceEntry> entries;
    int64_t totalCycles = 0;
};

/** llvm-mca-analog simulator. */
class XMca : public params::Simulator
{
  public:
    /** @param iterations block repetitions per run (paper: 100). */
    explicit XMca(int iterations = 100) : iterations_(iterations) {}

    /**
     * Cycles per iteration over iterations() repetitions of
     * @p block, exactly as timingWithTrace() computes it, but
     * extrapolated from the first verified steady state.
     */
    double timing(const isa::BasicBlock &block,
                  const params::ParamTable &table) const override;

    std::string name() const override { return "xmca"; }
    int iterations() const override { return iterations_; }

    /**
     * Simulate every iteration and also record per-instruction event
     * times; the reference timing() is held to.
     * @param trace filled with one entry per stream instruction
     *        (block.size() * iterations() entries)
     * @return the timing (cycles / iterations)
     */
    double timingWithTrace(const isa::BasicBlock &block,
                           const params::ParamTable &table,
                           Trace &trace) const;

  private:
    int iterations_;
};

} // namespace difftune::mca

#endif // DIFFTUNE_MCA_XMCA_HH
