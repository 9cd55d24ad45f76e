/**
 * @file
 * Layer probes for the traced runs: short timed loops around single
 * library entry points (one surrogate forward+backward, one
 * BatchRunner batch, one SamplingDist draw, parse, intern, batched
 * forward at three widths). Every workload runs them on its own
 * model and blocks, so each traced run reports the same ladder.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "isa/instruction.hh"
#include "params/sampling.hh"
#include "surrogate/model.hh"

namespace perfbench
{

/** What the probes run on. */
struct ProbeInputs
{
    const difftune::surrogate::Model *model = nullptr; ///< surrogate
    const difftune::params::SamplingDist *dist = nullptr;
    const difftune::params::ParamTable *base = nullptr;
    /** Distinct blocks (forward, batch and batched-width probes). */
    std::vector<difftune::isa::BasicBlock> blocks;
    /** Raw request texts in workload order (parse/intern probes). */
    std::vector<std::string> texts;
    uint64_t seed = 1;
};

/**
 * Add nn.fwd_bwd_us, core.batch_ms, core.parallel_eff,
 * params.sample_us, isa.parse_us, isa.intern_us and
 * nn.batched_us_per_block.{w1,w8,w32} to @p report.
 */
void addLayerProbes(Report &report, const ProbeInputs &in);

/** An untrained surrogate of the experiment shape (hidden 64). */
std::unique_ptr<difftune::surrogate::Model>
experimentModel(const difftune::params::SamplingDist &dist,
                uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
