/**
 * @file
 * End-to-end DiffTune walkthrough: generate a dataset, learn the
 * simulator's entire parameter table from end-to-end measurements,
 * and compare against the expert defaults. Mirrors the paper's
 * Figure 1 pipeline at laptop scale (a couple of minutes).
 *
 *   ./tune_simulator [uarch]   # IvyBridge|Haswell|Skylake|Zen2
 */

#include <fstream>
#include <iostream>
#include <string>

#include "base/table.hh"
#include "bhive/dataset.hh"
#include "core/difftune.hh"
#include "core/evaluate.hh"
#include "hw/default_table.hh"
#include "mca/xmca.hh"

namespace
{

int
run(int argc, char **argv)
{
    using namespace difftune;
    setVerbose(true);

    hw::Uarch uarch = hw::Uarch::Haswell;
    if (argc > 1) {
        const std::string name = argv[1];
        for (hw::Uarch candidate : hw::allUarches())
            if (name == hw::uarchName(candidate))
                uarch = candidate;
    }
    std::cout << "Tuning the XMca simulator for "
              << hw::uarchName(uarch) << "\n";

    // 1. Collect the real dataset: blocks + end-to-end measurements.
    auto corpus = bhive::Corpus::generate(1500, 42);
    bhive::Dataset dataset(corpus, uarch);
    std::cout << "dataset: " << dataset.train().size() << " train / "
              << dataset.valid().size() << " valid / "
              << dataset.test().size() << " test blocks\n";

    mca::XMca sim;
    auto base = hw::defaultTable(uarch);

    // 2-5. Simulated dataset -> surrogate -> table -> extraction.
    core::DiffTuneConfig cfg;
    cfg.simulatedMultiple = 6;
    cfg.surrogateLoops = 6;
    cfg.tableEpochs = 45;
    cfg.model.hidden = 48;
    cfg.model.embedDim = 32;
    cfg.model.tokenLayers = 1;
    cfg.seed = 1;
    core::DiffTune difftune(sim, dataset, base, cfg);
    auto result = difftune.run();

    auto def_eval = core::evaluate(sim, base, dataset, dataset.test());
    auto dt_eval =
        core::evaluate(sim, result.learned, dataset, dataset.test());

    TextTable table({"Parameters", "Test error", "Kendall tau"});
    table.addRow({"Expert defaults", fmtPercent(def_eval.error),
                  fmtDouble(def_eval.kendallTau, 3)});
    table.addRow({"DiffTune-learned", fmtPercent(dt_eval.error),
                  fmtDouble(dt_eval.kendallTau, 3)});
    std::cout << table.render();
    std::cout << "surrogate fidelity (vs simulator): "
              << fmtPercent(result.surrogateFidelity) << "\n"
              << "simulator evaluations used: "
              << result.simulatorEvals << "\n";

    const std::string out = "learned_params.txt";
    std::ofstream(out) << result.learned.save();
    std::cout << "learned table saved to " << out
              << " (reload with ParamTable::load)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 1;
    }
}
