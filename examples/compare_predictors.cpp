/**
 * @file
 * Compare every predictor family on one microarchitecture: the
 * parameterized simulator with default tables, the analytical model,
 * and a learned Ithemal — the Table IV cast, on demand.
 *
 *   ./compare_predictors [uarch] [corpus_size]
 */

#include <iostream>
#include <string>

#include "analytical/iaca.hh"
#include "base/env.hh"
#include "base/table.hh"
#include "bhive/dataset.hh"
#include "core/evaluate.hh"
#include "core/ithemal.hh"
#include "hw/default_table.hh"
#include "mca/xmca.hh"
#include "usim/usim.hh"

namespace
{

int
run(int argc, char **argv)
{
    using namespace difftune;
    setVerbose(false);

    hw::Uarch uarch = hw::Uarch::Skylake;
    if (argc > 1) {
        const std::string name = argv[1];
        for (hw::Uarch candidate : hw::allUarches())
            if (name == hw::uarchName(candidate))
                uarch = candidate;
    }
    const size_t corpus_size =
        argc > 2 ? size_t(parseLong("corpus_size", argv[2], 1)) : 1200;

    auto corpus = bhive::Corpus::generate(corpus_size, 7);
    bhive::Dataset dataset(corpus, uarch);
    std::cout << "predictor comparison on " << hw::uarchName(uarch)
              << " (" << dataset.test().size() << " test blocks)\n";

    TextTable table({"Predictor", "Error", "Kendall tau"});
    auto add = [&table](const std::string &name,
                        const core::EvalResult &eval) {
        table.addRow({name, fmtPercent(eval.error),
                      fmtDouble(eval.kendallTau, 3)});
    };

    auto def = hw::defaultTable(uarch);
    mca::XMca xmca;
    add("XMca (llvm-mca analog), default params",
        core::evaluate(xmca, def, dataset, dataset.test()));

    usim::USim usim_sim;
    add("USim (llvm_sim analog), default params",
        core::evaluate(usim_sim, def, dataset, dataset.test()));

    if (analytical::XIaca::supports(uarch)) {
        analytical::XIaca iaca(uarch);
        std::vector<double> preds;
        for (const auto &entry : dataset.test())
            preds.push_back(iaca.timing(dataset.block(entry)));
        add("XIaca (IACA analog)",
            core::evaluatePredictions(std::move(preds),
                                      dataset.test()));
    } else {
        table.addRow({"XIaca (IACA analog)", "N/A (AMD)", "N/A"});
    }

    core::IthemalConfig cfg;
    cfg.epochs = 8;
    cfg.model.hidden = 48;
    cfg.model.embedDim = 32;
    cfg.model.tokenLayers = 1;
    core::Ithemal ithemal(dataset, cfg);
    ithemal.train();
    add("Ithemal (learned, unconstrained)",
        ithemal.evaluate(dataset.test()));

    std::cout << table.render()
              << "\nExpected ordering (paper Table IV): Ithemal < "
                 "analytical < simulator defaults; USim worst.\n";
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
