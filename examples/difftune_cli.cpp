/**
 * @file
 * difftune_cli — a command-line front end over the library, the entry
 * point a downstream user scripts against.
 *
 *   difftune_cli simulate <uarch> <block.s> [params.txt]
 *       Predict a block's timing with XMca (default or saved table).
 *   difftune_cli measure <uarch> <block.s>
 *       Measure a block on the reference machine (ground truth).
 *   difftune_cli tune <uarch> <out_params.txt> [corpus_size]
 *       Run the full DiffTune pipeline and save the learned table.
 *   difftune_cli eval <uarch> <params.txt> [corpus_size]
 *       Evaluate a saved table on a freshly measured test split.
 *   difftune_cli dump-defaults <uarch> <out_params.txt>
 *       Write the expert default table to a file.
 *
 * Blocks use the canonical syntax printed by the library, one
 * instruction per line; '-' reads from stdin.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "bhive/dataset.hh"
#include "core/difftune.hh"
#include "core/evaluate.hh"
#include "hw/default_table.hh"
#include "hw/ref_machine.hh"
#include "isa/parse.hh"
#include "mca/xmca.hh"

namespace
{

using namespace difftune;

hw::Uarch
parseUarch(const std::string &name)
{
    for (hw::Uarch uarch : hw::allUarches())
        if (name == hw::uarchName(uarch))
            return uarch;
    fatal("unknown microarchitecture '{}' (expected IvyBridge, "
          "Haswell, Skylake or Zen2)",
          name);
}

std::string
readFileOrStdin(const std::string &path)
{
    std::stringstream buffer;
    if (path == "-") {
        buffer << std::cin.rdbuf();
    } else {
        std::ifstream in(path);
        fatal_if(!in, "cannot open '{}'", path);
        buffer << in.rdbuf();
    }
    return buffer.str();
}

params::ParamTable
loadTable(const std::string &path)
{
    return params::ParamTable::load(readFileOrStdin(path));
}

int
cmdSimulate(int argc, char **argv)
{
    fatal_if(argc < 4, "usage: simulate <uarch> <block.s> [params]");
    const hw::Uarch uarch = parseUarch(argv[2]);
    auto block = isa::parseBlock(readFileOrStdin(argv[3]));
    auto table =
        argc > 4 ? loadTable(argv[4]) : hw::defaultTable(uarch);
    mca::XMca sim;
    std::cout << sim.timing(block, table) << "\n";
    return 0;
}

int
cmdMeasure(int argc, char **argv)
{
    fatal_if(argc < 4, "usage: measure <uarch> <block.s>");
    hw::RefMachine machine(parseUarch(argv[2]));
    std::cout << machine.measure(
                     isa::parseBlock(readFileOrStdin(argv[3])))
              << "\n";
    return 0;
}

int
cmdTune(int argc, char **argv)
{
    fatal_if(argc < 4, "usage: tune <uarch> <out_params> [corpus]");
    const hw::Uarch uarch = parseUarch(argv[2]);
    const size_t corpus_size =
        argc > 4 ? size_t(parseLong("corpus", argv[4], 1)) : 2000;
    setVerbose(true);

    auto corpus = bhive::Corpus::generate(corpus_size, 42);
    bhive::Dataset dataset(corpus, uarch);
    mca::XMca sim;
    auto base = hw::defaultTable(uarch);
    core::DiffTune difftune(sim, dataset, base,
                            core::DiffTuneConfig{});
    auto result = difftune.run();

    std::ofstream(argv[3]) << result.learned.save();
    auto eval =
        core::evaluate(sim, result.learned, dataset, dataset.test());
    std::cout << "learned table -> " << argv[3]
              << "  (test error " << fmtPercent(eval.error)
              << ", tau " << fmtDouble(eval.kendallTau, 3) << ")\n";
    return 0;
}

int
cmdEval(int argc, char **argv)
{
    fatal_if(argc < 4, "usage: eval <uarch> <params> [corpus]");
    const hw::Uarch uarch = parseUarch(argv[2]);
    const size_t corpus_size =
        argc > 4 ? size_t(parseLong("corpus", argv[4], 1)) : 2000;
    auto corpus = bhive::Corpus::generate(corpus_size, 42);
    bhive::Dataset dataset(corpus, uarch);
    mca::XMca sim;
    auto eval = core::evaluate(sim, loadTable(argv[3]), dataset,
                               dataset.test());
    std::cout << "error " << fmtPercent(eval.error) << "  tau "
              << fmtDouble(eval.kendallTau, 3) << "  ("
              << dataset.test().size() << " test blocks)\n";
    return 0;
}

int
cmdDumpDefaults(int argc, char **argv)
{
    fatal_if(argc < 4, "usage: dump-defaults <uarch> <out_params>");
    std::ofstream(argv[3])
        << hw::defaultTable(parseUarch(argv[2])).save();
    std::cout << "default table -> " << argv[3] << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: difftune_cli "
                     "<simulate|measure|tune|eval|dump-defaults> ...\n";
        return 2;
    }
    const std::string command = argv[1];
    try {
        if (command == "simulate")
            return cmdSimulate(argc, argv);
        if (command == "measure")
            return cmdMeasure(argc, argv);
        if (command == "tune")
            return cmdTune(argc, argv);
        if (command == "eval")
            return cmdEval(argc, argv);
        if (command == "dump-defaults")
            return cmdDumpDefaults(argc, argv);
        std::cerr << "unknown command '" << command << "'\n";
        return 2;
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 1;
    }
}
