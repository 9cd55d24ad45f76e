/**
 * @file
 * Explore how a block's predicted timing responds to individual
 * parameters — the Figure 2/Figure 5 style analysis for any block.
 *
 *   ./explore_sensitivity                      # demo block
 *   ./explore_sensitivity "PUSH64r %rbx" PUSH64r
 *
 * The optional second argument selects the opcode whose WriteLatency
 * is swept (defaults to the first instruction's opcode).
 */

#include <iostream>

#include "base/logging.hh"
#include "base/table.hh"
#include "hw/default_table.hh"
#include "hw/ref_machine.hh"
#include "isa/parse.hh"
#include "mca/xmca.hh"

namespace
{

int
run(int argc, char **argv)
{
    using namespace difftune;

    isa::BasicBlock block = isa::parseBlock(
        argc > 1 ? argv[1] : "ADD32mr 16(%rsp), %eax");
    isa::OpcodeId swept = block.insts.front().opcode;
    if (argc > 2) {
        swept = isa::theIsa().opcodeByName(argv[2]);
        fatal_if(swept == isa::invalidOpcode, "unknown opcode {}",
                 argv[2]);
    }

    std::cout << "Block:\n" << isa::toString(block) << "\n";
    hw::RefMachine machine(hw::Uarch::Haswell);
    std::cout << "measured (Haswell RefMachine): "
              << fmtDouble(machine.measure(block), 3)
              << " cycles/iteration\n\n";

    mca::XMca sim;
    auto table = hw::defaultTable(hw::Uarch::Haswell);

    std::cout << "Sweeping WriteLatency("
              << isa::theIsa().info(swept).name << "):\n";
    TextTable wl_table({"WriteLatency", "XMca timing"});
    for (int wl = 0; wl <= 10; ++wl) {
        auto t = table;
        t.perOpcode[swept].writeLatency = wl;
        wl_table.addRow({std::to_string(wl),
                         fmtDouble(sim.timing(block, t), 3)});
    }
    std::cout << wl_table.render();

    std::cout << "\nSweeping DispatchWidth (Figure 2 style):\n";
    TextTable dw_table({"DispatchWidth", "XMca timing"});
    for (int dw = 1; dw <= 10; ++dw) {
        auto t = table;
        t.dispatchWidth = dw;
        dw_table.addRow({std::to_string(dw),
                         fmtDouble(sim.timing(block, t), 3)});
    }
    std::cout << dw_table.render();
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
