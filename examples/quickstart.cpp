/**
 * @file
 * Quickstart: simulate a basic block, compare against the reference
 * machine, and inspect the parameters involved.
 *
 *   ./quickstart                 # built-in demo block
 *   ./quickstart "PUSH64r %rbx"  # your own (canonical syntax)
 */

#include <iostream>

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

    const char *demo =
        "MOV64rm 8(%rsi), %rdi\n"
        "ADD64rr %rdi, %rbx\n"
        "IMUL64rr %rbx, %rcx\n"
        "PUSH64r %rbx\n";
    isa::BasicBlock block =
        isa::parseBlock(argc > 1 ? argv[1] : demo);

    std::cout << "Block under analysis:\n" << isa::toString(block)
              << "\n";

    // The "physical CPU": measured ground truth per uarch.
    // The simulator: XMca (llvm-mca analog) with the expert tables.
    mca::XMca sim;
    TextTable table({"Microarchitecture", "Measured (RefMachine)",
                     "XMca w/ default params", "Error"});
    for (hw::Uarch uarch : hw::allUarches()) {
        hw::RefMachine machine(uarch);
        const double truth = machine.measure(block);
        const double pred =
            sim.timing(block, hw::defaultTable(uarch));
        table.addRow({hw::uarchName(uarch), fmtDouble(truth, 3),
                      fmtDouble(pred, 3),
                      fmtPercent(std::abs(pred - truth) /
                                 std::max(truth, 1e-9))});
    }
    std::cout << table.render();

    // Peek at the per-opcode parameters the simulator consumed.
    auto hsw = hw::defaultTable(hw::Uarch::Haswell);
    std::cout << "\nHaswell default parameters for this block "
                 "(Table II layout):\n";
    TextTable ptable({"Opcode", "NumMicroOps", "WriteLatency",
                      "ReadAdvance[0]", "Ports used"});
    for (const auto &inst : block.insts) {
        int ports = 0;
        for (int p = 0; p < params::numPorts; ++p)
            ports += hsw.portCycles(inst.opcode, p) > 0;
        ptable.addRow({inst.info().name,
                       std::to_string(hsw.uops(inst.opcode)),
                       std::to_string(hsw.latency(inst.opcode)),
                       std::to_string(
                           hsw.readAdvanceCycles(inst.opcode, 0)),
                       std::to_string(ports)});
    }
    std::cout << ptable.render()
              << "\nNext: examples/tune_simulator.cpp learns these "
                 "values from end-to-end measurements alone.\n";
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
