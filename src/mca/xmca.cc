/**
 * @file
 * XMca implementation.
 *
 * The simulation walks the unrolled instruction stream once, in
 * program order. Dispatch is tracked cycle-accurately (bandwidth and
 * reorder-buffer occupancy); issue, execute and retire times are
 * computed per instruction from dependence and port-availability
 * state. Because resources are allocated in program order and all
 * event times of older instructions are final when a younger
 * instruction dispatches, a single pass is exact for this model.
 *
 * Each call first resolves the block against the table, once: per
 * instruction its uops, latency, port requirements, store flag and
 * the ReadAdvance of each read, so the loop does no table or Isa
 * lookups.
 *
 * timing() and timingWithTrace() share that loop. timingWithTrace()
 * simulates every iteration and records each event; it is the
 * reference the tests hold timing() to. timing() stops early once
 * the pipeline state repeats. Every rule in the loop is invariant
 * under shifting all cycle numbers by the same amount, so if the
 * state at iteration boundary i + p equals the state at boundary i
 * shifted by D cycles, each later period repeats the same way, and
 * the retire frontier after N iterations is exactly
 *
 *     frontier[i + (N - i) mod p] + D * floor((N - i) / p).
 *
 * The compared state is normalized against the dispatch cycle c at
 * the boundary. That drops nothing that can still matter, because
 * every later query starts at or after c:
 *
 *  - a port interval that ends by c can overlap no later request,
 *    and one that straddles c acts like its part from c on;
 *  - a ROB entry that retires by c is popped by the next
 *    retireUpTo(c) before it can stall dispatch;
 *  - a store frontier at or before c delays no store;
 *  - a producer whose issue cycle plus WriteLatency is at or before
 *    c delays no reader (ReadAdvance only shortens the chain, and
 *    the chain is clamped at zero);
 *  - a register the block never reads affects nothing.
 *
 * The retire frontier itself is never behind c (each instruction
 * completes no earlier than it dispatches). PortSchedule::prune()
 * and the merging of adjacent intervals change how a port's busy
 * set is stored, not how it answers queries, so each port is
 * compared as its busy set from c on, as merged intervals.
 *
 * Comparing that state at every boundary would cost more than it
 * saves, so a cheap signature of it (dispatch bandwidth left, the
 * retire and store frontiers, the ROB's entry count and uops, the
 * producers of the registers the block reads) is hashed at each
 * boundary. When a signature repeats within maxPeriod iterations,
 * giving a candidate period p, the full normalized state is captured
 * and compared exactly one period later. The hash only proposes
 * candidates; extrapolation happens only on exact equality, and
 * otherwise the simulation simply goes on.
 */

#include "mca/xmca.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <limits>
#include <optional>
#include <utility>

#include "base/interval_schedule.hh"
#include "base/logging.hh"

namespace difftune::mca
{

namespace
{

/** Longest steady-state period looked for, in iterations. */
constexpr int maxPeriod = 32;

/** Producer bookkeeping for one architectural register. */
struct RegState
{
    int64_t issueCycle = -1; ///< issue cycle of the last writer
    int writeLatency = 0;    ///< WriteLatency of the last writer
};

/** An in-flight reorder-buffer allocation. */
struct RobEntry
{
    int64_t retireCycle;
    int uops;
};

/** One register read, with the reader's ReadAdvance for its slot. */
struct ResolvedRead
{
    isa::RegId reg;
    int advance;
};

/** One block instruction with its table entries looked up. */
struct ResolvedInst
{
    int uops = 0;
    int latency = 0;
    int maxPortCycles = 0; ///< longest occupancy over its ports
    bool isStore = false;
    std::vector<PortSchedule::Requirement> ports;
    std::vector<ResolvedRead> reads;
    const std::vector<isa::RegId> *writes = nullptr;
};

/** Look up each instruction's table entries, once per call. */
std::vector<ResolvedInst>
resolve(const isa::BasicBlock &block, const params::ParamTable &table)
{
    std::vector<ResolvedInst> insts(block.size());
    for (size_t i = 0; i < block.size(); ++i) {
        const isa::Instruction &inst = block.insts[i];
        ResolvedInst &r = insts[i];
        r.uops = table.uops(inst.opcode);
        r.latency = table.latency(inst.opcode);
        for (int p = 0; p < params::numPorts; ++p) {
            const int occupancy = table.portCycles(inst.opcode, p);
            if (occupancy > 0) {
                r.ports.emplace_back(p, occupancy);
                r.maxPortCycles = std::max(r.maxPortCycles, occupancy);
            }
        }
        // Load/store unit: stores may not issue out of program
        // order with respect to older stores.
        const isa::MemMode mem = inst.info().mem;
        r.isStore =
            mem == isa::MemMode::Store || mem == isa::MemMode::LoadStore;
        for (size_t k = 0; k < inst.reads.size(); ++k) {
            const int ra_idx =
                std::min<size_t>(k, params::numReadAdvance - 1);
            const int advance = table.readAdvanceCycles(inst.opcode, ra_idx);
            r.reads.push_back({inst.reads[k], advance});
        }
        r.writes = &inst.writes;
    }
    return insts;
}

/** The pipeline state between two instructions, and its stages. */
struct Machine
{
    Machine(int dispatch_width, int rob_size)
        : dispatchWidth(dispatch_width), robSize(rob_size),
          bandwidthLeft(dispatch_width)
    {
    }

    const int dispatchWidth;
    const int robSize;
    std::array<RegState, isa::numRegs> regs{};
    PortSchedule ports{params::numPorts};
    std::deque<RobEntry> rob;
    int robUsed = 0;
    int bandwidthLeft;

    int64_t cycle = 0;           ///< current dispatch cycle
    int64_t lastRetire = 0;      ///< in-order retire frontier
    int64_t lastStoreIssue = -1; ///< store->store ordering

    void
    retireUpTo(int64_t now)
    {
        while (!rob.empty() && rob.front().retireCycle <= now) {
            robUsed -= rob.front().uops;
            rob.pop_front();
        }
    }

    /** Dispatch, issue and retire @p inst. */
    TraceEntry
    step(const ResolvedInst &inst)
    {
        // ---- Dispatch: reserve ROB space, then stream uops
        // through the dispatch stage at dispatchWidth per cycle.
        retireUpTo(cycle);
        // An instruction wider than the whole ROB dispatches into
        // an empty ROB (llvm-mca likewise never deadlocks here).
        while (robUsed + inst.uops > robSize && !rob.empty()) {
            const int64_t next = rob.front().retireCycle;
            cycle = std::max(cycle + 1, next);
            bandwidthLeft = dispatchWidth;
            retireUpTo(cycle);
        }
        robUsed += inst.uops;

        int remaining = inst.uops;
        while (remaining > 0) {
            if (bandwidthLeft == 0) {
                ++cycle;
                bandwidthLeft = dispatchWidth;
            }
            const int take = std::min(remaining, bandwidthLeft);
            remaining -= take;
            bandwidthLeft -= take;
        }
        const int64_t dispatched = cycle;

        // ---- Issue: wait for operands and for every port in the
        // instruction's PortMap to be simultaneously free.
        int64_t ready = dispatched;
        for (const ResolvedRead &read : inst.reads) {
            const RegState &producer = regs[read.reg];
            if (producer.issueCycle < 0)
                continue;
            const int chain =
                std::max(0, producer.writeLatency - read.advance);
            ready = std::max(ready, producer.issueCycle + chain);
        }
        if (inst.isStore)
            ready = std::max(ready, lastStoreIssue);

        const int64_t issue = ports.acquireJoint(inst.ports, ready);
        if (inst.isStore)
            lastStoreIssue = issue;

        // ---- Writeback: publish the new producer for each
        // written register.
        for (isa::RegId reg : *inst.writes)
            regs[reg] = {issue, inst.latency};

        // ---- Retire: in program order once execution completes.
        const int64_t complete =
            issue + std::max(inst.latency, inst.maxPortCycles);
        lastRetire = std::max(lastRetire, complete);
        rob.push_back({lastRetire, inst.uops});
        return {dispatched, issue, lastRetire};
    }
};

/**
 * Finds a repeating pipeline state at iteration boundaries and
 * extrapolates the final retire frontier from it (see the file
 * comment for why that is exact).
 */
class SteadyState
{
  public:
    SteadyState(const isa::BasicBlock &block, int iterations)
        : iterations_(iterations)
    {
        for (const isa::Instruction &inst : block.insts)
            for (isa::RegId reg : inst.reads)
                readRegs_ |= uint64_t(1) << reg;
    }

    /**
     * Look at the state @p m at the boundary before iteration
     * @p iter (0 <= iter < iterations).
     * @return the retire frontier after the last iteration, once a
     *         repeat has been verified; nothing before that
     */
    std::optional<int64_t>
    atBoundary(Machine &m, int iter)
    {
        // The next instruction begins with the same call, so this
        // only settles the ROB before it is looked at.
        m.retireUpTo(m.cycle);
        frontier(iter) = m.lastRetire;
        if (iter == verifyAt_) {
            encode(m, current_);
            if (current_ == captured_) {
                const int start = iter - period_;
                const int64_t shift = m.lastRetire - frontier(start);
                const int left = iterations_ - start;
                return frontier(start + left % period_) +
                       shift * (left / period_);
            }
            verifyAt_ = -1;
        }
        // The latest boundary with this signature, if its slot still
        // holds it; a slot taken by another signature in between only
        // delays a candidate.
        const uint64_t signature = hashSignature(m);
        Seen &seen = seen_[signature % seen_.size()];
        const int last = seen.signature == signature ? seen.iter : -1;
        seen = {signature, iter};
        if (verifyAt_ >= 0 || last < 0 || iter - last > maxPeriod)
            return std::nullopt;
        // Only worth capturing if the check falls before the end.
        if (2 * iter - last < iterations_) {
            period_ = iter - last;
            verifyAt_ = iter + period_;
            encode(m, captured_);
        }
        return std::nullopt;
    }

  private:
    static uint64_t
    mix(uint64_t hash, int64_t value)
    {
        hash = (hash ^ uint64_t(value)) * 0x9e3779b97f4a7c15ULL;
        return hash ^ (hash >> 29);
    }

    /** Issue cycle of a producer that can no longer delay a reader. */
    static constexpr int64_t settled = std::numeric_limits<int64_t>::min();

    /** Producer of @p reg (issue cycle, latency), relative to cycle. */
    static std::pair<int64_t, int64_t>
    producer(const Machine &m, isa::RegId reg)
    {
        const RegState &state = m.regs[reg];
        if (state.issueCycle < 0 ||
            state.issueCycle + state.writeLatency <= m.cycle)
            return {settled, 0};
        return {state.issueCycle - m.cycle, state.writeLatency};
    }

    /** The signature: a hash of part of the normalized state. */
    uint64_t
    hashSignature(const Machine &m) const
    {
        uint64_t hash = mix(0, m.bandwidthLeft);
        hash = mix(hash, m.lastRetire - m.cycle);
        hash = mix(hash, std::max<int64_t>(m.lastStoreIssue - m.cycle, 0));
        hash = mix(hash, int64_t(m.rob.size()));
        hash = mix(hash, m.robUsed);
        for (uint64_t regs = readRegs_; regs; regs &= regs - 1) {
            const auto [issue, latency] =
                producer(m, isa::RegId(std::countr_zero(regs)));
            hash = mix(mix(hash, issue), latency);
        }
        return hash;
    }

    /**
     * The full normalized state, flattened so that two states are
     * equal exactly when their encodings are (counts and terminators
     * keep the variable-length parts apart).
     */
    void
    encode(const Machine &m, std::vector<int64_t> &out) const
    {
        size_t size = 4 + 2 * m.rob.size() + params::numPorts;
        size += 2 * size_t(std::popcount(readRegs_));
        for (int p = 0; p < params::numPorts; ++p)
            size += 2 * m.ports.port(p).numIntervals();
        out.clear();
        out.reserve(size);
        out.push_back(m.bandwidthLeft);
        out.push_back(m.lastRetire - m.cycle);
        out.push_back(std::max<int64_t>(m.lastStoreIssue - m.cycle, 0));
        // retireUpTo(cycle) ran: every entry retires after cycle.
        out.push_back(int64_t(m.rob.size()));
        for (const RobEntry &entry : m.rob) {
            out.push_back(entry.retireCycle - m.cycle);
            out.push_back(entry.uops);
        }
        for (uint64_t regs = readRegs_; regs; regs &= regs - 1) {
            const auto [issue, latency] =
                producer(m, isa::RegId(std::countr_zero(regs)));
            out.push_back(issue);
            out.push_back(latency);
        }
        // Intervals come merged; clipping at cycle keeps them so.
        for (int p = 0; p < params::numPorts; ++p) {
            for (const auto &[start, end] : m.ports.port(p).intervals()) {
                if (end > m.cycle) {
                    out.push_back(std::max(start, m.cycle) - m.cycle);
                    out.push_back(end - m.cycle);
                }
            }
            out.push_back(-1); // relative interval bounds are >= 0
        }
    }

    /** The latest boundary seen with a signature. */
    struct Seen
    {
        uint64_t signature = 0;
        int iter = -1;
    };

    /** Retire frontiers kept, modulo: enough to look maxPeriod back. */
    static constexpr int historySize = 64;
    static_assert(historySize > maxPeriod);
    static_assert(isa::numRegs <= 64);

    int64_t &
    frontier(int iter)
    {
        return frontiers_[unsigned(iter) % historySize];
    }

    /** Bit r set: the block reads register r. */
    uint64_t readRegs_ = 0;
    int iterations_;
    std::array<int64_t, historySize> frontiers_{};
    /** Indexed by signature, modulo. */
    std::array<Seen, 64> seen_{};
    /** The state captured at boundary verifyAt_ - period_. */
    std::vector<int64_t> captured_;
    std::vector<int64_t> current_;
    /** The boundary of the pending exact check, or -1. */
    int verifyAt_ = -1;
    int period_ = 0;
};

/**
 * Simulate @p iterations copies of @p block. With @p trace, record
 * every instruction's events and simulate every iteration; without
 * it, stop at the first verified steady state.
 * @return total cycles (at least 1 for a non-empty block)
 */
int64_t
simulate(const isa::BasicBlock &block, const params::ParamTable &table,
         int iterations, Trace *trace)
{
    const std::vector<ResolvedInst> insts = resolve(block, table);
    Machine m(table.dispatch(), table.robSize());
    std::optional<SteadyState> steady;
    if (trace) {
        trace->entries.clear();
        trace->entries.reserve(block.size() * iterations);
    } else {
        steady.emplace(block, iterations);
    }

    for (int iter = 0; iter < iterations; ++iter) {
        if (steady) {
            if (const auto total = steady->atBoundary(m, iter))
                return std::max<int64_t>(*total, 1);
        }
        // Port intervals that end by the dispatch cycle can no longer
        // matter; dropping them now and then keeps the lists short.
        if ((iter & 0xf) == 0)
            m.ports.prune(m.cycle);
        for (const ResolvedInst &inst : insts) {
            const TraceEntry entry = m.step(inst);
            if (trace)
                trace->entries.push_back(entry);
        }
    }
    return std::max<int64_t>(m.lastRetire, 1);
}

} // namespace

double
XMca::timing(const isa::BasicBlock &block,
             const params::ParamTable &table) const
{
    if (block.empty())
        return 0.0;
    return double(simulate(block, table, iterations_, nullptr)) /
           double(iterations_);
}

double
XMca::timingWithTrace(const isa::BasicBlock &block,
                      const params::ParamTable &table, Trace &trace) const
{
    if (block.empty()) {
        trace.totalCycles = 0;
        return 0.0;
    }
    trace.totalCycles = simulate(block, table, iterations_, &trace);
    return double(trace.totalCycles) / double(iterations_);
}

} // namespace difftune::mca
