/**
 * @file
 * A transparent params::Simulator decorator for the traced runs. It
 * forwards timing(), name() and iterations() to the wrapped
 * simulator unchanged and counts, per phase slot, how many timing()
 * calls ran and how long they were busy. The caller switches the
 * slot between pipeline phases; the counters are atomic because the
 * library calls timing() from its worker pool.
 */

#ifndef PERFBENCH_TIMED_SIM_HH
#define PERFBENCH_TIMED_SIM_HH

#include <array>
#include <atomic>
#include <chrono>

#include "params/simulator.hh"

namespace perfbench
{

class TimedSimulator : public difftune::params::Simulator
{
  public:
    static constexpr int kSlots = 4;

    explicit TimedSimulator(const difftune::params::Simulator &inner)
        : inner_(inner)
    {
    }

    double
    timing(const difftune::isa::BasicBlock &block,
           const difftune::params::ParamTable &table) const override
    {
        using clock = std::chrono::steady_clock;
        const int slot = slot_.load(std::memory_order_relaxed);
        const auto start = clock::now();
        const double result = inner_.timing(block, table);
        const auto busy = clock::now() - start;
        calls_[slot].fetch_add(1, std::memory_order_relaxed);
        busyNs_[slot].fetch_add(
            uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         busy)
                         .count()),
            std::memory_order_relaxed);
        return result;
    }

    std::string name() const override { return inner_.name(); }
    int iterations() const override { return inner_.iterations(); }

    /** Charge subsequent calls to @p slot (0 <= slot < kSlots). */
    void setSlot(int slot) { slot_.store(slot); }

    long calls(int slot) const { return long(calls_[slot].load()); }

    double
    busySeconds(int slot) const
    {
        return double(busyNs_[slot].load()) * 1e-9;
    }

    long
    totalCalls() const
    {
        long total = 0;
        for (int s = 0; s < kSlots; ++s)
            total += calls(s);
        return total;
    }

    double
    totalBusySeconds() const
    {
        double total = 0.0;
        for (int s = 0; s < kSlots; ++s)
            total += busySeconds(s);
        return total;
    }

  private:
    const difftune::params::Simulator &inner_;
    std::atomic<int> slot_{0};
    mutable std::array<std::atomic<uint64_t>, kSlots> calls_{};
    mutable std::array<std::atomic<uint64_t>, kSlots> busyNs_{};
};

} // namespace perfbench

#endif // PERFBENCH_TIMED_SIM_HH
