/**
 * @file
 * Interval-based execution-resource scheduling.
 *
 * Out-of-order cores let a younger ready instruction issue into an
 * idle execution-port cycle even when an older instruction is still
 * waiting on its operands. A simulator that walks instructions in
 * program order therefore cannot track ports as single "free after
 * cycle X" scalars — that would charge younger instructions for idle
 * windows that precede an older instruction's reservation. These
 * classes track per-unit busy *intervals* instead and satisfy
 * requests by gap-filling: a request reserves the earliest window at
 * or after its ready time that does not overlap existing
 * reservations. Because older instructions reserve first, age
 * priority is preserved.
 */

#ifndef DIFFTUNE_BASE_INTERVAL_SCHEDULE_HH
#define DIFFTUNE_BASE_INTERVAL_SCHEDULE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace difftune
{

/** Busy-interval timeline of a single execution unit. */
class UnitSchedule
{
  public:
    /**
     * Earliest start >= @p ready where the unit is continuously free
     * for @p occupancy cycles. Does not reserve.
     */
    int64_t nextFree(int64_t ready, int occupancy) const;

    /** Reserve [start, start + occupancy). */
    void reserve(int64_t start, int occupancy);

    /** Drop intervals that end at or before @p horizon. */
    void prune(int64_t horizon);

    size_t numIntervals() const { return intervals_.size(); }

    /** The busy intervals [start, end): sorted, disjoint, merged. */
    const std::vector<std::pair<int64_t, int64_t>> &
    intervals() const
    {
        return intervals_;
    }

  private:
    /** Sorted, disjoint busy intervals (start, end). */
    std::vector<std::pair<int64_t, int64_t>> intervals_;
};

/** A pool of identical units (e.g. two load ports). */
class PoolSchedule
{
  public:
    explicit PoolSchedule(int units) : units_(units ? units : 1) {}

    /**
     * Reserve @p occupancy cycles on the unit that can start
     * earliest, no earlier than @p ready.
     * @return the reserved start cycle
     */
    int64_t acquire(int64_t ready, int occupancy);

    void prune(int64_t horizon);

  private:
    std::vector<UnitSchedule> units_;
};

/**
 * A set of individually-named units (XMca's 10 execution ports)
 * supporting joint acquisition: an instruction must hold all of its
 * required ports simultaneously (llvm-mca's issue rule).
 */
class PortSchedule
{
  public:
    explicit PortSchedule(int ports) : ports_(ports) {}

    /** One port requirement: (port index, occupancy cycles). */
    using Requirement = std::pair<int, int>;

    /**
     * Earliest start >= @p ready where every required port is free
     * for its occupancy; reserves all of them.
     * @return the reserved start cycle
     */
    int64_t acquireJoint(const std::vector<Requirement> &requirements,
                         int64_t ready);

    void prune(int64_t horizon);

    /** Read-only view of one port's timeline. */
    const UnitSchedule &port(int index) const { return ports_[index]; }

  private:
    std::vector<UnitSchedule> ports_;
};

} // namespace difftune

#endif // DIFFTUNE_BASE_INTERVAL_SCHEDULE_HH
