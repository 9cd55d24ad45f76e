/**
 * @file
 * Unit tests for src/base: formatting, RNG, env knobs, parallel
 * fork-join, interval scheduling and table rendering.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "base/env.hh"
#include "base/interval_schedule.hh"
#include "base/logging.hh"
#include "base/parallel.hh"
#include "base/random.hh"
#include "base/table.hh"

namespace difftune
{
namespace
{

// ---------------------------------------------------------------- fmtStr

TEST(FmtStr, SubstitutesPlaceholders)
{
    EXPECT_EQ(fmtStr("x={} y={}", 1, 2.5), "x=1 y=2.5");
}

TEST(FmtStr, NoPlaceholders)
{
    EXPECT_EQ(fmtStr("plain"), "plain");
}

TEST(FmtStr, ExtraArgumentsAppended)
{
    EXPECT_EQ(fmtStr("a={}", 1, 2), "a=1 2");
}

TEST(FmtStr, LiteralBracesWithoutArgs)
{
    EXPECT_EQ(fmtStr("keep {}"), "keep {}");
}

TEST(FmtStr, StringsAndChars)
{
    EXPECT_EQ(fmtStr("{}/{}", std::string("a"), "b"), "a/b");
}

// ---------------------------------------------------------------- logging

TEST(Logging, FatalThrows)
{
    try {
        fatal("boom {}", 7);
        FAIL() << "fatal returned";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "fatal: boom 7");
    }
}

TEST(Logging, FatalWritesNothingToStderr)
{
    // The caller reports the error (a CLI main prints what() once)
    // or handles it (an engine answers it through a future); fatal
    // itself must not print, or every catch-and-rethrow repeats it.
    testing::internal::CaptureStderr();
    EXPECT_THROW(fatal("quiet {}", 1), std::runtime_error);
    EXPECT_THROW(fatal_if(true, "quiet too"), std::runtime_error);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Logging, FatalIfRespectsCondition)
{
    EXPECT_NO_THROW(fatal_if(false, "no"));
    EXPECT_THROW(fatal_if(true, "yes"), std::runtime_error);
}

TEST(Logging, VerboseToggle)
{
    setVerbose(false);
    EXPECT_FALSE(verbose());
    setVerbose(true);
    EXPECT_TRUE(verbose());
}

// -------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        int64_t v = rng.uniformInt(-3, 12);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 12);
    }
}

TEST(Rng, UniformIntCoversRange)
{
    Rng rng(9);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(0, 5));
    EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(4, 4), 4);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, UniformIntApproximatelyUniform)
{
    Rng rng(11);
    std::vector<int> counts(10, 0);
    const int draws = 100000;
    for (int i = 0; i < draws; ++i)
        ++counts[rng.uniformInt(0, 9)];
    for (int c : counts)
        EXPECT_NEAR(c, draws / 10, draws / 100);
}

TEST(Rng, NormalMoments)
{
    Rng rng(5);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled)
{
    Rng rng(6);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += rng.normal(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(8);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.01);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(10);
    std::vector<double> weights = {1.0, 3.0, 0.0};
    std::vector<int> counts(3, 0);
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_EQ(counts[2], 0);
    EXPECT_NEAR(double(counts[1]) / n, 0.75, 0.02);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(12);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependent)
{
    Rng a(1);
    Rng child = a.fork();
    EXPECT_NE(child.next(), a.next());
}

// -------------------------------------------------------------------- env

TEST(Env, DefaultsWhenUnset)
{
    unsetenv("DIFFTUNE_TEST_VAR");
    EXPECT_EQ(envDouble("DIFFTUNE_TEST_VAR", 1.5), 1.5);
    EXPECT_EQ(envLong("DIFFTUNE_TEST_VAR", 42), 42);
    EXPECT_EQ(envString("DIFFTUNE_TEST_VAR", "d"), "d");
}

TEST(Env, ParsesValues)
{
    setenv("DIFFTUNE_TEST_VAR", "2.25", 1);
    EXPECT_EQ(envDouble("DIFFTUNE_TEST_VAR", 0.0), 2.25);
    setenv("DIFFTUNE_TEST_VAR", "17", 1);
    EXPECT_EQ(envLong("DIFFTUNE_TEST_VAR", 0), 17);
    unsetenv("DIFFTUNE_TEST_VAR");
}

TEST(Env, ParseLongAcceptsOnlyWholeNumbersInRange)
{
    EXPECT_EQ(parseLong("--port", "0", 0, 65535), 0);
    EXPECT_EQ(parseLong("--port", "65535", 0, 65535), 65535);
    EXPECT_EQ(parseLong("n", "-3", -5, 5), -3);
    EXPECT_EQ(parseLong("n", "123456789012", 1), 123456789012L);

    const long unbounded = std::numeric_limits<long>::max();
    auto error = [](const std::string &text, long lo, long hi) {
        try {
            parseLong("--port", text, lo, hi);
        } catch (const std::runtime_error &caught) {
            return std::string(caught.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(error("70000", 0, 65535),
              "fatal: --port must be an integer in [0, 65535], got '70000'");
    EXPECT_EQ(error("-1", 0, 65535),
              "fatal: --port must be an integer in [0, 65535], got '-1'");
    EXPECT_EQ(error("abc", 1, unbounded),
              "fatal: --port must be an integer >= 1, got 'abc'");
    for (const char *bad : {"", "12abc", " 12", "12 ", "+12", "1e3"})
        EXPECT_NE(error(bad, 0, unbounded), "accepted") << bad;
    EXPECT_NE(error("9223372036854775808", 0, unbounded), "accepted");
}

TEST(Env, ParseU64AcceptsOnlyDigitsInTheFullRange)
{
    EXPECT_EQ(parseU64("--seed", "0"), 0u);
    EXPECT_EQ(parseU64("--seed", "42"), 42u);
    EXPECT_EQ(parseU64("--seed", "18446744073709551615"),
              std::numeric_limits<uint64_t>::max());

    auto error = [](const std::string &text) {
        try {
            parseU64("--seed", text);
        } catch (const std::runtime_error &caught) {
            return std::string(caught.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(error("-1"), "fatal: --seed must be an integer in "
                           "[0, 18446744073709551615], got '-1'");
    EXPECT_EQ(error("abc"), "fatal: --seed must be an integer in "
                            "[0, 18446744073709551615], got 'abc'");
    for (const char *bad : {"", "+1", "-0", " 1", "1 ", "12abc", "1e3",
                            "0x10", "18446744073709551616"})
        EXPECT_NE(error(bad), "accepted") << bad;
}

TEST(Env, ParseDoubleAcceptsOnlyWholeFiniteNumbersInRange)
{
    EXPECT_EQ(parseDouble("--zipf", "1.1", 0.0), 1.1);
    EXPECT_EQ(parseDouble("--zipf", "0", 0.0), 0.0);
    EXPECT_EQ(parseDouble("--respell", "1", 0.0, 1.0), 1.0);
    EXPECT_EQ(parseDouble("--respell", "0.25", 0.0, 1.0), 0.25);
    EXPECT_EQ(parseDouble("--delta", "-2.5e-3"), -2.5e-3);

    auto error = [](const std::string &text, double lo, double hi) {
        try {
            parseDouble("--x", text, lo, hi);
        } catch (const std::runtime_error &caught) {
            return std::string(caught.what());
        }
        return std::string("accepted");
    };
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(error("2", 0.0, 1.0),
              "fatal: --x must be a number in [0, 1], got '2'");
    EXPECT_EQ(error("-1", 0.0, inf),
              "fatal: --x must be a number >= 0, got '-1'");
    EXPECT_EQ(error("abc", -inf, inf),
              "fatal: --x must be a finite number, got 'abc'");
    for (const char *bad : {"", "+1", " 1", "1 ", "1.5x", "nan", "inf",
                            "-inf", "infinity", "1e999", "0x1p3"})
        EXPECT_NE(error(bad, -inf, inf), "accepted") << bad;
}

TEST(Env, ScaledCountHasFloor)
{
    EXPECT_GE(scaledCount(100, 10), 10);
}

// --------------------------------------------------------------- parallel

TEST(Parallel, VisitsEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(1000, 8, [&](size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ZeroItems)
{
    int calls = 0;
    parallelFor(0, 4, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(Parallel, SingleWorkerSerial)
{
    std::vector<int> order;
    parallelShards(10, 1, [&](size_t b, size_t e, int shard) {
        EXPECT_EQ(shard, 0);
        for (size_t i = b; i < e; ++i)
            order.push_back(int(i));
    });
    EXPECT_EQ(order.size(), 10u);
}

TEST(Parallel, ShardsCoverRangeDisjointly)
{
    std::vector<std::atomic<int>> hits(997);
    parallelShards(997, 7, [&](size_t b, size_t e, int) {
        for (size_t i = b; i < e; ++i)
            ++hits[i];
    });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, NestedCallsDoNotDeadlock)
{
    std::atomic<int> total{0};
    parallelFor(8, 4, [&](size_t) {
        parallelFor(8, 4, [&](size_t) { ++total; });
    });
    EXPECT_EQ(total.load(), 64);
}

// ---------------------------------------------------- interval scheduling

TEST(UnitSchedule, EmptyIsImmediatelyFree)
{
    UnitSchedule unit;
    EXPECT_EQ(unit.nextFree(5, 3), 5);
}

TEST(UnitSchedule, ReservationPushesBack)
{
    UnitSchedule unit;
    unit.reserve(5, 3); // busy [5, 8)
    EXPECT_EQ(unit.nextFree(5, 1), 8);
    EXPECT_EQ(unit.nextFree(0, 5), 0); // fits before
    EXPECT_EQ(unit.nextFree(0, 6), 8); // does not fit before
}

TEST(UnitSchedule, GapFilling)
{
    UnitSchedule unit;
    unit.reserve(0, 2);  // [0,2)
    unit.reserve(10, 2); // [10,12)
    EXPECT_EQ(unit.nextFree(0, 3), 2);  // gap [2,10)
    EXPECT_EQ(unit.nextFree(0, 9), 12); // too long for the gap
}

TEST(UnitSchedule, AdjacentIntervalsMerge)
{
    UnitSchedule unit;
    unit.reserve(0, 2);
    unit.reserve(2, 2);
    EXPECT_EQ(unit.numIntervals(), 1u);
    EXPECT_EQ(unit.nextFree(0, 1), 4);
}

TEST(UnitSchedule, PruneDropsPast)
{
    UnitSchedule unit;
    unit.reserve(0, 1);
    unit.reserve(5, 1);
    unit.prune(3);
    EXPECT_EQ(unit.numIntervals(), 1u);
}

TEST(UnitSchedule, ZeroOccupancyIgnored)
{
    UnitSchedule unit;
    unit.reserve(3, 0);
    EXPECT_EQ(unit.numIntervals(), 0u);
}

TEST(PoolSchedule, UsesAllUnits)
{
    PoolSchedule pool(2);
    EXPECT_EQ(pool.acquire(0, 4), 0); // unit 0: [0,4)
    EXPECT_EQ(pool.acquire(0, 4), 0); // unit 1: [0,4)
    EXPECT_EQ(pool.acquire(0, 4), 4); // both busy
}

TEST(PoolSchedule, BackfillsIdleWindows)
{
    PoolSchedule pool(1);
    EXPECT_EQ(pool.acquire(10, 2), 10);
    // A later request with an earlier ready time fits before.
    EXPECT_EQ(pool.acquire(0, 2), 0);
}

TEST(PortSchedule, JointAcquisitionWaitsForAll)
{
    PortSchedule ports(3);
    EXPECT_EQ(ports.acquireJoint({{0, 2}}, 0), 0); // port0 [0,2)
    // Needs ports 0 and 1 simultaneously; port0 busy until 2.
    EXPECT_EQ(ports.acquireJoint({{0, 1}, {1, 1}}, 0), 2);
}

TEST(PortSchedule, EmptyRequirementIssuesAtReady)
{
    PortSchedule ports(2);
    EXPECT_EQ(ports.acquireJoint({}, 7), 7);
}

TEST(PortSchedule, ThroughputOnePerCycle)
{
    PortSchedule ports(1);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(ports.acquireJoint({{0, 1}}, 0), i);
}

TEST(PortSchedule, DifferentOccupanciesPerPort)
{
    PortSchedule ports(2);
    // Hold port0 for 3 and port1 for 1 starting together.
    EXPECT_EQ(ports.acquireJoint({{0, 3}, {1, 1}}, 0), 0);
    // Port1 frees at 1, port0 at 3: joint needs both -> 3.
    EXPECT_EQ(ports.acquireJoint({{0, 1}, {1, 1}}, 0), 3);
    // Port1-only work backfills the [1,3) window.
    EXPECT_EQ(ports.acquireJoint({{1, 1}}, 0), 1);
}

// ------------------------------------------------------------------ table

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable table({"a", "bb"});
    table.addRow({"1", "2"});
    const std::string out = table.render();
    EXPECT_NE(out.find("| a "), std::string::npos);
    EXPECT_NE(out.find("| 1 "), std::string::npos);
}

TEST(TextTable, SeparatorRows)
{
    TextTable table({"x"});
    table.addRow({"1"});
    table.addSeparator();
    table.addRow({"2"});
    const std::string out = table.render();
    // 5 separator lines: top, under header, explicit, bottom... and
    // the header separator.
    EXPECT_GE(std::count(out.begin(), out.end(), '+'), 8);
}

TEST(TextTable, FormatHelpers)
{
    EXPECT_EQ(fmtDouble(1.234, 2), "1.23");
    EXPECT_EQ(fmtPercent(0.254, 1), "25.4%");
    EXPECT_EQ(fmtPercent(1.02, 1), "102.0%");
}

} // namespace
} // namespace difftune
