#include "compare/compare.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "base/logging.hh"
#include "base/table.hh"

namespace difftune::compare
{

const char *
diffClassName(DiffClass cls)
{
    switch (cls) {
    case DiffClass::kBitExact:
        return "bit-exact";
    case DiffClass::kWithinTolerance:
        return "within-tolerance";
    case DiffClass::kDiverged:
        return "diverged";
    case DiffClass::kOnlyInA:
        return "only-in-a";
    case DiffClass::kOnlyInB:
        return "only-in-b";
    case DiffClass::kNumClasses:
        break;
    }
    fatal("bad DiffClass {}", int(cls));
}

DiffClass
classifyPair(uint64_t bits_a, uint64_t bits_b, double tolerance,
             double *rel_error)
{
    if (bits_a == bits_b) {
        if (rel_error)
            *rel_error = 0.0;
        return DiffClass::kBitExact;
    }
    const double a = std::bit_cast<double>(bits_a);
    const double b = std::bit_cast<double>(bits_b);
    // A non-finite prediction that is not bit-identical is always a
    // divergence: NaN has no meaningful relative error, and an Inf
    // of either sign is unbounded error against any finite value.
    if (!std::isfinite(a) || !std::isfinite(b))
        return DiffClass::kDiverged;
    const double denom = std::max(std::fabs(a), std::fabs(b));
    // denom == 0 only for the +0.0 / -0.0 pair (equal bits returned
    // above): numerically identical, so relative error 0.
    const double rel =
        denom == 0.0 ? 0.0 : std::fabs(a - b) / denom;
    if (rel_error)
        *rel_error = rel;
    return rel <= tolerance ? DiffClass::kWithinTolerance
                            : DiffClass::kDiverged;
}

uint64_t
ClassCounts::total() const
{
    uint64_t sum = 0;
    for (uint64_t c : counts)
        sum += c;
    return sum;
}

int
CompareReport::exitCode() const
{
    if (counts[DiffClass::kDiverged] || counts[DiffClass::kOnlyInA] ||
        counts[DiffClass::kOnlyInB])
        return 2;
    if (counts[DiffClass::kWithinTolerance])
        return 1;
    return 0;
}

std::vector<std::string>
distinctOpcodes(const std::string &text)
{
    std::set<std::string> opcodes;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        size_t start = line.find_first_not_of(" \t");
        if (start == std::string_view::npos || line[start] == '#')
            continue;
        size_t end = line.find_first_of(" \t", start);
        if (end == std::string_view::npos)
            end = line.size();
        opcodes.emplace(line.substr(start, end - start));
    }
    return {opcodes.begin(), opcodes.end()};
}

size_t
instructionCount(const std::string &text)
{
    size_t count = 0;
    size_t pos = 0;
    while (pos < text.size()) {
        size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        std::string_view line(text.data() + pos, eol - pos);
        pos = eol + 1;
        size_t start = line.find_first_not_of(" \t");
        if (start != std::string_view::npos && line[start] != '#')
            ++count;
    }
    return count;
}

namespace
{

/** Fold one classified block into the report's breakdowns. */
void
account(CompareReport &report, const BlockDiff &diff)
{
    report.counts[diff.cls]++;
    for (const std::string &opcode : distinctOpcodes(diff.text))
        report.byOpcode[opcode][diff.cls]++;
    report.byLength[instructionCount(diff.text)][diff.cls]++;
}

} // namespace

CompareReport
compare(const PredsArtifact &a, const PredsArtifact &b,
        CompareConfig config)
{
    CompareReport report;
    report.engineA = a.engine;
    report.engineB = b.engine;
    report.config = config;
    report.digestMatch = a.corpusDigest == b.corpusDigest;

    std::unordered_map<std::string_view, size_t> indexB;
    indexB.reserve(b.blocks.size());
    for (size_t i = 0; i < b.blocks.size(); ++i)
        indexB.emplace(b.blocks[i].text, i);

    std::vector<bool> matchedB(b.blocks.size(), false);
    report.blocks.reserve(a.blocks.size() + b.blocks.size());
    for (size_t i = 0; i < a.blocks.size(); ++i) {
        const BlockPreds &blockA = a.blocks[i];
        BlockDiff diff;
        diff.text = blockA.text;
        diff.indexA = int64_t(i);
        diff.bitsA = blockA.bits;
        auto it = indexB.find(blockA.text);
        if (it == indexB.end())
            diff.cls = DiffClass::kOnlyInA;
        else {
            matchedB[it->second] = true;
            diff.indexB = int64_t(it->second);
            diff.bitsB = b.blocks[it->second].bits;
            diff.cls = classifyPair(diff.bitsA, diff.bitsB,
                                    config.tolerance, &diff.relError);
        }
        account(report, diff);
        report.blocks.push_back(std::move(diff));
    }
    for (size_t i = 0; i < b.blocks.size(); ++i) {
        if (matchedB[i])
            continue;
        BlockDiff diff;
        diff.text = b.blocks[i].text;
        diff.indexB = int64_t(i);
        diff.bitsB = b.blocks[i].bits;
        diff.cls = DiffClass::kOnlyInB;
        account(report, diff);
        report.blocks.push_back(std::move(diff));
    }
    return report;
}

namespace
{

std::string
fmtRel(double rel)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3e", rel);
    return buf;
}

std::string
fmtBits(uint64_t bits)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

std::string
describeEngine(const EngineInfo &engine)
{
    return engine.source + " (" + engine.precision + ", " +
           engine.kernel + ", " + std::to_string(engine.workers) +
           " workers)";
}

/** The class columns shared by both breakdown tables. */
std::vector<std::string>
countCells(const ClassCounts &counts)
{
    std::vector<std::string> cells;
    cells.push_back(std::to_string(counts.total()));
    for (int c = 0; c < numDiffClasses; ++c)
        cells.push_back(std::to_string(counts[DiffClass(c)]));
    return cells;
}

std::vector<std::string>
breakdownHeaders(const std::string &key)
{
    std::vector<std::string> headers{key, "total"};
    for (int c = 0; c < numDiffClasses; ++c)
        headers.emplace_back(diffClassName(DiffClass(c)));
    return headers;
}

/** Identify a block in a diff line: A index, or B index if absent
 *  from A (the `b#` prefix keeps the two index spaces distinct). */
std::string
diffId(const BlockDiff &diff)
{
    if (diff.indexA >= 0)
        return "#" + std::to_string(diff.indexA);
    return "b#" + std::to_string(diff.indexB);
}

} // namespace

std::string
renderTable(const CompareReport &report)
{
    std::string out;
    out += "compare: A = " + describeEngine(report.engineA) + "\n";
    out += "         B = " + describeEngine(report.engineB) + "\n";
    out += "corpus digest: ";
    out += report.digestMatch ? "match" : "MISMATCH";
    out += "\ntolerance: " + fmtRel(report.config.tolerance) + "\n";

    out += "summary: total " + std::to_string(report.counts.total());
    for (int c = 0; c < numDiffClasses; ++c) {
        const DiffClass cls = DiffClass(c);
        out += std::string(" ") + diffClassName(cls) + " " +
               std::to_string(report.counts[cls]);
    }
    out += "\nexit: " + std::to_string(report.exitCode()) + "\n\n";

    TextTable byOpcode(breakdownHeaders("opcode"));
    for (const auto &[opcode, counts] : report.byOpcode) {
        std::vector<std::string> cells{opcode};
        for (std::string &cell : countCells(counts))
            cells.push_back(std::move(cell));
        byOpcode.addRow(std::move(cells));
    }
    out += byOpcode.render() + "\n";

    TextTable byLength(breakdownHeaders("length"));
    for (const auto &[length, counts] : report.byLength) {
        std::vector<std::string> cells{std::to_string(length)};
        for (std::string &cell : countCells(counts))
            cells.push_back(std::move(cell));
        byLength.addRow(std::move(cells));
    }
    out += byLength.render();

    bool anyDiff = false;
    for (const BlockDiff &diff : report.blocks) {
        if (diff.cls == DiffClass::kBitExact)
            continue;
        if (!anyDiff) {
            out += "\n";
            anyDiff = true;
        }
        out += std::string("diff ") + diffClassName(diff.cls) + " " +
               diffId(diff);
        if (diff.cls == DiffClass::kWithinTolerance ||
            diff.cls == DiffClass::kDiverged)
            out += " rel " + fmtRel(diff.relError) + " a " +
                   fmtBits(diff.bitsA) + " b " + fmtBits(diff.bitsB);
        out += "\n";
    }
    return out;
}

namespace
{

std::string
jsonString(const std::string &value)
{
    std::string out = "\"";
    for (char c : value) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else
                out += c;
        }
    }
    return out + "\"";
}

std::string
jsonEngine(const EngineInfo &engine)
{
    return "{\"source\":" + jsonString(engine.source) +
           ",\"precision\":" + jsonString(engine.precision) +
           ",\"kernel\":" + jsonString(engine.kernel) +
           ",\"workers\":" + std::to_string(engine.workers) + "}";
}

std::string
jsonCounts(const ClassCounts &counts)
{
    std::string out = "{";
    for (int c = 0; c < numDiffClasses; ++c) {
        if (c)
            out += ",";
        out += jsonString(diffClassName(DiffClass(c))) + ":" +
               std::to_string(counts[DiffClass(c)]);
    }
    return out + ",\"total\":" + std::to_string(counts.total()) + "}";
}

} // namespace

std::string
renderJson(const CompareReport &report)
{
    // Hand-rendered like obs/export.cc: insertion order is sorted
    // (std::map breakdowns), floats print via snprintf, so the
    // render is deterministic and golden-testable.
    std::string out = "{\"engineA\":" + jsonEngine(report.engineA) +
                      ",\"engineB\":" + jsonEngine(report.engineB);
    out += ",\"digestMatch\":";
    out += report.digestMatch ? "true" : "false";
    out += ",\"tolerance\":" + fmtRel(report.config.tolerance);
    out += ",\"exit\":" + std::to_string(report.exitCode());
    out += ",\"counts\":" + jsonCounts(report.counts);

    out += ",\"byOpcode\":{";
    bool first = true;
    for (const auto &[opcode, counts] : report.byOpcode) {
        if (!first)
            out += ",";
        first = false;
        out += jsonString(opcode) + ":" + jsonCounts(counts);
    }
    out += "},\"byLength\":{";
    first = true;
    for (const auto &[length, counts] : report.byLength) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + std::to_string(length) +
               "\":" + jsonCounts(counts);
    }
    out += "},\"diffs\":[";
    first = true;
    for (const BlockDiff &diff : report.blocks) {
        if (diff.cls == DiffClass::kBitExact)
            continue;
        if (!first)
            out += ",";
        first = false;
        out += "{\"class\":" +
               jsonString(diffClassName(diff.cls)) +
               ",\"indexA\":" + std::to_string(diff.indexA) +
               ",\"indexB\":" + std::to_string(diff.indexB) +
               ",\"relError\":" + fmtRel(diff.relError) +
               ",\"bitsA\":" + jsonString(fmtBits(diff.bitsA)) +
               ",\"bitsB\":" + jsonString(fmtBits(diff.bitsB)) + "}";
    }
    out += "]}";
    return out;
}

} // namespace difftune::compare
