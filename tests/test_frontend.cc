/**
 * @file
 * Front-end tests: the zero-copy tokenizer/parser (A/B
 * byte-equality against a copy of the legacy string-based parser,
 * malformed-input rejection, zero-copy lexeme slicing), the
 * interning layer (canonical identity, near-miss resolution,
 * capacity fallback, concurrent interning — the TSan target), the
 * runtime matvec dispatch (scalar vs AVX2 bitwise equality, path
 * selection), and the serving front end's intern counters.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "bhive/corpus.hh"
#include "isa/intern.hh"
#include "isa/parse.hh"
#include "nn/matvec_dispatch.hh"
#include "serve/async_engine.hh"

namespace difftune
{
namespace
{

// ------------------------------------------------------------------
// A verbatim copy of the legacy string-based parser (the
// pre-string_view src/isa/parse.cc), kept here as the A/B reference:
// the zero-copy parser must reproduce its output — and its quirks —
// byte for byte.
namespace legacy
{

void
splitLine(const std::string &line, std::string &op_name,
          std::vector<std::string> &operands)
{
    size_t pos = 0;
    while (pos < line.size() && std::isspace(line[pos]))
        ++pos;
    size_t start = pos;
    while (pos < line.size() && !std::isspace(line[pos]))
        ++pos;
    op_name = line.substr(start, pos - start);

    std::string rest = line.substr(pos);
    std::string current;
    for (char c : rest) {
        if (c == ',') {
            operands.push_back(current);
            current.clear();
        } else if (!std::isspace(c)) {
            current += c;
        }
    }
    if (!current.empty())
        operands.push_back(current);
}

isa::Instruction
parseInstruction(const std::string &line)
{
    using namespace isa;
    std::string op_name;
    std::vector<std::string> operand_strs;
    splitLine(line, op_name, operand_strs);

    OpcodeId opcode = theIsa().opcodeByName(op_name);
    fatal_if(opcode == invalidOpcode, "unknown opcode '{}' in '{}'",
             op_name, line);
    const OpcodeInfo &op = theIsa().info(opcode);

    std::vector<RegId> slots;
    MemRef mem;
    int64_t imm = 0;
    bool saw_imm = false, saw_mem = false;

    for (const std::string &operand : operand_strs) {
        fatal_if(operand.empty(), "empty operand in '{}'", line);
        if (operand[0] == '$') {
            imm = std::strtoll(operand.c_str() + 1, nullptr, 10);
            saw_imm = true;
        } else if (operand[0] == '%') {
            RegId reg = regFromName(operand.substr(1));
            fatal_if(reg == invalidReg,
                     "unknown register '{}' in '{}'", operand, line);
            slots.push_back(reg);
        } else {
            char *end = nullptr;
            long disp = std::strtol(operand.c_str(), &end, 10);
            fatal_if(!end || *end != '(',
                     "malformed memory operand '{}' in '{}'", operand,
                     line);
            std::string base_str(end + 1);
            fatal_if(base_str.empty() || base_str[0] != '%' ||
                         base_str.back() != ')',
                     "malformed memory operand '{}' in '{}'", operand,
                     line);
            base_str = base_str.substr(1, base_str.size() - 2);
            RegId base = regFromName(base_str);
            fatal_if(base == invalidReg,
                     "unknown base register in '{}'", operand);
            mem.base = base;
            mem.disp = static_cast<int32_t>(disp);
            saw_mem = true;
        }
    }

    fatal_if(slots.size() != op.numRegOps(),
             "opcode {} takes {} register operands, got {} in '{}'",
             op.name, op.numRegOps(), slots.size(), line);
    fatal_if(op.hasImm && !saw_imm,
             "opcode {} requires an immediate", op.name);
    fatal_if(op.mem != MemMode::None && !op.stackOp && !saw_mem,
             "opcode {} requires a memory operand", op.name);

    return makeInstruction(opcode, slots, mem, imm);
}

isa::BasicBlock
parseBlock(const std::string &text)
{
    isa::BasicBlock block;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
        size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        block.insts.push_back(parseInstruction(line));
    }
    return block;
}

} // namespace legacy

/** Canonical text of @p parse(text), or nullopt if it rejects. */
template <typename Parser>
std::optional<std::string>
canonOrReject(Parser &&parse, const std::string &text)
{
    try {
        return isa::toString(parse(text));
    } catch (const std::runtime_error &) {
        return std::nullopt;
    }
}

/** Both parsers on @p text: same accept/reject, same canonical. */
void
expectParsersAgree(const std::string &text)
{
    const auto legacy_out = canonOrReject(
        [](const std::string &t) { return legacy::parseBlock(t); },
        text);
    const auto fresh_out = canonOrReject(
        [](const std::string &t) { return isa::parseBlock(t); },
        text);
    ASSERT_EQ(legacy_out.has_value(), fresh_out.has_value())
        << "parsers disagree on accepting:\n"
        << text;
    if (legacy_out) {
        EXPECT_EQ(*legacy_out, *fresh_out)
            << "canonical output diverged for:\n"
            << text;
    }
}

/**
 * A near-miss respelling of canonical @p text: random whitespace
 * before the mnemonic and anywhere in the operand region (both
 * parsers elide it), plus occasional comment lines. Deterministic
 * per (text, rng state).
 */
std::string
respell(const std::string &text, std::mt19937_64 &rng)
{
    std::string out;
    auto pad = [&] {
        switch (rng() % 4) {
        case 0:
            out += ' ';
            break;
        case 1:
            out += "  ";
            break;
        case 2:
            out += '\t';
            break;
        default:
            break;
        }
    };
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (rng() % 8 == 0)
            out += "# interleaved comment\n";
        pad();
        const size_t sp = line.find(' ');
        if (sp == std::string::npos) {
            out += line;
        } else {
            out += line.substr(0, sp);
            for (char c : line.substr(sp)) {
                out += c;
                if (rng() % 3 == 0)
                    pad();
            }
        }
        pad();
        out += '\n';
    }
    return out;
}

/** Canonical corpus texts, shared across the suites below. */
const std::vector<std::string> &
corpusTexts()
{
    static const std::vector<std::string> texts = [] {
        const bhive::Corpus corpus =
            bhive::Corpus::generate(200, 0xf407e5d);
        std::vector<std::string> out;
        out.reserve(corpus.size());
        for (const auto &info : corpus.blocks())
            out.push_back(isa::toString(info.block));
        return out;
    }();
    return texts;
}

// ------------------------------------------------------------------
// Tokenizer / parser

TEST(FrontendParser, MatchesLegacyParserByteForByte)
{
    std::mt19937_64 rng(0x70ac3);
    for (const std::string &text : corpusTexts()) {
        // The canonical spelling itself, and three near-miss
        // respellings of it, must all round-trip to the same bytes
        // through both parsers.
        expectParsersAgree(text);
        for (int variant = 0; variant < 3; ++variant) {
            const std::string noisy = respell(text, rng);
            expectParsersAgree(noisy);
            const isa::BasicBlock block = isa::parseBlock(noisy);
            EXPECT_EQ(text, isa::toString(block))
                << "respelling changed the canonical form:\n"
                << noisy;
        }
    }
}

TEST(FrontendParser, QuirkSpellingsMatchLegacy)
{
    // The legacy parser's quirks, locked in one by one: whitespace
    // elided *inside* operands, trailing commas tolerated, strtoll
    // immediate semantics (clamping, trailing garbage, no digits),
    // zero-displacement memory shorthand.
    const std::vector<std::string> quirks = {
        "ADD32rr %e bx, %ecx\n",
        "ADD32rr %ebx , %ecx ,\n",
        "ADD64ri $ 42, %rbx\n",
        "ADD64ri $42garbage, %rbx\n",
        "ADD64ri $, %rbx\n",
        "ADD64ri $9223372036854775808, %rbx\n",
        "ADD64ri $-9223372036854775808, %rbx\n",
        "ADD64ri $-9223372036854775809, %rbx\n",
        "ADD64ri $-123456789012345678901234567890, %rbx\n",
        "MOV64rm (%rsi), %rdi\n",
        "MOV64rm - 8 ( % r si ), %rdi\n",
        "MOV64rm 8(%rsi), %rdi\r\n",
        "\t ADD32rr\t%ebx,%ecx\n",
        "# only a comment\nNOP\n\n",
        "NOP",
    };
    for (const std::string &text : quirks)
        expectParsersAgree(text);

    // Negative immediates saturate exactly at INT64_MIN, in range and
    // past it.
    const std::vector<std::string> saturating = {
        "ADD64ri $-9223372036854775808, %rbx\n",
        "ADD64ri $-123456789012345678901234567890, %rbx\n",
    };
    for (const std::string &text : saturating) {
        EXPECT_EQ(legacy::parseBlock(text).insts.at(0).imm, INT64_MIN)
            << text;
        EXPECT_EQ(isa::parseBlock(text).insts.at(0).imm, INT64_MIN) << text;
    }
}

TEST(FrontendParser, MalformedInputsRejectCleanly)
{
    // Truncated operands, stray bytes, huge tokens, structural
    // nonsense: every entry must throw std::runtime_error from both
    // parsers (never crash — CI runs this suite under ASan/UBSan),
    // and the two must agree.
    std::vector<std::string> bad = {
        "BOGUSOP %rax\n",
        "MOV64rm 8(%rsi\n",
        "MOV64rm 8(, %rdi\n",
        "MOV64rm 8%rsi), %rdi\n",
        "MOV64rm 8(%rsi)x, %rdi\n",
        "MOV64rm 8(%bogus), %rdi\n",
        "MOV64rm 8(%rsi), %rdi, %rax\n",
        "MOV64rm %rdi\n",
        "ADD32rr %ebx\n",
        "ADD32rr %ebx, %ecx, %edx\n",
        "ADD32rr %ebx, , %ecx\n",
        "ADD32rr ,\n",
        "ADD64ri %rbx\n",
        "ADD32rr %ebx, %bogus\n",
        "ADD32rr %ebx, $5\n",
        "NOP %rax\n",
        "$42\n",
        "%rax\n",
        "8(%rax)\n",
        ")(\n",
        "\x01\x02\x7f\n",
        "ADD32rr \x01, \x02\n",
    };
    bad.push_back(std::string(1 << 16, 'a') + "\n");
    bad.push_back("NOP, " + std::string(1 << 16, '%') + "\n");
    for (const std::string &text : bad) {
        EXPECT_THROW((void)isa::parseBlock(text), std::runtime_error)
            << "accepted malformed input:\n"
            << text.substr(0, 80);
        expectParsersAgree(text);
    }
}

TEST(FrontendParser, LexBlockSlicesAreZeroCopy)
{
    const std::string text = "  ADD32rr %e bx , %ecx\n"
                             "# comment\n"
                             "\n"
                             "MOV64rm 8(%rsi), %rdi\n";
    std::vector<isa::Lexeme> lexemes;
    const size_t inst_lines = isa::lexBlock(text, lexemes);
    EXPECT_EQ(2u, inst_lines);
    ASSERT_EQ(6u, lexemes.size());

    // Every lexeme is a trimmed slice *into the input buffer* — the
    // zero-copy contract.
    for (const isa::Lexeme &lex : lexemes) {
        EXPECT_GE(lex.text.data(), text.data());
        EXPECT_LE(lex.text.data() + lex.text.size(),
                  text.data() + text.size());
        if (!lex.text.empty()) {
            EXPECT_FALSE(std::isspace(
                static_cast<unsigned char>(lex.text.front())));
            EXPECT_FALSE(std::isspace(
                static_cast<unsigned char>(lex.text.back())));
        }
    }
    EXPECT_EQ("ADD32rr", lexemes[0].text);
    EXPECT_TRUE(lexemes[0].mnemonic);
    EXPECT_EQ(0u, lexemes[0].line);
    EXPECT_EQ("%e bx", lexemes[1].text);
    EXPECT_TRUE(lexemes[1].spaced);
    EXPECT_EQ("%ecx", lexemes[2].text);
    EXPECT_FALSE(lexemes[2].spaced);
    EXPECT_EQ("MOV64rm", lexemes[3].text);
    EXPECT_EQ(3u, lexemes[3].line);
    EXPECT_EQ("8(%rsi)", lexemes[4].text);
    EXPECT_EQ("%rdi", lexemes[5].text);
    // Lexing never throws, even on garbage.
    EXPECT_EQ(1u, isa::lexBlock("BOGUS ,,$(\x01\n", lexemes));
}

// ------------------------------------------------------------------
// Interning

TEST(FrontendIntern, CanonicalFormsGetOneId)
{
    isa::Interner interner;
    const isa::BasicBlock a =
        isa::parseBlock("ADD32rr %ebx, %ecx\nNOP\n");
    const isa::BasicBlock b =
        isa::parseBlock("  ADD32rr\t%e bx ,%ecx \n # hi\n NOP \n");
    const isa::BasicBlock c = isa::parseBlock("NOP\n");

    bool known = false;
    const isa::BlockId id_a = interner.internBlock(a, known);
    ASSERT_NE(isa::invalidBlockId, id_a);
    EXPECT_FALSE(known);
    // The near-miss spelling resolves to the same id, and reports
    // the block as already known.
    EXPECT_EQ(id_a, interner.internBlock(b, known));
    EXPECT_TRUE(known);
    const isa::BlockId id_c = interner.internBlock(c, known);
    EXPECT_NE(id_a, id_c);
    EXPECT_FALSE(known);

    EXPECT_EQ(2u, interner.numBlocks());
    EXPECT_EQ(2u, interner.numInsts()); // ADD32rr.., NOP shared
    EXPECT_GT(interner.bytes(), 0u);

    // The per-instruction ids and token lanes reproduce the
    // canonical encoding exactly.
    const std::vector<isa::InstId> &ids = interner.instIds(id_a);
    ASSERT_EQ(a.size(), ids.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_NE(isa::invalidInstId, ids[i]);
        EXPECT_EQ(isa::theVocab().encode(a.insts[i]),
                  interner.tokens(ids[i]));
    }
    EXPECT_EQ(ids[1], interner.instIds(id_c)[0]); // shared NOP
}

TEST(FrontendIntern, DistinctCanonicalFormsGetDistinctIds)
{
    isa::Interner interner;
    std::vector<isa::BlockId> ids;
    for (const std::string &text : corpusTexts()) {
        const isa::BlockId id =
            interner.internBlock(isa::parseBlock(text));
        ASSERT_NE(isa::invalidBlockId, id);
        ids.push_back(id);
    }
    // The corpus is deduplicated, so every block is a distinct
    // canonical form and must get a distinct id.
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids.end(), std::adjacent_find(ids.begin(), ids.end()));
    EXPECT_EQ(corpusTexts().size(), interner.numBlocks());
}

TEST(FrontendIntern, FullTablesFallBackToInvalidIds)
{
    isa::Interner tiny(2, 1);
    const isa::Instruction add =
        isa::parseInstruction("ADD32rr %ebx, %ecx");
    const isa::Instruction nop = isa::parseInstruction("NOP");
    const isa::Instruction mul =
        isa::parseInstruction("IMUL64rr %rbx, %rcx");

    const isa::InstId id_add = tiny.internInst(add);
    const isa::InstId id_nop = tiny.internInst(nop);
    ASSERT_NE(isa::invalidInstId, id_add);
    ASSERT_NE(isa::invalidInstId, id_nop);
    // Third distinct instruction: table full, sentinel back.
    EXPECT_EQ(isa::invalidInstId, tiny.internInst(mul));
    // Lookups of already-interned forms still succeed at capacity.
    EXPECT_EQ(id_add, tiny.internInst(add));

    isa::BasicBlock one;
    one.insts.push_back(add);
    bool known = true;
    const isa::BlockId block_one = tiny.internBlock(one, known);
    ASSERT_NE(isa::invalidBlockId, block_one);
    EXPECT_FALSE(known);
    EXPECT_EQ(block_one, tiny.internBlock(one, known));
    EXPECT_TRUE(known);

    // Block table full: a new shape gets the sentinel...
    isa::BasicBlock two;
    two.insts.push_back(nop);
    EXPECT_EQ(isa::invalidBlockId, tiny.internBlock(two, known));
    // ...and a block containing an uninternable instruction can
    // never be interned.
    isa::BasicBlock three;
    three.insts.push_back(mul);
    EXPECT_EQ(isa::invalidBlockId, tiny.internBlock(three, known));
    EXPECT_EQ(1u, tiny.numBlocks());
    EXPECT_EQ(2u, tiny.numInsts());
}

TEST(FrontendIntern, ConcurrentInterningConverges)
{
    // The TSan target: many threads intern overlapping canonical
    // forms concurrently; every thread must see the same id per
    // form, and the tables must end up with exactly one entry per
    // form. (CI runs this suite under TSan; see .github/workflows.)
    std::vector<isa::BasicBlock> blocks;
    for (const std::string &text : corpusTexts())
        blocks.push_back(isa::parseBlock(text));

    isa::Interner interner;
    constexpr int kThreads = 4;
    std::vector<std::vector<isa::BlockId>> seen(
        kThreads, std::vector<isa::BlockId>(blocks.size()));
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Stagger the iteration order so threads collide on
            // different blocks at different times.
            for (size_t i = 0; i < blocks.size(); ++i) {
                const size_t j = (i * 7 + size_t(t) * 13) %
                                 blocks.size();
                seen[size_t(t)][j] =
                    interner.internBlock(blocks[j]);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (size_t i = 0; i < blocks.size(); ++i) {
        ASSERT_NE(isa::invalidBlockId, seen[0][i]);
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(seen[0][i], seen[size_t(t)][i])
                << "threads disagree on block " << i;
    }
    EXPECT_EQ(blocks.size(), interner.numBlocks());
    // And the interned token lanes survived the race intact.
    for (size_t i = 0; i < blocks.size(); ++i) {
        const auto &ids = interner.instIds(seen[0][i]);
        ASSERT_EQ(blocks[i].size(), ids.size());
        for (size_t k = 0; k < ids.size(); ++k)
            EXPECT_EQ(isa::theVocab().encode(blocks[i].insts[k]),
                      interner.tokens(ids[k]));
    }
}

// ------------------------------------------------------------------
// Runtime matvec dispatch

TEST(FrontendDispatch, SelectionMatchesEnvironmentAndCpu)
{
    const char *force = std::getenv("DIFFTUNE_FORCE_SCALAR");
    const bool forced =
        force && *force && std::strcmp(force, "0") != 0;
    const nn::MatvecKernels &selected = nn::matvecKernels();
    ASSERT_NE(nullptr, selected.panelF64);
    ASSERT_NE(nullptr, selected.rankKF64);
    ASSERT_NE(nullptr, selected.transposedF64);
    if (forced)
        EXPECT_STREQ("scalar (forced)", nn::matvecPathName());
    else if (nn::matvecAvx2Kernels() && nn::cpuSupportsAvx2())
        EXPECT_STREQ("avx2", nn::matvecPathName());
    else
        EXPECT_STREQ("scalar", nn::matvecPathName());
}

/** Bitwise equality of two equally sized arrays. */
template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(FrontendDispatch, Avx2MatvecBitIdenticalToScalar)
{
    const nn::MatvecKernels *avx2 = nn::matvecAvx2Kernels();
    if (!avx2 || !nn::cpuSupportsAvx2())
        GTEST_SKIP() << "AVX2 kernels unavailable on this host";
    const nn::MatvecKernels &scalar = nn::matvecScalarKernels();

    std::mt19937_64 rng(0xb17e5);
    std::normal_distribution<double> dist(0.0, 3.0);
    // Cover every row/col remainder class of every kernel (forward:
    // 16-row groups of 4-row panel blocks plus tail rows; W^T dz:
    // 16- and 4-column tiles plus tail columns; rank-K: 4x8 tiles,
    // 4-column tiles, tail columns and tail rows), plus larger
    // shapes and the block LSTM's input width, 81.
    const int rows_set[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 23, 40};
    const int cols_set[] = {1,  2,  3,  4,  5,  7,  8,
                            9,  17, 31, 33, 50, 64, 81};
    for (int rows : rows_set) {
        for (int cols : cols_set) {
            std::vector<double> w(size_t(rows) * size_t(cols));
            std::vector<double> x(size_t(cols), 0.0);
            for (double &v : w)
                v = dist(rng);
            for (double &v : x)
                v = dist(rng);
            const std::string shape =
                std::to_string(rows) + "x" + std::to_string(cols);

            // Forward f64: pack, then both paths' panel kernels
            // against the reference k-ascending row sums on the
            // row-major matrix.
            std::vector<double> panel(w.size());
            nn::packPanel(w.data(), panel.data(), rows, cols);
            std::vector<double> ref(size_t(rows), 0.0);
            for (int r = 0; r < rows; ++r) {
                double sum = 0;
                for (int k = 0; k < cols; ++k)
                    sum += w[size_t(r) * cols + k] * x[size_t(k)];
                ref[size_t(r)] = sum;
            }
            std::vector<double> got(size_t(rows), 0.0);
            scalar.panelF64(panel.data(), x.data(), got.data(), rows,
                            cols);
            EXPECT_TRUE(sameBits(ref, got)) << "scalar panel " << shape;
            std::fill(got.begin(), got.end(), 0.0);
            avx2->panelF64(panel.data(), x.data(), got.data(), rows,
                           cols);
            EXPECT_TRUE(sameBits(ref, got)) << "avx2 panel " << shape;

            // Backward: dz holds exact zeros and -0.0 (both rows are
            // skipped), dx some -0.0 entries (kept -0.0 only while
            // every row touching them is skipped).
            std::vector<double> dz(size_t(rows), 0.0);
            for (int r = 0; r < rows; ++r)
                dz[size_t(r)] =
                    r % 3 == 1 ? 0.0 : r % 5 == 2 ? -0.0 : dist(rng);
            std::vector<double> dw(w.size());
            std::vector<double> dx(size_t(cols), 0.0);
            for (double &v : dw)
                v = dist(rng);
            for (int k = 0; k < cols; ++k)
                dx[size_t(k)] = k % 4 == 3 ? -0.0 : dist(rng);

            // Rank-K with K = 1 is the old in-place rank-1 update on a
            // buffer without -0.0 (x here holds -0.0).
            std::vector<double> x0 = x;
            for (int k = 3; k < cols; k += 4)
                x0[size_t(k)] = -0.0;
            std::vector<double> dw_ref = dw;
            for (int r = 0; r < rows; ++r) {
                const double dzr = dz[size_t(r)];
                if (dzr == 0.0)
                    continue;
                for (int k = 0; k < cols; ++k)
                    dw_ref[size_t(r) * cols + k] += dzr * x0[size_t(k)];
            }
            const double *dz1 = dz.data();
            const double *x1 = x0.data();
            std::vector<double> dw_got = dw;
            scalar.rankKF64(dw_got.data(), &dz1, &x1, 1, rows, cols);
            EXPECT_TRUE(sameBits(dw_ref, dw_got))
                << "scalar rank-1 " << shape;
            dw_got = dw;
            avx2->rankKF64(dw_got.data(), &dz1, &x1, 1, rows, cols);
            EXPECT_TRUE(sameBits(dw_ref, dw_got)) << "avx2 rank-1 " << shape;

            // Rank-K: the reference is K in-place rank-1 updates into a
            // zeroed buffer, then one add into the sink. Row 6 is zero
            // in every term, other rows in some; the sink holds -0.0.
            for (int terms : {1, 2, 5, 32, 350}) {
                const size_t count = static_cast<size_t>(terms);
                std::vector<std::vector<double>> dzs(count), xs(count);
                std::vector<const double *> dzp, xp;
                for (int t = 0; t < terms; ++t) {
                    std::vector<double> &dzt = dzs[size_t(t)];
                    std::vector<double> &xt = xs[size_t(t)];
                    for (int r = 0; r < rows; ++r)
                        dzt.push_back(r % 7 == 6             ? 0.0
                                      : (r + t) % 3 == 1     ? 0.0
                                      : (r + 2 * t) % 5 == 2 ? -0.0
                                                             : dist(rng));
                    for (int k = 0; k < cols; ++k)
                        xt.push_back((k + t) % 4 == 3 ? -0.0
                                                      : dist(rng));
                    dzp.push_back(dzt.data());
                    xp.push_back(xt.data());
                }
                std::vector<double> acc(w.size(), 0.0);
                for (int t = 0; t < terms; ++t)
                    for (int r = 0; r < rows; ++r) {
                        const double dzr = dzs[size_t(t)][size_t(r)];
                        if (dzr == 0.0)
                            continue;
                        for (int k = 0; k < cols; ++k)
                            acc[size_t(r) * cols + k] +=
                                dzr * xs[size_t(t)][size_t(k)];
                    }
                std::vector<double> sink(w.size());
                for (size_t e = 0; e < sink.size(); ++e)
                    sink[e] = e % 9 == 4 ? -0.0 : dist(rng);
                std::vector<double> ref = sink;
                for (size_t e = 0; e < ref.size(); ++e)
                    ref[e] += acc[e];
                const std::string what =
                    "rank-" + std::to_string(terms) + " " + shape;
                std::vector<double> out = sink;
                scalar.rankKF64(out.data(), dzp.data(), xp.data(), terms,
                                rows, cols);
                EXPECT_TRUE(sameBits(ref, out)) << "scalar " << what;
                out = sink;
                avx2->rankKF64(out.data(), dzp.data(), xp.data(), terms,
                               rows, cols);
                EXPECT_TRUE(sameBits(ref, out)) << "avx2 " << what;
            }

            std::vector<double> dx_ref = dx, dx_got = dx;
            scalar.transposedF64(w.data(), dz.data(), dx_ref.data(),
                                 rows, cols);
            avx2->transposedF64(w.data(), dz.data(), dx_got.data(),
                                rows, cols);
            EXPECT_TRUE(sameBits(dx_ref, dx_got))
                << "W^T dz " << shape;
        }
    }
}

// ------------------------------------------------------------------
// Serving front end

surrogate::ModelConfig
tinyConfig()
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.paramDim = 0;
    cfg.seed = 11;
    return cfg;
}

io::Checkpoint
ithemalCheckpoint()
{
    io::Checkpoint ckpt;
    ckpt.model = std::make_unique<surrogate::Model>(
        tinyConfig(), isa::theVocab().size());
    ckpt.vocabSize = isa::theVocab().size();
    return ckpt;
}

TEST(FrontendServe, InternAndEncodeCountersTrack)
{
    // Single worker, one stripe, tiny prediction/text LRUs: an
    // evicted block and a respelled known block must both resolve
    // through the interner (intern hits) — the first into a fresh
    // forward pass, the second into the prediction LRU.
    serve::AsyncConfig cfg;
    cfg.workers = 1;
    cfg.cacheStripes = 1;
    cfg.cacheCapacity = 4;
    serve::AsyncEngine engine(ithemalCheckpoint(), cfg);
    const serve::ServeStats &stats = engine.stats();

    std::vector<std::string> texts(corpusTexts().begin(),
                                   corpusTexts().begin() + 8);
    ASSERT_EQ(8u, texts.size());
    std::vector<double> first;
    for (const std::string &text : texts)
        first.push_back(engine.predict(text));
    EXPECT_EQ(8u, stats.requests.load());
    EXPECT_EQ(8u, stats.misses.load());
    EXPECT_EQ(8u, stats.forwards.load());
    EXPECT_EQ(0u, stats.internHits.load());
    EXPECT_EQ(8u, engine.interner().numBlocks());

    // texts[0] fell out of every capacity-4 LRU, but its canonical
    // form is interned: the re-request re-forwards under its
    // existing id.
    EXPECT_EQ(first[0], engine.predict(texts[0]));
    EXPECT_EQ(1u, stats.internHits.load());
    EXPECT_EQ(9u, stats.forwards.load());

    // texts[7] is still in the raw-text front cache: no parse, no
    // intern involved.
    EXPECT_EQ(first[7], engine.predict(texts[7]));
    EXPECT_EQ(1u, stats.textHits.load());
    EXPECT_EQ(1u, stats.internHits.load());

    // A respelling of texts[6] misses the front cache but resolves
    // through the interner straight to the cached prediction — no
    // forward pass.
    std::mt19937_64 rng(0x5e11);
    EXPECT_EQ(first[6], engine.predict(respell(texts[6], rng)));
    EXPECT_EQ(2u, stats.internHits.load());
    EXPECT_EQ(9u, stats.forwards.load());
    EXPECT_EQ(8u, engine.interner().numBlocks()); // nothing new

    // The PR-5 stats reconciliation still holds with the new
    // counters in play.
    EXPECT_EQ(stats.requests.load(),
              stats.textHits.load() + stats.textMisses.load());
    EXPECT_EQ(stats.requests.load(),
              stats.hits.load() + stats.misses.load());

    // And every cached/interned answer is bit-identical to the
    // uncached sequential reference.
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_EQ(engine.predictUncached(texts[i]), first[i]) << i;
}

TEST(FrontendServe, FullInternerStillServesCorrectly)
{
    // Interner exhaustion may only cost speed, never change an
    // answer or break the stats reconciliation: past the intern
    // bound, blocks are served without canonical-level caching.
    serve::AsyncConfig cfg;
    cfg.workers = 1;
    cfg.cacheStripes = 1;
    serve::AsyncConfig tiny_cfg = cfg;
    tiny_cfg.internCapacity = 4;
    serve::AsyncEngine roomy(ithemalCheckpoint(), cfg);
    serve::AsyncEngine cramped(ithemalCheckpoint(), tiny_cfg);
    // 16 distinct single-instruction canonical forms (so the first
    // four fit the cramped engine's instruction table too).
    const char *regs[] = {"%rax", "%rbx", "%rcx", "%rdx"};
    std::vector<std::string> texts;
    for (int k = 0; k < 16; ++k)
        texts.push_back("ADD64ri $" + std::to_string(k) + ", " +
                        regs[k % 4] + "\n");
    for (const std::string &text : texts)
        EXPECT_EQ(roomy.predict(text), cramped.predict(text));
    const serve::ServeStats &stats = cramped.stats();
    EXPECT_EQ(4u, cramped.interner().numBlocks());
    EXPECT_EQ(16u, stats.forwards.load());

    // An uninterned block re-arriving under a new spelling cannot
    // probe the canonical caches — it forwards again, yet still
    // answers bit-identically.
    std::mt19937_64 rng(0x1d1e);
    EXPECT_EQ(cramped.predictUncached(texts[10]),
              cramped.predict(respell(texts[10], rng)));
    EXPECT_EQ(17u, stats.forwards.load());
    // The same respelling of an *interned* block is a cache hit.
    EXPECT_EQ(cramped.predictUncached(texts[2]),
              cramped.predict(respell(texts[2], rng)));
    EXPECT_EQ(17u, stats.forwards.load());

    EXPECT_EQ(stats.requests.load(),
              stats.textHits.load() + stats.textMisses.load());
    EXPECT_EQ(stats.requests.load(),
              stats.hits.load() + stats.misses.load());
}

} // namespace
} // namespace difftune
