/**
 * @file
 * Append-only, thread-safe interning of canonical instructions and
 * blocks.
 *
 * The serving front end sees heavy near-miss traffic: the same
 * canonical block arriving under different raw spellings (extra
 * whitespace, reordered blanks, trailing comments). Pre-intern, every
 * such request re-canonicalized to a std::string key (isa::toString)
 * just to probe a cache. The Interner maps a parsed Instruction /
 * BasicBlock to a small dense id instead:
 *
 *   raw text --parse--> BasicBlock --intern--> BlockId
 *
 * Two inputs get the same BlockId iff they print to the same
 * canonical text (toString): the instruction key is normalized
 * exactly like makeInstruction + toString normalize an instruction
 * (an immediate on an opcode that takes none is dropped, stack-op
 * memory refs are collapsed), so a BlockId is 1:1 with a canonical
 * form. Interned ids then key the serving prediction cache — a
 * uint32 compare instead of a string compare on the hot path.
 *
 * # Storage, lifetime and thread safety
 *
 * Both tables are append-only CAS hash buckets, the same publication
 * scheme as nn::WeightSnapshot's projection cache: insert-if-absent
 * retries re-walk the newly-prepended prefix for a duplicate before
 * re-CASing, and the loser of a genuine race discards its node — so
 * exactly one id ever exists per canonical form. All operations are
 * thread-safe and lock-free; entries are never evicted or mutated,
 * so a returned id or reference stays valid for the Interner's
 * lifetime. Ids are private to one Interner — never mix ids from
 * two instances.
 *
 * # Capacity
 *
 * Bounded: at capacity the tables stop interning (no eviction) and
 * return invalidInstId / invalidBlockId, and callers fall back to
 * their uninterned path (the serving engine serves such blocks
 * without canonical-level caching — results are unchanged, only
 * speed). Each instruction's token sequence is encoded once at
 * intern time, so an interned block also carries its model-ready
 * token lanes.
 */

#ifndef DIFFTUNE_ISA_INTERN_HH
#define DIFFTUNE_ISA_INTERN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/instruction.hh"
#include "isa/tokens.hh"

namespace difftune::isa
{

/** Dense id of an interned canonical instruction. */
using InstId = uint32_t;
/** Dense id of an interned canonical block shape. */
using BlockId = uint32_t;

/** Sentinel: instruction could not be interned (table full). */
constexpr InstId invalidInstId = 0xffffffffu;
/** Sentinel: block could not be interned (table full). */
constexpr BlockId invalidBlockId = 0xffffffffu;

/** Append-only id tables for canonical instructions and blocks. */
class Interner
{
  public:
    /**
     * @param max_insts instruction-table capacity (stop-interning
     *        bound)
     * @param max_blocks block-table capacity
     */
    explicit Interner(size_t max_insts = size_t(1) << 17,
                      size_t max_blocks = size_t(1) << 16);
    ~Interner();

    Interner(const Interner &) = delete;
    Interner &operator=(const Interner &) = delete;

    /**
     * Id of @p inst's canonical form, interning it if new. Returns
     * invalidInstId when the table is full. Thread-safe.
     */
    InstId internInst(const Instruction &inst);

    /**
     * Id of @p block's canonical shape (interning every instruction
     * too), or invalidBlockId when a table is full. Thread-safe.
     */
    BlockId internBlock(const BasicBlock &block);

    /**
     * As above; @p known is set to whether the block was already
     * interned — the serving engine's intern-hit counter (a loser of
     * a concurrent first-intern race counts as known).
     */
    BlockId internBlock(const BasicBlock &block, bool &known);

    /**
     * The token sequence of instruction @p id, encoded once at
     * intern time (theVocab().encode). Valid for the Interner's
     * lifetime.
     */
    const std::vector<TokenId> &tokens(InstId id) const;

    /** The interned instructions of block @p id, in order. */
    const std::vector<InstId> &instIds(BlockId id) const;

    /** Interned instruction count (published entries). */
    size_t numInsts() const;
    /** Interned block count (published entries). */
    size_t numBlocks() const;
    /** Approximate heap footprint of both tables, in bytes. */
    size_t bytes() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace difftune::isa

#endif // DIFFTUNE_ISA_INTERN_HH
