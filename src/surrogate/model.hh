/**
 * @file
 * The Ithemal-style basic-block model and its DiffTune-surrogate
 * variant (Figure 3 of the paper).
 *
 * Architecture: a token embedding table maps each instruction's
 * canonicalized tokens to vectors; a stacked token-level LSTM folds
 * each instruction's tokens into an instruction vector; a stacked
 * block-level LSTM folds the instruction vectors into a block vector;
 * a final linear layer produces the timing prediction.
 *
 * With paramDim > 0 the model is the DiffTune surrogate: a
 * per-instruction parameter vector (the instruction's simulator
 * parameters concatenated with the global parameters) is appended to
 * each instruction vector before the block LSTM — the paper's "‖"
 * concatenation. With paramDim == 0 it is the plain Ithemal baseline.
 */

#ifndef DIFFTUNE_SURROGATE_MODEL_HH
#define DIFFTUNE_SURROGATE_MODEL_HH

#include <memory>
#include <mutex>
#include <unordered_map>

#include "isa/tokens.hh"
#include "nn/modules.hh"

namespace difftune::surrogate
{

/** Token sequences of one block, precomputed once per block. */
using EncodedBlock = std::vector<std::vector<isa::TokenId>>;

/**
 * Memo table from an instruction's token sequence to its token-level
 * LSTM hidden state, for batched inference over *frozen* weights
 * (Model::predictBatch). With the weights fixed, that hidden state
 * is a pure function of the token sequence, and the tokenizer folds
 * immediates and memory operands into CONST / MEM (isa/tokens.hh):
 * `ADD64ri $1, %rax` and `ADD64ri $2, %rax` share one entry.
 * Instructions shared across blocks — pervasive in real block
 * corpora — therefore skip the token LSTM on every reuse. Reuse is
 * bit-exact: the stored vector is the exact value an executor
 * produced.
 *
 * Thread-safe: executors bound to the same frozen weights may share
 * one memo (a serving engine keeps exactly one). predictBatch takes
 * its mutex once per batch to probe every instruction and once to
 * publish the new lanes; of two identical values published
 * concurrently, the first wins.
 *
 * Bounded: at @p capacity entries the memo stops inserting, and it
 * never evicts, so a hit's value stays valid outside the lock for
 * the memo's lifetime (unordered_map references survive rehashing).
 */
class InstHiddenCache
{
  public:
    explicit InstHiddenCache(size_t capacity = size_t(1) << 16)
        : capacity_(capacity)
    {
    }

    size_t
    size() const
    {
        std::lock_guard lock(mutex_);
        return map_.size();
    }

  private:
    friend class Model;

    struct TokenSeqHash
    {
        size_t
        operator()(const std::vector<isa::TokenId> &tokens) const
        {
            // FNV-1a over the token ids.
            uint64_t hash = 0xcbf29ce484222325ULL;
            for (isa::TokenId token : tokens) {
                hash ^= uint64_t(uint32_t(token));
                hash *= 0x100000001b3ULL;
            }
            return size_t(hash);
        }
    };

    const size_t capacity_;
    mutable std::mutex mutex_;
    std::unordered_map<std::vector<isa::TokenId>, std::vector<double>,
                       TokenSeqHash>
        map_;
};

/** What one Model::predictBatch call did at the token level. */
struct TokenLevelCounts
{
    uint64_t instHits = 0;   ///< instructions served from the memo
    uint64_t tokenLanes = 0; ///< token-LSTM lanes run
};

/** Model hyperparameters. */
struct ModelConfig
{
    int embedDim = 32;   ///< token embedding width
    int hidden = 40;     ///< LSTM hidden width (both levels)
    int tokenLayers = 2; ///< stacked LSTMs at the token level
    int blockLayers = 2; ///< stacked LSTMs at the block level
    int paramDim = 0;    ///< per-instruction parameter input width
    uint64_t seed = 0x5eedface;
};

/** The Ithemal / DiffTune-surrogate model. */
class Model
{
  public:
    Model(const ModelConfig &config, size_t vocab_size);

    /**
     * Forward pass for one block.
     *
     * @param ctx graph/params/sink context (sink null = frozen)
     * @param block precomputed token sequences
     * @param inst_params one (paramDim x 1) Var per instruction; must
     *        be empty iff the config's paramDim is 0
     * @return a scalar Var: the timing prediction
     */
    nn::Var forward(nn::Ctx &ctx, const EncodedBlock &block,
                    const std::vector<nn::Var> &inst_params) const;

    /** Inference without parameter inputs (Ithemal mode). */
    double predict(const EncodedBlock &block) const;

    /**
     * Batched forward for many blocks on @p bf (see nn/batched.hh):
     * the token-level LSTM runs over all instructions of all blocks
     * in lockstep, then the block-level LSTM over all blocks, with
     * one set of weight reads per step. Writes the raw head outputs
     * (the same pre-exp value forward() produces) to @p out, aligned
     * with @p blocks.
     *
     * The results are bit-identical to running forward() per
     * block.
     *
     * Instructions with identical token sequences are deduplicated
     * within the batch (one token-level lane serves every
     * occurrence), and, when @p inst_cache is given, across batches
     * and executors too — valid whenever the weights are frozen
     * while the memo lives, as in serving.
     *
     * @param inst_params per-block, per-instruction parameter-input
     *        columns (each paramDim x 1); must be empty iff the
     *        config's paramDim is 0
     * @param inst_cache optional instruction-hidden memo, shareable
     *        across threads (see InstHiddenCache)
     * @return the memo hits and token lanes of this call
     */
    TokenLevelCounts predictBatch(
        nn::BatchedForward &bf,
        const std::vector<const EncodedBlock *> &blocks,
        const std::vector<std::vector<const nn::Tensor *>>
            &inst_params,
        std::vector<double> &out,
        InstHiddenCache *inst_cache = nullptr) const;

    const ModelConfig &config() const { return config_; }
    nn::ParamSet &params() { return params_; }
    const nn::ParamSet &params() const { return params_; }

  private:
    ModelConfig config_;
    nn::ParamSet params_;
    std::unique_ptr<nn::Embedding> embed_;
    std::unique_ptr<nn::LstmStack> tokenLstm_;
    std::unique_ptr<nn::LstmStack> blockLstm_;
    std::unique_ptr<nn::Linear> head_;
};

/** Encode a block with the shared vocabulary. */
EncodedBlock encodeBlock(const isa::BasicBlock &block);

/**
 * Freeze @p model's weights into a shareable nn::WeightSnapshot
 * that keeps the model alive (the snapshot borrows the ParamSet
 * storage in place and holds the model as its owner). Every
 * nn::BatchedForward bound to the snapshot — across any number of
 * serving shards or engines — shares one copy of the packed panels
 * and input-projection tables. The model must not be trained
 * further while the snapshot exists.
 */
std::shared_ptr<nn::WeightSnapshot>
makeWeightSnapshot(std::shared_ptr<const Model> model);

} // namespace difftune::surrogate

#endif // DIFFTUNE_SURROGATE_MODEL_HH
