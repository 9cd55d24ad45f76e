/**
 * @file
 * Model implementation.
 */

#include "surrogate/model.hh"

namespace difftune::surrogate
{

Model::Model(const ModelConfig &config, size_t vocab_size)
    : config_(config)
{
    Rng rng(config.seed);
    embed_ = std::make_unique<nn::Embedding>(params_, int(vocab_size),
                                             config.embedDim, rng);
    tokenLstm_ = std::make_unique<nn::LstmStack>(
        params_, config.embedDim, config.hidden, config.tokenLayers, rng);
    blockLstm_ = std::make_unique<nn::LstmStack>(
        params_, config.hidden + config.paramDim, config.hidden,
        config.blockLayers, rng);
    head_ = std::make_unique<nn::Linear>(params_, config.hidden, 1, rng);
}

nn::Var
Model::forward(nn::Ctx &ctx, const EncodedBlock &block,
               const std::vector<nn::Var> &inst_params) const
{
    panic_if(block.empty(), "surrogate forward on an empty block");
    panic_if(config_.paramDim == 0 ? !inst_params.empty()
                                   : inst_params.size() != block.size(),
             "got {} parameter vectors for {} instructions "
             "(paramDim {})",
             inst_params.size(), block.size(), config_.paramDim);

    std::vector<nn::Var> inst_vecs;
    inst_vecs.reserve(block.size());
    for (size_t i = 0; i < block.size(); ++i) {
        std::vector<nn::Var> token_vecs;
        token_vecs.reserve(block[i].size());
        for (isa::TokenId token : block[i])
            token_vecs.push_back(embed_->forward(ctx, int(token)));
        nn::Var inst_vec = tokenLstm_->runSequence(ctx, token_vecs);
        if (config_.paramDim > 0)
            inst_vec = ctx.graph.concat({inst_vec, inst_params[i]});
        inst_vecs.push_back(inst_vec);
    }
    nn::Var block_vec = blockLstm_->runSequence(ctx, inst_vecs);
    return head_->forward(ctx, block_vec);
}

TokenLevelCounts
Model::predictBatch(
    nn::BatchedForward &bf,
    const std::vector<const EncodedBlock *> &blocks,
    const std::vector<std::vector<const nn::Tensor *>> &inst_params,
    std::vector<double> &out, InstHiddenCache *inst_cache) const
{
    const bool has_params = config_.paramDim > 0;
    panic_if(has_params ? inst_params.size() != blocks.size()
                        : !inst_params.empty(),
             "predictBatch: {} parameter-input blocks for {} blocks "
             "(paramDim {})",
             inst_params.size(), blocks.size(), config_.paramDim);
    out.resize(blocks.size());
    TokenLevelCounts counts;
    if (blocks.empty())
        return counts;

    // Token level: one source per *distinct* token sequence across
    // the whole batch, the memo's key.
    using TokenSeq = std::vector<isa::TokenId>;
    std::unordered_map<TokenSeq, uint32_t, InstHiddenCache::TokenSeqHash>
        distinct_of;
    std::vector<const TokenSeq *> distinct;
    std::vector<uint32_t> inst_source; ///< per occurrence, batch order
    for (const EncodedBlock *block : blocks) {
        panic_if(block->empty(), "predictBatch on an empty block");
        for (const TokenSeq &tokens : *block) {
            auto [slot, fresh] =
                distinct_of.try_emplace(tokens, uint32_t(distinct.size()));
            if (fresh)
                distinct.push_back(&tokens);
            inst_source.push_back(slot->second);
        }
    }

    // One locked pass probes the memo for every distinct sequence.
    // A hit's value is immutable and never evicted, so it is read
    // outside the lock below.
    struct Source
    {
        int lane = -1; ///< token lane in this batch, or -1
        const std::vector<double> *cached = nullptr;
    };
    std::vector<Source> sources(distinct.size());
    if (inst_cache) {
        std::lock_guard lock(inst_cache->mutex_);
        for (size_t d = 0; d < distinct.size(); ++d) {
            auto hit = inst_cache->map_.find(*distinct[d]);
            if (hit != inst_cache->map_.end())
                sources[d].cached = &hit->second;
        }
    }

    // The rest run the token LSTM, embedding rows gathered straight
    // from the table.
    bf.begin(config_.embedDim);
    for (size_t d = 0; d < distinct.size(); ++d) {
        if (sources[d].cached)
            continue;
        const TokenSeq &tokens = *distinct[d];
        const int lane = bf.addLane(int(tokens.size()));
        for (size_t t = 0; t < tokens.size(); ++t)
            bf.setInputParamRow(lane, int(t), 0,
                                embed_->tableIndex(),
                                int(tokens[t]));
        sources[d].lane = lane;
        ++counts.tokenLanes;
    }
    bf.run(tokenLstm_->batchedRef());

    // Publish the new lanes: copies are made before the lock, and a
    // sibling that published the same sequence first keeps its
    // (identical) entry.
    if (inst_cache && counts.tokenLanes > 0) {
        std::vector<std::pair<TokenSeq, std::vector<double>>> fresh;
        fresh.reserve(size_t(counts.tokenLanes));
        for (size_t d = 0; d < distinct.size(); ++d) {
            if (sources[d].lane < 0)
                continue;
            std::vector<double> hidden(size_t(config_.hidden));
            bf.finalHidden(sources[d].lane, hidden.data());
            fresh.emplace_back(*distinct[d], std::move(hidden));
        }
        std::lock_guard lock(inst_cache->mutex_);
        for (auto &[tokens, hidden] : fresh) {
            if (inst_cache->map_.size() >= inst_cache->capacity_)
                break;
            inst_cache->map_.try_emplace(std::move(tokens),
                                         std::move(hidden));
        }
    }

    // Block level: one lane per block; each step's input is the
    // instruction's token-level hidden state, with the parameter
    // column appended for a paramDim > 0 surrogate (the paper's "‖"
    // concatenation).
    bf.begin(config_.hidden + config_.paramDim);
    size_t inst = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
        const EncodedBlock &block = *blocks[b];
        panic_if(has_params &&
                     inst_params[b].size() != block.size(),
                 "predictBatch: block {} has {} parameter columns "
                 "for {} instructions",
                 b, inst_params[b].size(), block.size());
        const int lane = bf.addLane(int(block.size()));
        for (size_t i = 0; i < block.size(); ++i, ++inst) {
            const Source &src = sources[inst_source[inst]];
            if (src.cached) {
                bf.setInput(lane, int(i), 0, src.cached->data(),
                            config_.hidden);
                ++counts.instHits;
            } else {
                bf.setInputPrevHidden(lane, int(i), 0, src.lane);
            }
            if (has_params) {
                const nn::Tensor &col = *inst_params[b][i];
                panic_if(col.rows != config_.paramDim ||
                             col.cols != 1,
                         "predictBatch: parameter column is "
                         "{}x{}, expected {}x1",
                         col.rows, col.cols, config_.paramDim);
                bf.setInput(lane, int(i), config_.hidden,
                            col.data.data(), config_.paramDim);
            }
        }
    }
    bf.run(blockLstm_->batchedRef());
    bf.headAll(head_->batchedRef(), out.data());
    return counts;
}

double
Model::predict(const EncodedBlock &block) const
{
    // One reusable arena-backed graph per thread: predict() runs in
    // tight per-block loops (evaluation, benches), where clear()
    // reuse makes tape construction allocation-free.
    static thread_local nn::Graph graph;
    graph.clear();
    nn::Ctx ctx{graph, params_, nullptr};
    nn::Var pred = forward(ctx, block, {});
    return graph.scalarValue(pred);
}

EncodedBlock
encodeBlock(const isa::BasicBlock &block)
{
    return isa::theVocab().encode(block);
}

std::shared_ptr<nn::WeightSnapshot>
makeWeightSnapshot(std::shared_ptr<const Model> model)
{
    panic_if(!model, "makeWeightSnapshot: null model");
    const nn::ParamSet &params = model->params();
    return std::make_shared<nn::WeightSnapshot>(params,
                                                std::move(model));
}

} // namespace difftune::surrogate
