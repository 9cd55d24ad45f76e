#include "lab/trace.hh"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "base/logging.hh"
#include "base/random.hh"
#include "bhive/corpus.hh"
#include "io/serialize.hh"
#include "isa/instruction.hh"

namespace difftune::lab
{

namespace
{

constexpr uint32_t kTraceMagic = 0x424c5444u; // "DTLB" little-endian
constexpr uint32_t kTraceVersion = 1;

/** Exponential draw with mean @p mean (>= 0). */
double
expDraw(Rng &rng, double mean)
{
    if (mean <= 0.0)
        return 0.0;
    double u = rng.uniformReal();
    if (u > 1.0 - 1e-12)
        u = 1.0 - 1e-12; // avoid log(0)
    return -std::log(1.0 - u) * mean;
}

/** Exponential inter-arrival draw, mean 1/rate, in nanoseconds. */
uint64_t
expGapNs(Rng &rng, double rate_hz)
{
    if (rate_hz <= 0.0)
        return 0;
    return uint64_t(expDraw(rng, 1e9 / rate_hz));
}

} // namespace

std::string
respellText(std::string_view canonical, uint32_t variant)
{
    if (variant == 0)
        return std::string(canonical);
    // Cheap per-variant bit stream: the respelling of (text,
    // variant) must be a pure function so replays are byte-stable.
    uint64_t state = 0x9e3779b97f4a7c15ULL * (variant + 1);
    const auto bits = [&state] { return splitMix64(state); };
    std::string out;
    out.reserve(canonical.size() + canonical.size() / 2);
    const auto pad = [&] {
        const uint64_t b = bits();
        out.append(1 + size_t(b & 1), (b & 2) ? ' ' : '\t');
    };
    pad();
    for (const char c : canonical) {
        if (c == ',') {
            out += " ,"; // operand separators tolerate spacing
        } else if (c == '\n') {
            out += '\n';
            pad();
        } else {
            out += c;
        }
    }
    return out;
}

void
TraceWorkload::materializeCorpus()
{
    const bhive::Corpus corpus = bhive::Corpus::generate(
        size_t(config_.corpusTarget), config_.corpusSeed);
    panic_if(corpus.size() == 0, "trace corpus came up empty");
    corpus_.clear();
    corpus_.reserve(corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i)
        corpus_.push_back(isa::toString(corpus[i].block));
}

TraceWorkload
TraceWorkload::generate(const TraceConfig &config)
{
    fatal_if(config.models == 0, "trace: models must be >= 1");
    // TraceRequest::model is one byte, in memory and on disk.
    fatal_if(config.models > kMaxModels,
             "trace: {} models, at most {} fit a request's model index",
             config.models, kMaxModels);
    fatal_if(!config.modelWeights.empty() &&
                 config.modelWeights.size() != config.models,
             "trace: {} model weights for {} models",
             config.modelWeights.size(), config.models);
    fatal_if(config.zipfSkew < 0.0, "trace: negative zipf skew");

    TraceWorkload trace;
    trace.config_ = config;
    trace.materializeCorpus();
    const size_t ranks = trace.corpus_.size();

    // Zipf CDF over popularity ranks: weight(r) = 1 / (r+1)^s.
    std::vector<double> cdf(ranks);
    double total = 0.0;
    for (size_t r = 0; r < ranks; ++r) {
        total +=
            std::exp(-config.zipfSkew * std::log(double(r) + 1.0));
        cdf[r] = total;
    }

    Rng rng(config.seed);
    uint64_t arrival_ns = 0;
    uint64_t burst_left = 0;
    trace.requests_.reserve(size_t(config.requests));
    for (uint64_t i = 0; i < config.requests; ++i) {
        TraceRequest req;

        // Draw order is part of the format: block, model, respell,
        // then the arrival gap. Reordering would silently change
        // every seeded trace.
        const double u = rng.uniformReal() * total;
        req.block = uint32_t(
            std::lower_bound(cdf.begin(), cdf.end(), u) -
            cdf.begin());
        if (req.block >= ranks)
            req.block = uint32_t(ranks - 1);

        req.model = uint8_t(
            config.modelWeights.empty()
                ? rng.uniformInt(0, int64_t(config.models) - 1)
                : int64_t(rng.weightedIndex(config.modelWeights)));

        if (config.respellProb > 0.0 &&
            rng.bernoulli(config.respellProb))
            req.respell = uint8_t(rng.uniformInt(1, 255));

        // On/off arrivals: exponential gaps at burstHz inside a
        // burst; an idleHz gap (plus a fresh burst length) between.
        if (burst_left == 0) {
            arrival_ns += expGapNs(rng, config.idleHz);
            burst_left =
                1 + uint64_t(expDraw(rng, config.meanBurst - 1.0));
        } else {
            arrival_ns += expGapNs(rng, config.burstHz);
        }
        --burst_left;
        req.arrivalNs = arrival_ns;

        trace.requests_.push_back(req);
    }
    return trace;
}

std::string
TraceWorkload::requestText(size_t i) const
{
    panic_if(i >= requests_.size(), "trace request {} of {}", i,
             requests_.size());
    const TraceRequest &req = requests_[i];
    return respellText(corpus_[req.block], req.respell);
}

std::vector<std::string>
TraceWorkload::requestTexts() const
{
    std::vector<std::string> texts;
    texts.reserve(requests_.size());
    for (size_t i = 0; i < requests_.size(); ++i)
        texts.push_back(requestText(i));
    return texts;
}

std::string
TraceWorkload::serialize() const
{
    io::ByteWriter w;
    w.u32(kTraceMagic);
    w.u32(kTraceVersion);
    w.u64(config_.seed);
    w.u64(config_.corpusSeed);
    w.u64(config_.corpusTarget);
    w.f64(config_.zipfSkew);
    w.f64(config_.respellProb);
    w.f64(config_.burstHz);
    w.f64(config_.idleHz);
    w.f64(config_.meanBurst);
    w.u32(config_.models);
    w.u32(uint32_t(config_.modelWeights.size()));
    for (const double weight : config_.modelWeights)
        w.f64(weight);
    w.u64(requests_.size());
    for (const TraceRequest &req : requests_) {
        w.u32(req.block);
        w.u8(req.model);
        w.u8(req.respell);
        w.u64(req.arrivalNs);
    }
    const uint32_t crc = io::crc32(w.data());
    w.u32(crc);
    return w.take();
}

TraceWorkload
TraceWorkload::deserialize(std::string_view data)
{
    fatal_if(data.size() < 4, "truncated trace ({} bytes)",
             data.size());
    const uint32_t stored_crc =
        io::ByteReader(data.substr(data.size() - 4), "trace crc")
            .u32();
    const std::string_view payload = data.substr(0, data.size() - 4);
    fatal_if(io::crc32(payload) != stored_crc,
             "trace CRC mismatch (corrupt or truncated file)");

    io::ByteReader r(payload, "trace");
    fatal_if(r.u32() != kTraceMagic, "not a trace file (bad magic)");
    const uint32_t version = r.u32();
    fatal_if(version != kTraceVersion,
             "unsupported trace version {} (expected {})", version,
             kTraceVersion);

    TraceWorkload trace;
    trace.config_.seed = r.u64();
    trace.config_.corpusSeed = r.u64();
    trace.config_.corpusTarget = r.u64();
    trace.config_.zipfSkew = r.f64();
    trace.config_.respellProb = r.f64();
    trace.config_.burstHz = r.f64();
    trace.config_.idleHz = r.f64();
    trace.config_.meanBurst = r.f64();
    trace.config_.models = r.u32();
    const uint32_t weights = r.u32();
    trace.config_.modelWeights.reserve(weights);
    for (uint32_t i = 0; i < weights; ++i)
        trace.config_.modelWeights.push_back(r.f64());

    const uint64_t count = r.u64();
    trace.config_.requests = count;
    trace.requests_.reserve(size_t(count));
    for (uint64_t i = 0; i < count; ++i) {
        TraceRequest req;
        req.block = r.u32();
        req.model = r.u8();
        req.respell = r.u8();
        req.arrivalNs = r.u64();
        trace.requests_.push_back(req);
    }
    r.expectEnd();

    trace.materializeCorpus();
    for (const TraceRequest &req : trace.requests_) {
        fatal_if(req.block >= trace.corpus_.size(),
                 "trace block rank {} outside the {}-block corpus",
                 req.block, trace.corpus_.size());
        fatal_if(req.model >= trace.config_.models,
                 "trace model index {} outside the {}-model mix",
                 req.model, trace.config_.models);
    }
    return trace;
}

void
TraceWorkload::save(const std::string &path) const
{
    const std::string bytes = serialize();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    fatal_if(!out, "cannot open trace file '{}' for writing", path);
    out.write(bytes.data(), std::streamsize(bytes.size()));
    out.flush();
    fatal_if(!out, "short write to trace file '{}'", path);
}

TraceWorkload
TraceWorkload::load(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatal_if(!in, "cannot open trace file '{}'", path);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return deserialize(bytes);
}

} // namespace difftune::lab
