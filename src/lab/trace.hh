/**
 * @file
 * Deterministic trace-driven load generation (the traffic lab).
 *
 * TraceWorkload produces the repeated-query request streams the
 * serving stack actually faces once a surrogate is trained and
 * deployed (DiffTune's serve-many regime): block popularity is
 * Zipfian with configurable skew, arrivals come in on/off bursts,
 * a fraction of requests arrive respelled (whitespace near-misses
 * that exercise the interner path), and requests can fan out over a
 * multi-model mix for registry traffic.
 *
 * Everything is derived from explicit seeds through base/random.hh,
 * so the same TraceConfig always yields the same trace, and a trace
 * serializes to a compact little-endian artifact (block *ranks*, not
 * texts — the corpus regenerates from its recorded seed) that
 * replays byte-identically: two engines, two dispatcher counts, or
 * an engine and a daemon all see the exact same request sequence. See
 * docs/TRAFFIC_LAB.md for the file format.
 */

#ifndef DIFFTUNE_LAB_TRACE_HH
#define DIFFTUNE_LAB_TRACE_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace difftune::lab
{

/** Largest model mix a trace can index (TraceRequest::model). */
constexpr uint32_t kMaxModels = 256;

/** Knobs for TraceWorkload::generate (all defaults are sane). */
struct TraceConfig
{
    uint64_t seed = 1;         ///< request-stream seed
    uint64_t corpusSeed = 7;   ///< bhive::Corpus::generate seed
    uint64_t corpusTarget = 256; ///< ~distinct blocks (pre-dedup)
    uint64_t requests = 4096;  ///< trace length

    /**
     * Zipf exponent s: popularity of the r-th most popular block is
     * proportional to 1 / r^s. 0 degenerates to uniform; >= 1.0 is
     * the heavily skewed serving regime of perfbench's serve_hot.
     */
    double zipfSkew = 1.1;

    /** Fraction of requests whose raw text arrives respelled. */
    double respellProb = 0.25;

    // On/off burst arrival model: dwell in a burst for a
    // geometric(1/meanBurst) number of requests with exponential
    // inter-arrivals at burstHz, then idle one exponential gap at
    // idleHz. meanBurst <= 1 degenerates to Poisson at idleHz.
    double burstHz = 200000.0; ///< arrival rate inside a burst
    double idleHz = 10000.0;   ///< rate of burst starts when idle
    double meanBurst = 64.0;   ///< mean requests per burst

    /** Model-mix size (registry traffic); 1 = single model, at
     *  most kMaxModels. */
    uint32_t models = 1;

    /** Optional mix weights (size == models; empty = uniform). */
    std::vector<double> modelWeights;
};

/** One trace record; texts are materialized on demand. */
struct TraceRequest
{
    uint32_t block = 0;    ///< popularity rank into the corpus
    uint8_t model = 0;     ///< model-mix index
    uint8_t respell = 0;   ///< 0 = canonical text, else variant id
    uint64_t arrivalNs = 0; ///< offset from trace start
};

/** A generated (or loaded) trace plus its materialization. */
class TraceWorkload
{
  public:
    /** Deterministically generate a trace from @p config. */
    static TraceWorkload generate(const TraceConfig &config);

    const TraceConfig &config() const { return config_; }
    const std::vector<TraceRequest> &requests() const
    {
        return requests_;
    }

    /** Distinct canonical block texts, indexed by popularity rank
     *  (rank 0 = hottest). Regenerated, never stored. */
    const std::vector<std::string> &corpusTexts() const
    {
        return corpus_;
    }

    /** The raw text request @p i submits (respelling applied). */
    std::string requestText(size_t i) const;

    /** All request texts, aligned with requests(). */
    std::vector<std::string> requestTexts() const;

    // ---- compact serialized form (docs/TRAFFIC_LAB.md) ----

    /** CRC-guarded little-endian bytes; bit-exact round trip. */
    std::string serialize() const;

    /** Decode serialize() output (fatal() on corruption). */
    static TraceWorkload deserialize(std::string_view data);

    /** serialize() to @p path (fatal() on I/O errors). */
    void save(const std::string &path) const;

    /** Load and deserialize @p path (fatal() on I/O errors). */
    static TraceWorkload load(const std::string &path);

  private:
    TraceWorkload() = default;

    /** Regenerate corpus_ from the config's corpus seed. */
    void materializeCorpus();

    TraceConfig config_;
    std::vector<TraceRequest> requests_;
    std::vector<std::string> corpus_;
};

/**
 * Apply deterministic whitespace respelling @p variant (> 0) to a
 * canonical block text: extra tabs/spaces that parse back to the
 * same canonical form, so the raw-text cache misses but the interner
 * and every canonical-keyed cache hit. Variant 0 is the identity.
 */
std::string respellText(std::string_view canonical, uint32_t variant);

} // namespace difftune::lab

#endif // DIFFTUNE_LAB_TRACE_HH
