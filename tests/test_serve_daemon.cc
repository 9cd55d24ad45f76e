/**
 * @file
 * Tests for the difftuned serving daemon stack: ModelRegistry
 * (bit-exact serving, zero-downtime hot-swap under concurrent load,
 * fail-closed swaps, drain semantics), the length-prefixed wire
 * protocol end to end over loopback TCP (predict/statsz/list/ping,
 * hot-swap via kLoad, malformed-frame handling, one TCP segment per
 * frame, frames split or merged across segments), graceful drain
 * with in-flight traffic, and the workload helpers' zero-sample
 * latency guard.
 */

#include <gtest/gtest.h>

// tcp_info with tcpi_data_segs_in comes from the kernel header,
// which clashes with <netinet/tcp.h>; it also defines TCP_NODELAY.
#include <linux/tcp.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "bhive/corpus.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "io/checkpoint.hh"
#include "isa/parse.hh"
#include "obs/export.hh"
#include "serve/daemon.hh"
#include "serve/workload.hh"

namespace difftune::serve
{
namespace
{

surrogate::ModelConfig
tinyConfig(int param_dim, uint64_t seed)
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.paramDim = param_dim;
    cfg.seed = seed;
    return cfg;
}

/** Untrained full-pipeline checkpoint; @p seed varies the weights. */
io::Checkpoint
surrogateCheckpoint(uint64_t seed)
{
    const params::SamplingDist dist = params::SamplingDist::full();
    const core::ParamNormalizer norm(dist);
    io::Checkpoint ckpt;
    ckpt.model = std::make_unique<surrogate::Model>(
        tinyConfig(norm.paramDim(), seed), isa::theVocab().size());
    ckpt.vocabSize = isa::theVocab().size();
    ckpt.dist = dist;
    ckpt.table = hw::defaultTable(hw::Uarch::Haswell);
    return ckpt;
}

io::ModelSnapshot
artifactWithSeed(uint64_t seed)
{
    return io::makeModelSnapshot(surrogateCheckpoint(seed));
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Canonical texts of a generated corpus. */
std::vector<std::string>
corpusTexts(size_t count, uint64_t seed)
{
    const auto corpus = bhive::Corpus::generate(count, seed);
    std::vector<std::string> texts;
    texts.reserve(corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i)
        texts.push_back(isa::toString(corpus[i].block));
    return texts;
}

/** Sequential double-precision references for @p texts. */
std::vector<double>
references(const io::ModelSnapshot &artifact,
           const std::vector<std::string> &texts)
{
    const AsyncEngine engine(artifact);
    std::vector<double> refs;
    refs.reserve(texts.size());
    for (const auto &text : texts)
        refs.push_back(engine.predictUncached(text));
    return refs;
}

/** Registry config pointing at @p metrics with few workers (tests
 *  run many engines; keep each small). */
RegistryConfig
testRegistryConfig(obs::MetricRegistry *metrics)
{
    RegistryConfig cfg;
    cfg.engine.workers = 2;
    cfg.registry = metrics;
    return cfg;
}

/** Save @p seed's checkpoint under gtest's temp dir. */
std::string
saveTempCheckpoint(const std::string &stem, uint64_t seed)
{
    const std::string path =
        (std::filesystem::path(testing::TempDir()) /
         (stem + ".ckpt"))
            .string();
    const io::Checkpoint ckpt = surrogateCheckpoint(seed);
    io::saveCheckpoint(path, ckpt.model.get(), &*ckpt.dist,
                       &*ckpt.table);
    return path;
}

/** A blocking loopback socket connected to @p port with TCP_NODELAY
 *  set, as DaemonClient sets it; -1 on failure. A reply that never
 *  comes fails its read after 10 s instead of hanging the test. */
int
connectRaw(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return fd;
}

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(char((v >> (8 * i)) & 0xff));
}

/** @p payload behind its u32 length prefix. */
std::string
frameOf(const std::string &payload)
{
    std::string frame;
    putU32(frame, uint32_t(payload.size()));
    return frame + payload;
}

std::string
predictFrame(const std::string &model, const std::string &text)
{
    std::string payload(1, char(wire::kPredict));
    payload.push_back(char(model.size() & 0xff));
    payload.push_back(char(model.size() >> 8));
    payload += model;
    putU32(payload, uint32_t(text.size()));
    return frameOf(payload + text);
}

/** A kOk predict response frame carrying @p prediction's bits. */
std::string
predictReplyFrame(double prediction)
{
    std::string payload(1, char(wire::kOk));
    const uint64_t bits = std::bit_cast<uint64_t>(prediction);
    for (int i = 0; i < 8; ++i)
        payload.push_back(char((bits >> (8 * i)) & 0xff));
    return frameOf(payload);
}

const std::string kOkFrame = frameOf(std::string(1, char(wire::kOk)));

/** One frame's payload by blocking reads; false on EOF or error. */
bool
readRawFrame(int fd, std::string &payload)
{
    unsigned char header[4];
    if (::recv(fd, header, 4, MSG_WAITALL) != 4)
        return false;
    const uint32_t len = uint32_t(header[0]) |
                         (uint32_t(header[1]) << 8) |
                         (uint32_t(header[2]) << 16) |
                         (uint32_t(header[3]) << 24);
    payload.resize(len);
    return len == 0 ||
           ::recv(fd, payload.data(), len, MSG_WAITALL) == ssize_t(len);
}

bool
sendAll(int fd, const std::string &bytes)
{
    return ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           ssize_t(bytes.size());
}

/** Send @p bytes one byte per send(), pausing between them so the
 *  peer's reads see them apart. */
bool
sendDribbled(int fd, const std::string &bytes)
{
    for (const char byte : bytes) {
        if (::send(fd, &byte, 1, MSG_NOSIGNAL) != 1)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
}

/** The prediction in a kOk predict response payload (NaN if the
 *  payload is anything else). */
double
predictionOf(const std::string &payload)
{
    if (payload.size() != 9 || uint8_t(payload[0]) != wire::kOk)
        return std::nan("");
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
        bits |= uint64_t(uint8_t(payload[size_t(1 + i)])) << (8 * i);
    return std::bit_cast<double>(bits);
}

/** TCP data segments @p fd has received (tcpi_data_segs_in);
 *  nullopt when the kernel's tcp_info is too short to carry it. */
std::optional<uint32_t>
dataSegmentsIn(int fd)
{
    tcp_info info{};
    socklen_t len = sizeof(info);
    const size_t needed = offsetof(tcp_info, tcpi_data_segs_in) +
                          sizeof(info.tcpi_data_segs_in);
    if (::getsockopt(fd, IPPROTO_TCP, TCP_INFO, &info, &len) != 0 ||
        size_t(len) < needed)
        return std::nullopt;
    return info.tcpi_data_segs_in;
}

/**
 * A loopback stand-in for the daemon in client-side tests: accepts
 * one connection and runs @p serve on it in a thread. join() (or
 * the destructor) waits for @p serve, so close the client first.
 */
class OneShotListener
{
  public:
    explicit OneShotListener(std::function<void(int)> serve)
    {
        listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof(addr);
        auto *name = reinterpret_cast<sockaddr *>(&addr);
        if (listenFd_ < 0 || ::bind(listenFd_, name, len) != 0 ||
            ::listen(listenFd_, 1) != 0 ||
            ::getsockname(listenFd_, name, &len) != 0)
            return; // port() stays 0 and the test fails on it
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this, serve = std::move(serve)] {
            const int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd < 0)
                return;
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            serve(fd);
            ::close(fd);
        });
    }

    ~OneShotListener()
    {
        join();
        if (listenFd_ >= 0)
            ::close(listenFd_);
    }

    OneShotListener(const OneShotListener &) = delete;
    OneShotListener &operator=(const OneShotListener &) = delete;

    uint16_t port() const { return port_; }

    void
    join()
    {
        // Wakes an accept() that no client ever reached.
        if (listenFd_ >= 0)
            ::shutdown(listenFd_, SHUT_RDWR);
        if (thread_.joinable())
            thread_.join();
    }

  private:
    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::thread thread_;
};

TEST(ModelRegistry, ServesBitExactAgainstReference)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    const io::ModelSnapshot artifact = artifactWithSeed(5);
    const auto texts = corpusTexts(12, 0x11a);
    const auto refs = references(artifact, texts);

    registry.load("haswell", artifact);
    EXPECT_EQ(registry.size(), 1u);
    const auto engine = registry.acquire("haswell");
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(engine->predict(texts[i]), refs[i]))
            << "request " << i;
}

TEST(ModelRegistry, UnknownNameThrowsAndFindReturnsNull)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    EXPECT_EQ(registry.find("nope"), nullptr);
    EXPECT_THROW(registry.acquire("nope"), UnknownModelError);
    registry.load("a", artifactWithSeed(5));
    // The error names what *is* serving, for operators.
    try {
        registry.acquire("nope");
        FAIL() << "acquire should have thrown";
    } catch (const UnknownModelError &error) {
        EXPECT_NE(std::string(error.what()).find("a"),
                  std::string::npos);
    }
}

TEST(ModelRegistry, RejectsMetricUnsafeNames)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    EXPECT_THROW(registry.load("bad name", artifactWithSeed(5)),
                 std::runtime_error);
    EXPECT_THROW(registry.load("", artifactWithSeed(5)),
                 std::runtime_error);
    EXPECT_EQ(registry.size(), 0u);
}

TEST(ModelRegistry, SwapKeepsAcquiredEngineAlive)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    const io::ModelSnapshot a = artifactWithSeed(5);
    const io::ModelSnapshot b = artifactWithSeed(9);
    const auto texts = corpusTexts(6, 0x22b);
    const auto refA = references(a, texts);
    const auto refB = references(b, texts);

    registry.load("m", a);
    const auto old_engine = registry.acquire("m");
    registry.load("m", b); // hot-swap
    EXPECT_EQ(registry.swaps(), 1u);

    // The pre-swap reference still answers, from the *old* weights
    // — exactly what an in-flight request sees mid-swap.
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(old_engine->predict(texts[i]), refA[i]));
    // A fresh acquire gets the new weights.
    const auto new_engine = registry.acquire("m");
    EXPECT_NE(new_engine.get(), old_engine.get());
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(new_engine->predict(texts[i]), refB[i]));
}

TEST(ModelRegistry, FailedSwapLeavesLiveEngineServing)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    const io::ModelSnapshot a = artifactWithSeed(5);
    const auto texts = corpusTexts(4, 0x33c);
    const auto refA = references(a, texts);

    registry.load("m", a);
    EXPECT_THROW(
        registry.loadFromFile("m", "/nonexistent/path.ckpt"),
        std::exception);
    // Fail closed: the old engine never stopped serving.
    EXPECT_EQ(registry.swaps(), 0u);
    const auto engine = registry.acquire("m");
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(engine->predict(texts[i]), refA[i]));
}

TEST(ModelRegistry, RemoveAndNames)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    registry.load("b", artifactWithSeed(5));
    registry.load("a", artifactWithSeed(9));
    EXPECT_EQ(registry.names(),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(registry.remove("a"));
    EXPECT_FALSE(registry.remove("a"));
    EXPECT_EQ(registry.size(), 1u);
}

TEST(ModelRegistry, ReloadAfterRemoveNeverReusesMetricGeneration)
{
    // Generations are monotonic per name and survive remove(): a
    // removed-but-still-referenced engine must never share a metric
    // prefix (and thus Counter objects) with its reloaded successor.
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    const auto texts = corpusTexts(2, 0x99a);

    registry.load("m", artifactWithSeed(5)); // g0
    const auto old_engine = registry.acquire("m");
    EXPECT_TRUE(registry.remove("m"));
    registry.load("m", artifactWithSeed(9)); // must be g1, not g0
    const auto new_engine = registry.acquire("m");
    EXPECT_NE(new_engine.get(), old_engine.get());

    old_engine->predict(texts[0]);
    new_engine->predict(texts[0]);
    new_engine->predict(texts[1]);
    if (obs::enabled()) {
        const std::string dump = obs::renderStatsz(metrics);
        const auto g0 =
            obs::statszCounter(dump, "model.m.g0.requests");
        const auto g1 =
            obs::statszCounter(dump, "model.m.g1.requests");
        ASSERT_TRUE(g0.has_value() && g1.has_value());
        EXPECT_EQ(*g0, 1u); // merged telemetry would read 3 here
        EXPECT_EQ(*g1, 2u);
    }
}

TEST(ModelRegistry, DrainRejectsNewWorkButKeepsResolving)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    registry.load("m", artifactWithSeed(5));
    registry.drain();
    EXPECT_TRUE(registry.draining());
    // Late acquires still resolve — but the engine refuses intake
    // with the catchable per-request error, not a process fatal.
    const auto engine = registry.acquire("m");
    EXPECT_THROW(engine->submit("NOP\n"), EngineStoppedError);
    EXPECT_THROW(registry.load("x", artifactWithSeed(9)),
                 UnknownModelError);
    registry.drain(); // idempotent
}

/**
 * The tentpole acceptance test: N client threads hammer predict
 * through acquire() while the main thread hot-swaps the model
 * repeatedly. Zero errors are tolerated and every single answer
 * must bit-match one of the two snapshots' sequential references —
 * a swap's only observable effect is *which* of the two it matches.
 * The TSan CI job runs this same test for the data-race angle.
 */
TEST(ModelRegistry, HotSwapUnderConcurrentLoadDropsNothing)
{
    obs::MetricRegistry metrics;
    ModelRegistry registry(testRegistryConfig(&metrics));
    const io::ModelSnapshot a = artifactWithSeed(5);
    const io::ModelSnapshot b = artifactWithSeed(9);
    const auto texts = corpusTexts(10, 0x44d);
    const auto refA = references(a, texts);
    const auto refB = references(b, texts);
    // The two snapshots must actually disagree for the bit-match
    // check below to mean anything.
    for (size_t i = 0; i < texts.size(); ++i)
        ASSERT_FALSE(sameBits(refA[i], refB[i])) << "text " << i;

    registry.load("m", a);
    constexpr int kClients = 4;
    constexpr int kSwaps = 6;
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> answered{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
            size_t i = size_t(t);
            while (!stop.load(std::memory_order_acquire)) {
                const size_t slot = i++ % texts.size();
                double got = 0.0;
                try {
                    got = registry.acquire("m")->predict(
                        texts[slot]);
                } catch (const std::exception &) {
                    errors.fetch_add(1,
                                     std::memory_order_relaxed);
                    continue;
                }
                answered.fetch_add(1, std::memory_order_relaxed);
                if (!sameBits(got, refA[slot]) &&
                    !sameBits(got, refB[slot]))
                    mismatches.fetch_add(
                        1, std::memory_order_relaxed);
            }
        });
    }
    // Swap back and forth while the clients run: b, a, b, a, b, a —
    // the even number of swaps lands back on `a`.
    for (int s = 0; s < kSwaps; ++s) {
        registry.load("m", s % 2 == 0 ? b : a);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true, std::memory_order_release);
    for (auto &client : clients)
        client.join();

    EXPECT_EQ(errors.load(), 0u);
    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_GT(answered.load(), 0u);
    EXPECT_EQ(registry.swaps(), uint64_t(kSwaps));
    // Settled state: the final engine serves exactly `a`.
    const auto engine = registry.acquire("m");
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(engine->predict(texts[i]), refA[i]));
}

TEST(Daemon, LoopbackPredictListPingStatsz)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    const io::ModelSnapshot artifact = artifactWithSeed(5);
    const auto texts = corpusTexts(8, 0x55e);
    const auto refs = references(artifact, texts);
    daemon.registry().load("haswell", artifact);
    daemon.start();
    ASSERT_GT(daemon.port(), 0);

    DaemonClient client(daemon.port());
    client.ping();
    EXPECT_EQ(client.models(),
              (std::vector<std::string>{"haswell"}));
    // Bit-exactness survives the wire: f64 crosses as its bit
    // pattern, never through decimal text.
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(
            sameBits(client.predict("haswell", texts[i]), refs[i]))
            << "request " << i;

    // Unknown model: an error *response*; the connection survives.
    EXPECT_THROW(client.predict("zen2", texts[0]), DaemonError);
    client.ping();

    if (obs::enabled()) {
        const std::string dump = client.statsz();
        const auto requests = obs::statszCounter(
            dump, "model.haswell.g0.requests");
        ASSERT_TRUE(requests.has_value());
        EXPECT_EQ(*requests, texts.size());
        const auto hits =
            obs::statszCounter(dump, "model.haswell.g0.hits");
        const auto misses =
            obs::statszCounter(dump, "model.haswell.g0.misses");
        ASSERT_TRUE(hits.has_value() && misses.has_value());
        EXPECT_EQ(*hits + *misses, *requests);
        EXPECT_EQ(*obs::statszCounter(dump, "model.daemon.errors"),
                  1u); // the zen2 miss above
    }
    EXPECT_GE(daemon.requestsServed(), texts.size() + 3);
    EXPECT_EQ(daemon.errorsServed(), 1u);
}

TEST(Daemon, HotSwapOverTheWire)
{
    const std::string path_a = saveTempCheckpoint("daemon_swap_a", 5);
    const std::string path_b = saveTempCheckpoint("daemon_swap_b", 9);
    const auto texts = corpusTexts(5, 0x66f);
    const auto refA =
        references(io::loadModelSnapshot(path_a), texts);
    const auto refB =
        references(io::loadModelSnapshot(path_b), texts);

    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    daemon.registry().loadFromFile("m", path_a);
    daemon.start();

    DaemonClient client(daemon.port());
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(client.predict("m", texts[i]), refA[i]));
    client.load("m", path_b); // kLoad = hot-swap over the wire
    EXPECT_EQ(daemon.registry().swaps(), 1u);
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(client.predict("m", texts[i]), refB[i]));
    // A bad swap is an error response and changes nothing.
    EXPECT_THROW(client.load("m", "/nonexistent.ckpt"), DaemonError);
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_TRUE(sameBits(client.predict("m", texts[i]), refB[i]));
}

TEST(Daemon, ConcurrentClientsWithHotSwapSeeNoErrors)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    const io::ModelSnapshot a = artifactWithSeed(5);
    const io::ModelSnapshot b = artifactWithSeed(9);
    const auto texts = corpusTexts(10, 0x770);
    const auto refA = references(a, texts);
    const auto refB = references(b, texts);
    daemon.registry().load("m", a);
    daemon.start();

    // A workload large enough that the mid-run swap lands against
    // live wire traffic.
    std::vector<std::string> workload;
    for (int round = 0; round < 40; ++round)
        for (const auto &text : texts)
            workload.push_back(text);

    std::thread swapper([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        daemon.registry().load("m", b);
    });
    const DaemonClientRun run = runDaemonClients(
        "127.0.0.1", daemon.port(), "m", workload, 4);
    swapper.join();

    EXPECT_EQ(run.errors, 0u);
    ASSERT_EQ(run.predictions.size(), workload.size());
    for (size_t i = 0; i < workload.size(); ++i) {
        const size_t slot = i % texts.size();
        EXPECT_TRUE(sameBits(run.predictions[i], refA[slot]) ||
                    sameBits(run.predictions[i], refB[slot]))
            << "request " << i;
    }
    EXPECT_GT(run.seconds, 0.0);
}

TEST(Daemon, GracefulDrainAnswersEverythingAccepted)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    const io::ModelSnapshot artifact = artifactWithSeed(5);
    const auto texts = corpusTexts(6, 0x881);
    const auto refs = references(artifact, texts);
    daemon.registry().load("m", artifact);
    daemon.start();

    std::vector<std::string> workload;
    for (int round = 0; round < 50; ++round)
        for (const auto &text : texts)
            workload.push_back(text);

    // Drain fires while clients are mid-run. Past that point their
    // requests fail (connection closed / kDraining) — but every
    // response that *does* arrive must still be exact, and drain()
    // itself must settle everything and return.
    std::thread drainer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        daemon.drain();
    });
    const DaemonClientRun run = runDaemonClients(
        "127.0.0.1", daemon.port(), "m", workload, 4);
    drainer.join();
    EXPECT_TRUE(daemon.draining());

    size_t answered = 0;
    for (size_t i = 0; i < workload.size(); ++i) {
        if (std::isnan(run.predictions[i]))
            continue; // rejected by the drain — allowed
        ++answered;
        EXPECT_TRUE(
            sameBits(run.predictions[i], refs[i % texts.size()]))
            << "request " << i;
    }
    EXPECT_EQ(answered + run.errors, workload.size());
    // New connections are refused once drained.
    EXPECT_THROW(
        {
            DaemonClient late(daemon.port());
            late.ping();
        },
        DaemonError);
}

TEST(Daemon, MalformedFramesGetErrorsNotCrashes)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    cfg.maxFrameBytes = 1024;
    Daemon daemon(cfg);
    daemon.registry().load("m", artifactWithSeed(5));
    daemon.start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    // Frame with an unknown opcode: kError response, connection
    // stays up.
    const unsigned char bad_op[] = {1, 0, 0, 0, 0xee};
    ASSERT_EQ(::send(fd, bad_op, sizeof(bad_op), 0),
              ssize_t(sizeof(bad_op)));
    unsigned char header[4];
    ASSERT_EQ(::recv(fd, header, 4, MSG_WAITALL), 4);
    const uint32_t len = uint32_t(header[0]) |
                         (uint32_t(header[1]) << 8) |
                         (uint32_t(header[2]) << 16) |
                         (uint32_t(header[3]) << 24);
    ASSERT_GT(len, 0u);
    ASSERT_LE(len, 1024u);
    std::vector<unsigned char> body(len);
    ASSERT_EQ(::recv(fd, body.data(), len, MSG_WAITALL),
              ssize_t(len));
    EXPECT_EQ(body[0], wire::kError);

    // Truncated predict frame: still an error response.
    const unsigned char truncated[] = {2, 0, 0, 0, wire::kPredict,
                                       9};
    ASSERT_EQ(::send(fd, truncated, sizeof(truncated), 0),
              ssize_t(sizeof(truncated)));
    ASSERT_EQ(::recv(fd, header, 4, MSG_WAITALL), 4);

    // A length prefix past maxFrameBytes: the daemon hangs up
    // rather than allocating it.
    const unsigned char huge[] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::send(fd, huge, sizeof(huge), 0),
              ssize_t(sizeof(huge)));
    // Drain whatever remains of the truncated-frame response, then
    // expect EOF.
    char sink[4096];
    ssize_t got;
    while ((got = ::recv(fd, sink, sizeof(sink), 0)) > 0) {
    }
    EXPECT_EQ(got, 0);
    ::close(fd);

    // The daemon is still healthy for well-formed clients.
    DaemonClient client(daemon.port());
    client.ping();
    EXPECT_GE(daemon.errorsServed(), 2u);
}

TEST(Daemon, OversizedStatszIsAProtocolErrorNotADesync)
{
    if (!obs::enabled())
        GTEST_SKIP() << "statsz dump is empty with obs disabled";
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    cfg.maxFrameBytes = 64; // far below any real metric dump
    Daemon daemon(cfg);
    daemon.registry().load("m", artifactWithSeed(5));
    daemon.start();

    DaemonClient client(daemon.port());
    try {
        client.statsz();
        FAIL() << "statsz should have errored";
    } catch (const DaemonError &error) {
        EXPECT_NE(std::string(error.what()).find("statsz"),
                  std::string::npos);
    }
    // kError keeps the connection usable — the old behavior sent a
    // frame over the limit, which desynced the connection.
    client.ping();
}

TEST(Daemon, EveryFrameIsOneTcpSegment)
{
    // A frame's length prefix and payload leave in one send(), so on
    // a TCP_NODELAY socket each small frame is one data segment in
    // both directions (two sends made two, or merged late).
    constexpr uint32_t kFrames = 100;
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    daemon.start();

    // The daemon's replies, counted where they arrive.
    const int fd = connectRaw(daemon.port());
    ASSERT_GE(fd, 0);
    const std::string ping = frameOf(std::string(1, char(wire::kPing)));
    std::string reply;
    for (uint32_t i = 0; i < kFrames; ++i) {
        ASSERT_TRUE(sendAll(fd, ping));
        ASSERT_TRUE(readRawFrame(fd, reply));
        ASSERT_EQ(reply, std::string(1, char(wire::kOk)));
    }
    const std::optional<uint32_t> reply_segments = dataSegmentsIn(fd);
    ::close(fd);
    if (!reply_segments)
        GTEST_SKIP() << "tcp_info carries no tcpi_data_segs_in";
    EXPECT_LE(*reply_segments, kFrames);

    // DaemonClient's requests, counted by a stand-in daemon.
    uint32_t requests_seen = 0;
    std::optional<uint32_t> request_segments;
    OneShotListener listener([&](int peer) {
        std::string request;
        while (readRawFrame(peer, request) && sendAll(peer, kOkFrame))
            ++requests_seen;
        request_segments = dataSegmentsIn(peer);
    });
    ASSERT_GT(listener.port(), 0);
    {
        DaemonClient client(listener.port());
        for (uint32_t i = 0; i < kFrames; ++i)
            client.ping();
    } // the client's close ends the listener's loop
    listener.join();
    EXPECT_EQ(requests_seen, kFrames);
    ASSERT_TRUE(request_segments.has_value());
    EXPECT_LE(*request_segments, kFrames);
}

TEST(Daemon, AnswersAFrameSentOneBytePerSend)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    const io::ModelSnapshot artifact = artifactWithSeed(5);
    const auto texts = corpusTexts(1, 0x99a);
    const auto refs = references(artifact, texts);
    daemon.registry().load("m", artifact);
    daemon.start();

    const int fd = connectRaw(daemon.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendDribbled(fd, predictFrame("m", texts[0])));
    std::string reply;
    ASSERT_TRUE(readRawFrame(fd, reply));
    EXPECT_TRUE(sameBits(predictionOf(reply), refs[0]));
    ::close(fd);
    EXPECT_EQ(daemon.errorsServed(), 0u);
}

TEST(Daemon, AnswersFramesSentTogetherInOrder)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    const io::ModelSnapshot artifact = artifactWithSeed(5);
    const auto texts = corpusTexts(3, 0x99b);
    ASSERT_EQ(texts.size(), 3u);
    const auto refs = references(artifact, texts);
    daemon.registry().load("m", artifact);
    daemon.start();

    const int fd = connectRaw(daemon.port());
    ASSERT_GE(fd, 0);
    // Three frames in one send; then so many that frames straddle
    // the daemon's refills of its read buffer.
    for (const size_t rounds : {1, 64}) {
        std::string frames;
        for (size_t round = 0; round < rounds; ++round)
            for (const auto &text : texts)
                frames += predictFrame("m", text);
        ASSERT_TRUE(sendAll(fd, frames));
        for (size_t i = 0; i < rounds * texts.size(); ++i) {
            std::string reply;
            ASSERT_TRUE(readRawFrame(fd, reply)) << "reply " << i;
            const double want = refs[i % texts.size()];
            EXPECT_TRUE(sameBits(predictionOf(reply), want)) << i;
        }
    }
    ::close(fd);
    EXPECT_EQ(daemon.errorsServed(), 0u);
}

TEST(Daemon, PeerClosingMidFrameEndsTheConnectionQuietly)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    daemon.start();

    const int fd = connectRaw(daemon.port());
    ASSERT_GE(fd, 0);
    // A frame that promises 10 payload bytes and delivers 3.
    std::string partial;
    putU32(partial, 10);
    partial += char(wire::kPing);
    partial += "ab";
    ASSERT_TRUE(sendAll(fd, partial));
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    // The daemon hangs up without answering.
    char sink[16];
    EXPECT_EQ(::recv(fd, sink, sizeof(sink), 0), 0);
    ::close(fd);
    EXPECT_EQ(daemon.requestsServed(), 0u);
    EXPECT_EQ(daemon.errorsServed(), 0u);

    DaemonClient client(daemon.port());
    client.ping();
}

TEST(DaemonClient, ParsesAReplyDribbledOneBytePerSend)
{
    const double answer = -0.1;
    OneShotListener listener([&](int peer) {
        std::string request;
        if (readRawFrame(peer, request))
            sendDribbled(peer, predictReplyFrame(answer));
        if (readRawFrame(peer, request))
            sendDribbled(peer, kOkFrame);
        while (readRawFrame(peer, request)) {
        }
    });
    ASSERT_GT(listener.port(), 0);
    {
        DaemonClient client(listener.port());
        EXPECT_TRUE(sameBits(client.predict("m", "NOP\n"), answer));
        client.ping();
    }
    listener.join();
}

TEST(DaemonClient, MovedClientKeepsItsConnectionAndReadBuffer)
{
    // The stand-in answers the first request with two frames in one
    // send, so the second waits in the client's read buffer when the
    // client is moved. It answers the second request with a decoy,
    // which only a client that lost that buffer reads.
    const double answer = 2.5;
    const double decoy = -7.0;
    OneShotListener listener([&](int peer) {
        std::string request;
        if (readRawFrame(peer, request))
            sendAll(peer, kOkFrame + predictReplyFrame(answer));
        if (readRawFrame(peer, request))
            sendAll(peer, predictReplyFrame(decoy));
        while (readRawFrame(peer, request)) {
        }
    });
    ASSERT_GT(listener.port(), 0);
    {
        DaemonClient first(listener.port());
        first.ping();
        DaemonClient second(std::move(first));
        EXPECT_TRUE(sameBits(second.predict("m", "NOP\n"), answer));
        EXPECT_THROW(first.ping(), DaemonError);
    }
    listener.join();

    // Move-assignment closes the target's connection and carries on
    // on the source's.
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    daemon.start();
    DaemonClient target(daemon.port());
    DaemonClient source(daemon.port());
    target.ping();
    source.ping();
    target = std::move(source);
    target.ping();
    EXPECT_THROW(source.ping(), DaemonError);
    EXPECT_EQ(daemon.errorsServed(), 0u);
}

TEST(DaemonClient, RejectsOverlongModelNamesBeforeSending)
{
    obs::MetricRegistry metrics;
    DaemonConfig cfg;
    cfg.registry = testRegistryConfig(&metrics);
    Daemon daemon(cfg);
    daemon.start();

    // A name past the u16 length field used to truncate silently,
    // desyncing the frame; now the client refuses to encode it.
    DaemonClient client(daemon.port());
    const std::string huge(70000, 'x');
    EXPECT_THROW(client.predict(huge, "NOP\n"), DaemonError);
    EXPECT_THROW(client.load(huge, "/tmp/none.ckpt"), DaemonError);
    client.ping(); // the bad frames were never sent
}

TEST(Workload, LatencyFromEmptyHistogramIsAllZero)
{
    // Satellite of the serving-contract fixes: percentile stats of
    // a histogram that recorded nothing must be explicit zeros (the
    // old code asked an empty snapshot for p50/p95/p99 directly).
    obs::LatencyHistogram hist;
    const LatencyStats stats = latencyFromHistogram(hist);
    EXPECT_EQ(stats.p50, 0.0);
    EXPECT_EQ(stats.p95, 0.0);
    EXPECT_EQ(stats.p99, 0.0);

    hist.recordSeconds(1e-3);
    const LatencyStats one = latencyFromHistogram(hist);
    EXPECT_GT(one.p50, 0.0);
    EXPECT_GT(one.p99, 0.0);
}

} // namespace
} // namespace difftune::serve
