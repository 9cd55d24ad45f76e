/**
 * @file
 * difftuned: the serving daemon — a process boundary around the
 * ModelRegistry — plus the loopback client that drives it.
 *
 * # Wire protocol (length-prefixed binary, little-endian)
 *
 * Every message — request or response — is one frame:
 *
 *   u32 payload_length | payload  (payload_length <= maxFrameBytes)
 *
 * Request payloads start with a one-byte opcode:
 *
 *   kPredict  u8 op=1 | u16 name_len | name | u32 text_len | text
 *   kStatsz   u8 op=2
 *   kLoad     u8 op=3 | u16 name_len | name | u32 path_len | path
 *   kList     u8 op=4
 *   kPing     u8 op=5
 *
 * Response payloads start with a one-byte status:
 *
 *   kOk=0        body by request: predict -> 8-byte f64 bit
 *                pattern (the prediction, bit-exact across the
 *                wire); statsz -> u32 len | text dump; list ->
 *                u32 count | (u16 len | name)*; load/ping -> empty
 *   kError=1     u32 len | message (the request failed; the
 *                connection stays usable)
 *   kDraining=2  u32 len | message (the daemon is shutting down;
 *                no new work is accepted)
 *
 * A malformed frame (bad opcode, truncated field, oversized length)
 * gets a kError response when the framing itself is still sound,
 * otherwise the connection is closed. One connection processes one
 * request at a time, in order — concurrency comes from many
 * connections, whose predict calls the shared AsyncEngine
 * micro-batcher coalesces across connections.
 *
 * Both ends send each frame, length prefix and payload together,
 * with one sendmsg(), so on a TCP_NODELAY socket a small frame is
 * one TCP segment. Both read through a per-connection
 * wire::FrameReader, which recv()s whatever has arrived and cuts
 * whole frames out of its buffer: a frame that arrives in one
 * segment costs one recv(), and a peer may still split or merge
 * frames across segments at will.
 *
 * # Lifecycle / graceful drain
 *
 * start() binds (port 0 picks an ephemeral port — read it back with
 * port()), listens, and serves each accepted connection on its own
 * thread. drain() — wired to SIGTERM/SIGINT by the difftuned binary
 * — closes intake in order: stop accepting, shut down every
 * connection's read side (in-flight requests, and frames already
 * in a connection's read buffer, still complete and their responses
 * are written), join the connection threads, then drain the
 * registry (every pending engine future completes). No accepted
 * request is ever dropped. See docs/SERVING.md ("Running
 * difftuned").
 */

#ifndef DIFFTUNE_SERVE_DAEMON_HH
#define DIFFTUNE_SERVE_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/registry.hh"

namespace difftune::serve
{

/** Protocol constants shared by daemon, client and tests. */
namespace wire
{

enum Op : uint8_t
{
    kPredict = 1,
    kStatsz = 2,
    kLoad = 3,
    kList = 4,
    kPing = 5,
};

enum Status : uint8_t
{
    kOk = 0,
    kError = 1,
    kDraining = 2,
};

/** Default per-frame size cap (requests and responses). */
constexpr size_t kDefaultMaxFrameBytes = size_t(1) << 20;

/**
 * One connection's read side: recv()s whatever has arrived into one
 * buffer and cuts whole frames out of it, so frames that arrive
 * together cost one recv() between them.
 */
class FrameReader
{
  public:
    /**
     * The next frame's payload from @p fd, as a view into the buffer
     * that stays valid until the next call. False on EOF (also in
     * mid-frame), on a socket error, and on a length prefix over
     * @p max_frame_bytes, which is checked before the buffer grows
     * to hold the frame.
     */
    bool next(int fd, size_t max_frame_bytes, std::string_view &payload);

  private:
    std::string buffer_;
    /** Unread bytes are buffer_[begin_, end_). */
    size_t begin_ = 0;
    size_t end_ = 0;
};

} // namespace wire

/** Daemon tuning knobs. */
struct DaemonConfig
{
    /** Address to bind; loopback by default (difftuned is not an
     *  authenticated public endpoint). */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (read back via port()). */
    uint16_t port = 0;
    /** Registry knobs: per-model engine template, metric root. */
    RegistryConfig registry;
    /** Reject request frames larger than this (a garbage length
     *  prefix must not become a giant allocation). */
    size_t maxFrameBytes = wire::kDefaultMaxFrameBytes;
};

/**
 * Thrown by DaemonClient on connection failures, protocol
 * violations, and kError/kDraining responses (draining() tells the
 * two apart so a client racing a shutdown can stop cleanly).
 */
class DaemonError : public std::runtime_error
{
  public:
    explicit DaemonError(const std::string &what, bool draining = false)
        : std::runtime_error(what), draining_(draining)
    {
    }

    /** True when the daemon answered kDraining. */
    bool draining() const { return draining_; }

  private:
    bool draining_;
};

/** The difftuned server: a TCP front end over a ModelRegistry. */
class Daemon
{
  public:
    explicit Daemon(DaemonConfig config = {});

    /** drain()s (completing all in-flight work) and joins. */
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Bind, listen and start accepting. Models may be loaded into
     * registry() before or after — a predict for a not-yet-loaded
     * name is a kError, not a crash. Throws on bind failure.
     */
    void start();

    /** The bound port (the ephemeral pick when config.port was 0).
     *  Valid after start(). */
    uint16_t port() const { return port_; }

    /** The model map this daemon serves (load/swap/remove through
     *  it; hot-swaps are live immediately). */
    ModelRegistry &registry() { return registry_; }
    const ModelRegistry &registry() const { return registry_; }

    /**
     * Graceful drain: close intake (listener + connection read
     * sides), let every in-flight request finish and flush its
     * response, join all threads, drain the registry. Idempotent;
     * safe from any thread except a connection handler's own.
     */
    void drain();

    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    /** Connections accepted over the daemon's lifetime. */
    uint64_t connectionsAccepted() const
    {
        return connections_.load(std::memory_order_relaxed);
    }

    /** Request frames processed (all opcodes). */
    uint64_t requestsServed() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

    /** Requests answered kError (malformed, unknown model, ...). */
    uint64_t errorsServed() const
    {
        return errors_.load(std::memory_order_relaxed);
    }

  private:
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    /** Accept loop (acceptor thread body). */
    void acceptLoop();

    /** Per-connection frame loop (connection thread body). */
    void serveConnection(Connection &connection);

    /** Handle one request payload; returns the response payload. */
    std::string handleRequest(std::string_view payload);

    std::string handlePredict(std::string_view payload);
    std::string handleLoad(std::string_view payload);

    /** Join finished connection threads (called while accepting, so
     *  a long-lived daemon does not accumulate dead threads). */
    void reapConnectionsLocked();

    DaemonConfig config_;
    ModelRegistry registry_;
    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::thread acceptor_;
    std::atomic<bool> draining_{false};
    /** Serializes drain() callers; start() sets up before any. */
    std::mutex drainMutex_;
    std::mutex connectionsMutex_;
    std::vector<std::unique_ptr<Connection>> connections_list_;
    std::atomic<uint64_t> connections_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> errors_{0};
    /** Registry-owned mirrors (immortal: they survive engine
     *  hot-swaps, unlike per-engine counters). Null when obs is
     *  disabled. */
    obs::Counter *connCounter_ = nullptr;
    obs::Counter *reqCounter_ = nullptr;
    obs::Counter *errCounter_ = nullptr;
};

/**
 * Blocking loopback client for difftuned, used by tests,
 * bench_serve and the CI daemon smoke. One instance owns one
 * connection and is single-threaded — concurrent clients each open
 * their own (serve::runDaemonClients does exactly that). All calls
 * throw DaemonError on failure; predict returns the f64 bit pattern
 * from the wire, so a loopback prediction is bit-exact against the
 * in-process engine.
 */
class DaemonClient
{
  public:
    DaemonClient(const std::string &host, uint16_t port);
    explicit DaemonClient(uint16_t port); ///< 127.0.0.1
    ~DaemonClient();

    DaemonClient(const DaemonClient &) = delete;
    DaemonClient &operator=(const DaemonClient &) = delete;
    DaemonClient(DaemonClient &&other) noexcept;
    DaemonClient &operator=(DaemonClient &&other) noexcept;

    /** Predict @p block_text under model @p model. */
    double predict(const std::string &model,
                   const std::string &block_text);

    /** The daemon's full /statsz text dump. */
    std::string statsz();

    /** Load (or hot-swap) @p path under @p model on the daemon. */
    void load(const std::string &model, const std::string &path);

    /** Names the daemon is currently serving, sorted. */
    std::vector<std::string> models();

    /** Round-trip liveness check. */
    void ping();

  private:
    /** Send one framed request, receive one framed response; checks
     *  the status byte and strips it. */
    std::string roundTrip(const std::string &payload);

    int fd_ = -1;
    wire::FrameReader reader_;
};

} // namespace difftune::serve

#endif // DIFFTUNE_SERVE_DAEMON_HH
