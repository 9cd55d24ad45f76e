/**
 * @file
 * Daemon / DaemonClient implementation (POSIX sockets).
 *
 * A frame is written with one sendmsg() of its header and payload
 * and read through a wire::FrameReader; both loop, since TCP splits
 * and merges at will. Integers cross the wire little-endian via
 * explicit byte assembly, so the format is identical on any host.
 * All writes use MSG_NOSIGNAL — a peer closing mid-response must
 * surface as an error return, not SIGPIPE.
 */

#include "serve/daemon.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "base/logging.hh"
#include "obs/export.hh"

namespace difftune::serve
{

namespace
{

/** Bytes in a frame's length prefix. */
constexpr size_t kHeaderBytes = 4;

/** recv() size when the buffer holds less than a frame's worth. */
constexpr size_t kReadChunk = 4096;

uint32_t
loadU32(const char *bytes)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(uint8_t(bytes[i])) << (8 * i);
    return v;
}

void
appendU16(std::string &out, uint16_t v)
{
    out.push_back(char(v & 0xff));
    out.push_back(char((v >> 8) & 0xff));
}

void
appendU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(char((v >> (8 * i)) & 0xff));
}

void
appendF64(std::string &out, double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i)
        out.push_back(char((bits >> (8 * i)) & 0xff));
}

/**
 * Cursor over a received payload; every read checks remaining bytes
 * so a truncated or lying frame parses to an error, never past the
 * buffer.
 */
struct Reader
{
    std::string_view buf;
    size_t pos = 0;

    bool
    u8(uint8_t &out)
    {
        if (buf.size() - pos < 1)
            return false;
        out = uint8_t(buf[pos++]);
        return true;
    }

    bool
    u16(uint16_t &out)
    {
        if (buf.size() - pos < 2)
            return false;
        out = uint16_t(uint8_t(buf[pos])) |
              uint16_t(uint16_t(uint8_t(buf[pos + 1])) << 8);
        pos += 2;
        return true;
    }

    bool
    u32(uint32_t &out)
    {
        if (buf.size() - pos < 4)
            return false;
        out = loadU32(buf.data() + pos);
        pos += 4;
        return true;
    }

    bool
    f64(double &out)
    {
        if (buf.size() - pos < 8)
            return false;
        uint64_t bits = 0;
        for (int i = 0; i < 8; ++i)
            bits |= uint64_t(uint8_t(buf[pos + size_t(i)]))
                    << (8 * i);
        pos += 8;
        std::memcpy(&out, &bits, sizeof(out));
        return true;
    }

    bool
    bytes(size_t n, std::string &out)
    {
        if (buf.size() - pos < n)
            return false;
        out.assign(buf.data() + pos, n);
        pos += n;
        return true;
    }
};

/** Frame @p payload and write it with one sendmsg() per attempt;
 *  false on error (incl. closed peer). */
bool
writeFrame(int fd, std::string_view payload)
{
    char header[kHeaderBytes];
    const uint32_t len = uint32_t(payload.size());
    for (size_t i = 0; i < kHeaderBytes; ++i)
        header[i] = char((len >> (8 * i)) & 0xff);
    iovec parts[2];
    parts[0].iov_base = header;
    parts[0].iov_len = kHeaderBytes;
    parts[1].iov_base = const_cast<char *>(payload.data());
    parts[1].iov_len = payload.size();
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = 2;
    size_t left = kHeaderBytes + payload.size();
    while (left > 0) {
        const ssize_t put = ::sendmsg(fd, &message, MSG_NOSIGNAL);
        if (put < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        // A partial write: skip what went out and send the rest.
        left -= size_t(put);
        for (size_t sent = size_t(put); sent > 0;) {
            iovec &part = message.msg_iov[0];
            const size_t step = std::min(sent, part.iov_len);
            part.iov_base = static_cast<char *>(part.iov_base) + step;
            part.iov_len -= step;
            sent -= step;
            if (part.iov_len == 0) {
                ++message.msg_iov;
                --message.msg_iovlen;
            }
        }
    }
    return true;
}

std::string
statusResponse(wire::Status status, const std::string &message)
{
    std::string out;
    out.push_back(char(status));
    appendU32(out, uint32_t(message.size()));
    out += message;
    return out;
}

std::string
okResponse(const std::string &body = {})
{
    std::string out;
    out.push_back(char(wire::kOk));
    out += body;
    return out;
}

void
closeFd(int &fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/** Connect to host:port; returns fd or throws DaemonError. */
int
connectTo(const std::string &host, uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw DaemonError("socket(): " +
                          std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        throw DaemonError("bad daemon host '" + host + "'");
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        throw DaemonError("connect " + host + ":" +
                          std::to_string(port) + ": " + err);
    }
    // Predict frames are tiny request/response pairs; Nagle would
    // add 40ms batching stalls to every loopback round trip.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

/** Checked narrowing for u16 wire length fields: an oversized value
 *  must throw here, not truncate into a desynced frame the daemon
 *  then misparses. */
uint16_t
u16Length(const std::string &value, const char *what)
{
    if (value.size() > 0xffff)
        throw DaemonError(std::string(what) + " too long (" +
                          std::to_string(value.size()) +
                          " bytes; wire limit 65535)");
    return uint16_t(value.size());
}

/** Checked narrowing for u32 wire length fields. */
uint32_t
u32Length(const std::string &value, const char *what)
{
    if (value.size() > 0xffffffffu)
        throw DaemonError(std::string(what) + " too long (" +
                          std::to_string(value.size()) + " bytes)");
    return uint32_t(value.size());
}

} // namespace

// ------------------------------------------------------------ FrameReader

bool
wire::FrameReader::next(int fd, size_t max_frame_bytes,
                        std::string_view &payload)
{
    for (;;) {
        const size_t have = end_ - begin_;
        size_t want = kHeaderBytes;
        if (have >= kHeaderBytes) {
            const uint32_t len = loadU32(buffer_.data() + begin_);
            if (size_t(len) > max_frame_bytes)
                return false;
            want += len;
            if (have >= want) {
                payload = {buffer_.data() + begin_ + kHeaderBytes, len};
                begin_ += want;
                return true;
            }
        }
        // Short of a whole frame: move its start to the front and
        // make room for the rest before asking for more.
        if (begin_ > 0) {
            std::memmove(buffer_.data(), buffer_.data() + begin_, have);
            begin_ = 0;
            end_ = have;
        }
        if (buffer_.size() < std::max(want, kReadChunk))
            buffer_.resize(std::max(want, kReadChunk));
        char *room = buffer_.data() + end_;
        const ssize_t got = ::recv(fd, room, buffer_.size() - end_, 0);
        if (got == 0)
            return false; // orderly EOF
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        end_ += size_t(got);
    }
}

// ---------------------------------------------------------------- Daemon

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)), registry_(config_.registry)
{
    if (obs::enabled()) {
        obs::MetricRegistry &metrics =
            config_.registry.registry
                ? *config_.registry.registry
                : obs::MetricRegistry::global();
        const std::string p =
            config_.registry.metricRoot + ".daemon.";
        connCounter_ = &metrics.counter(p + "connections");
        reqCounter_ = &metrics.counter(p + "requests");
        errCounter_ = &metrics.counter(p + "errors");
    }
}

Daemon::~Daemon() { drain(); }

void
Daemon::start()
{
    fatal_if(listenFd_ >= 0, "Daemon::start() called twice");
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    fatal_if(fd < 0, "difftuned: socket(): {}",
             std::strerror(errno));
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.host.c_str(),
                    &addr.sin_addr) != 1) {
        ::close(fd);
        fatal("difftuned: bad bind host '{}'", config_.host);
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        fatal("difftuned: bind {}:{}: {}", config_.host,
              config_.port, err);
    }
    if (::listen(fd, 128) != 0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        fatal("difftuned: listen: {}", err);
    }

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &bound_len) != 0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        fatal("difftuned: getsockname: {}", err);
    }
    port_ = ntohs(bound.sin_port);
    listenFd_ = fd;
    acceptor_ = std::thread([this] { acceptLoop(); });
}

void
Daemon::acceptLoop()
{
    while (!draining_.load(std::memory_order_acquire)) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            // drain() closed the listener (or it truly broke —
            // either way intake is over).
            break;
        }
        if (draining_.load(std::memory_order_acquire)) {
            ::close(fd);
            break;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        connections_.fetch_add(1, std::memory_order_relaxed);
        if (connCounter_)
            connCounter_->inc();

        std::lock_guard lock(connectionsMutex_);
        reapConnectionsLocked();
        auto connection = std::make_unique<Connection>();
        connection->fd = fd;
        Connection *raw = connection.get();
        connection->thread =
            std::thread([this, raw] { serveConnection(*raw); });
        connections_list_.push_back(std::move(connection));
    }
}

void
Daemon::serveConnection(Connection &connection)
{
    wire::FrameReader reader;
    std::string_view payload;
    while (reader.next(connection.fd, config_.maxFrameBytes,
                       payload)) {
        requests_.fetch_add(1, std::memory_order_relaxed);
        if (reqCounter_)
            reqCounter_->inc();
        const std::string response = handleRequest(payload);
        if (!response.empty() &&
            uint8_t(response[0]) != wire::kOk) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            if (errCounter_)
                errCounter_->inc();
        }
        if (!writeFrame(connection.fd, response))
            break;
    }
    // Send FIN so the peer sees EOF right away, but leave the fd
    // open: it is closed by whoever joins this thread (reap or
    // drain). Closing here would race drain()'s SHUT_RD against a
    // concurrently reused descriptor.
    ::shutdown(connection.fd, SHUT_RDWR);
    connection.done.store(true, std::memory_order_release);
}

std::string
Daemon::handleRequest(std::string_view payload)
{
    Reader reader{payload};
    uint8_t op = 0;
    if (!reader.u8(op))
        return statusResponse(wire::kError, "empty request frame");
    try {
        switch (op) {
        case wire::kPredict:
            return handlePredict(payload);
        case wire::kStatsz: {
            const obs::MetricRegistry &metrics =
                config_.registry.registry
                    ? *config_.registry.registry
                    : obs::MetricRegistry::global();
            const std::string dump = obs::renderStatsz(metrics);
            // Framing budget: status byte + u32 length + dump must
            // fit one frame, or the client's reader rejects the
            // oversized response and the connection desyncs with a
            // misleading "short read". Degrade to a clear error.
            if (dump.size() + 5 > config_.maxFrameBytes)
                return statusResponse(
                    wire::kError,
                    "statsz dump (" + std::to_string(dump.size()) +
                        " bytes) exceeds the frame limit (" +
                        std::to_string(config_.maxFrameBytes) +
                        " bytes)");
            std::string body;
            appendU32(body, uint32_t(dump.size()));
            body += dump;
            return okResponse(body);
        }
        case wire::kLoad:
            return handleLoad(payload);
        case wire::kList: {
            const std::vector<std::string> names =
                registry_.names();
            std::string body;
            appendU32(body, uint32_t(names.size()));
            for (const std::string &name : names) {
                // Names loaded over the wire are u16-bounded, but
                // in-process registry().load() takes any length —
                // never narrow one silently into a desynced frame.
                if (name.size() > 0xffff)
                    return statusResponse(
                        wire::kError,
                        "model name too long for list response (" +
                            std::to_string(name.size()) + " bytes)");
                appendU16(body, uint16_t(name.size()));
                body += name;
            }
            return okResponse(body);
        }
        case wire::kPing:
            return okResponse();
        default:
            return statusResponse(
                wire::kError,
                "unknown opcode " + std::to_string(int(op)));
        }
    } catch (const EngineStoppedError &e) {
        return statusResponse(wire::kDraining, e.what());
    } catch (const std::exception &e) {
        return statusResponse(wire::kError,
                              stripErrorPrefix(e.what()));
    }
}

std::string
Daemon::handlePredict(std::string_view payload)
{
    Reader reader{payload};
    uint8_t op = 0;
    uint16_t name_len = 0;
    uint32_t text_len = 0;
    std::string name, text;
    if (!reader.u8(op) || !reader.u16(name_len) ||
        !reader.bytes(name_len, name) || !reader.u32(text_len) ||
        !reader.bytes(text_len, text))
        return statusResponse(wire::kError,
                              "malformed predict frame");
    // acquire() pins the engine for the whole call: a concurrent
    // hot-swap retires the map entry but this shared_ptr keeps the
    // old engine (and its WeightSnapshot) alive until the future
    // resolves — the zero-downtime contract.
    const std::shared_ptr<AsyncEngine> engine =
        registry_.acquire(name);
    const double prediction = engine->submit(std::move(text)).get();
    std::string body;
    appendF64(body, prediction);
    return okResponse(body);
}

std::string
Daemon::handleLoad(std::string_view payload)
{
    Reader reader{payload};
    uint8_t op = 0;
    uint16_t name_len = 0;
    uint32_t path_len = 0;
    std::string name, path;
    if (!reader.u8(op) || !reader.u16(name_len) ||
        !reader.bytes(name_len, name) || !reader.u32(path_len) ||
        !reader.bytes(path_len, path))
        return statusResponse(wire::kError,
                              "malformed load frame");
    registry_.loadFromFile(name, path);
    return okResponse();
}

void
Daemon::reapConnectionsLocked()
{
    // One pass, one doneness read per connection. Re-testing the
    // atomic in a second (remove_if) pass would let a thread that
    // finished *between* the passes be erased unjoined — destroying
    // a joinable std::thread calls std::terminate and leaks its fd.
    size_t kept = 0;
    for (auto &connection : connections_list_) {
        if (connection->done.load(std::memory_order_acquire)) {
            if (connection->thread.joinable())
                connection->thread.join();
            closeFd(connection->fd);
        } else {
            connections_list_[kept++] = std::move(connection);
        }
    }
    connections_list_.resize(kept);
}

void
Daemon::drain()
{
    std::lock_guard drain_lock(drainMutex_);
    if (draining_.exchange(true, std::memory_order_acq_rel))
        return;

    // 1. Stop intake. shutdown() wakes the blocked accept() (on
    //    Linux, merely close()ing the fd leaves that thread blocked
    //    forever); only then is the fd safe to close.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptor_.joinable())
        acceptor_.join();
    closeFd(listenFd_);

    // 2. Close every connection's *read* side only. Its reader
    //    still hands out the frames it already holds, then sees EOF;
    //    a request already being handled still computes and writes
    //    its response — nothing accepted is dropped.
    {
        std::lock_guard lock(connectionsMutex_);
        for (const auto &connection : connections_list_)
            if (connection->fd >= 0)
                ::shutdown(connection->fd, SHUT_RD);
    }

    // 3. Join the connection threads (no new ones can appear: the
    //    acceptor is gone).
    std::vector<std::unique_ptr<Connection>> finished;
    {
        std::lock_guard lock(connectionsMutex_);
        finished.swap(connections_list_);
    }
    for (const auto &connection : finished) {
        if (connection->thread.joinable())
            connection->thread.join();
        closeFd(connection->fd);
    }

    // 4. Drain the registry: every engine stops intake and settles
    //    all pending futures.
    registry_.drain();
}

// ---------------------------------------------------------- DaemonClient

DaemonClient::DaemonClient(const std::string &host, uint16_t port)
    : fd_(connectTo(host, port))
{
}

DaemonClient::DaemonClient(uint16_t port)
    : DaemonClient("127.0.0.1", port)
{
}

DaemonClient::~DaemonClient() { closeFd(fd_); }

DaemonClient::DaemonClient(DaemonClient &&other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      reader_(std::exchange(other.reader_, {}))
{
}

DaemonClient &
DaemonClient::operator=(DaemonClient &&other) noexcept
{
    if (this != &other) {
        closeFd(fd_);
        fd_ = std::exchange(other.fd_, -1);
        reader_ = std::exchange(other.reader_, {});
    }
    return *this;
}

std::string
DaemonClient::roundTrip(const std::string &payload)
{
    if (fd_ < 0)
        throw DaemonError("client connection is closed");
    if (!writeFrame(fd_, payload))
        throw DaemonError("short write (daemon closed?)");
    std::string_view response;
    if (!reader_.next(fd_, wire::kDefaultMaxFrameBytes, response))
        throw DaemonError("short read (daemon closed?)");
    Reader reader{response};
    uint8_t status = 0;
    if (!reader.u8(status))
        throw DaemonError("empty response frame");
    if (status == wire::kOk)
        return std::string(response.substr(1));
    uint32_t msg_len = 0;
    std::string message;
    if (!reader.u32(msg_len) || !reader.bytes(msg_len, message))
        message = "malformed error response";
    throw DaemonError("daemon: " + message,
                      status == wire::kDraining);
}

double
DaemonClient::predict(const std::string &model,
                      const std::string &block_text)
{
    std::string payload;
    payload.push_back(char(wire::kPredict));
    appendU16(payload, u16Length(model, "model name"));
    payload += model;
    appendU32(payload, u32Length(block_text, "block text"));
    payload += block_text;
    const std::string body = roundTrip(payload);
    Reader reader{body};
    double prediction = 0.0;
    if (!reader.f64(prediction))
        throw DaemonError("malformed predict response");
    return prediction;
}

std::string
DaemonClient::statsz()
{
    std::string payload;
    payload.push_back(char(wire::kStatsz));
    const std::string body = roundTrip(payload);
    Reader reader{body};
    uint32_t len = 0;
    std::string dump;
    if (!reader.u32(len) || !reader.bytes(len, dump))
        throw DaemonError("malformed statsz response");
    return dump;
}

void
DaemonClient::load(const std::string &model,
                   const std::string &path)
{
    std::string payload;
    payload.push_back(char(wire::kLoad));
    appendU16(payload, u16Length(model, "model name"));
    payload += model;
    appendU32(payload, u32Length(path, "checkpoint path"));
    payload += path;
    roundTrip(payload);
}

std::vector<std::string>
DaemonClient::models()
{
    std::string payload;
    payload.push_back(char(wire::kList));
    const std::string body = roundTrip(payload);
    Reader reader{body};
    uint32_t count = 0;
    if (!reader.u32(count))
        throw DaemonError("malformed list response");
    std::vector<std::string> names;
    names.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
        uint16_t len = 0;
        std::string name;
        if (!reader.u16(len) || !reader.bytes(len, name))
            throw DaemonError("malformed list response");
        names.push_back(std::move(name));
    }
    return names;
}

void
DaemonClient::ping()
{
    std::string payload;
    payload.push_back(char(wire::kPing));
    roundTrip(payload);
}

} // namespace difftune::serve
