/**
 * @file
 * Unix-socket front-end: the scamvd serve loop and the scamv-submit
 * client.
 *
 * One thread per connection, frames decoded incrementally with
 * `decodeFrame`.  The failure discipline mirrors the artifact
 * codecs: a damaged frame (bad length prefix, bad checksum) closes
 * that connection — counted `svc.rpc_bad_frames` — and never
 * disturbs the daemon or other connections.  The serve loop polls
 * its listening socket with a short timeout so a SIGTERM-driven stop
 * flag is honored promptly; DRAIN drains the service inline, replies
 * OK, then raises the same stop flag (the scamvd runbook's graceful
 * shutdown, OPERATIONS.md).
 */

#include "svc/svc.hh"

#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/textcodec.hh"

namespace scamv::svc {

namespace {

bool
sendAll(int fd, const std::string &bytes)
{
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::send(fd, bytes.data() + off, bytes.size() - off,
#ifdef MSG_NOSIGNAL
                   MSG_NOSIGNAL
#else
                   0
#endif
            );
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendFrame(int fd, const Frame &frame)
{
    return sendAll(fd, encodeFrame(frame));
}

/**
 * Receive one frame.  Polls so the stop flag can interrupt an idle
 * connection.  @return nullopt on EOF, damage or stop.
 */
std::optional<Frame>
recvFrame(int fd, std::string &buf, const std::atomic<bool> &stop)
{
    for (;;) {
        Frame frame;
        std::size_t consumed = 0;
        const FrameStatus st = decodeFrame(buf, frame, consumed);
        if (st == FrameStatus::Ok) {
            buf.erase(0, consumed);
            return frame;
        }
        if (st == FrameStatus::Bad) {
            metrics::Registry::global()
                .counter("svc.rpc_bad_frames")
                .inc();
            return std::nullopt;
        }
        struct pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 200);
        if (stop.load(std::memory_order_relaxed))
            return std::nullopt;
        if (pr < 0)
            return std::nullopt;
        if (pr == 0)
            continue;
        char chunk[4096];
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            return std::nullopt;
        buf.append(chunk, static_cast<std::size_t>(n));
    }
}

Frame
okFrame(std::vector<std::string> args)
{
    return Frame{"OK", std::move(args)};
}

Frame
errFrame(const std::string &msg)
{
    return Frame{"ERR", {msg}};
}

std::vector<std::string>
statusArgs(std::uint64_t id, const SubmissionStatus &st)
{
    return {std::to_string(id),
            stateName(st.state),
            std::to_string(st.programsDone),
            std::to_string(st.programsTotal),
            std::to_string(st.counterexamples),
            std::to_string(st.coveredClasses),
            std::to_string(st.findings),
            st.dir};
}

/**
 * Stream PROGRESS frames for one submission until it is terminal,
 * then a final DONE frame.  Polled at 50ms; a frame goes out only
 * when the visible state advances, so an idle queue position costs
 * no traffic.
 */
bool
streamWatch(int fd, Service &service, std::uint64_t id,
            const std::atomic<bool> &stop)
{
    int last_done = -1;
    std::string last_state;
    for (;;) {
        const std::optional<SubmissionStatus> st = service.status(id);
        if (!st)
            return sendFrame(fd, errFrame("unknown submission id"));
        const bool terminal =
            st->state == SubmissionState::Done ||
            st->state == SubmissionState::Failed;
        if (terminal) {
            Frame done{"DONE", statusArgs(id, *st)};
            if (!st->error.empty())
                done.args.push_back(st->error);
            return sendFrame(fd, done);
        }
        if (st->programsDone != last_done ||
            stateName(st->state) != last_state) {
            last_done = st->programsDone;
            last_state = stateName(st->state);
            if (!sendFrame(fd,
                           Frame{"PROGRESS", statusArgs(id, *st)}))
                return false;
        }
        if (stop.load(std::memory_order_relaxed))
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

void
handleConnection(int fd, Service &service, std::atomic<bool> &stop)
{
    std::string buf;
    for (;;) {
        const std::optional<Frame> req = recvFrame(fd, buf, stop);
        if (!req)
            break;
        if (req->type == "HELLO") {
            if (req->args.size() != 1 ||
                req->args[0] != kRpcVersion) {
                sendFrame(fd, errFrame("protocol mismatch"));
                break;
            }
            if (!sendFrame(fd, okFrame({kRpcVersion})))
                break;
        } else if (req->type == "PING") {
            if (!sendFrame(fd, okFrame({"pong"})))
                break;
        } else if (req->type == "SUBMIT") {
            std::string err;
            const std::optional<SubmissionSpec> spec =
                specFromArgs(req->args, err);
            if (!spec) {
                if (!sendFrame(fd, errFrame(err)))
                    break;
                continue;
            }
            const SubmitResult res = service.submit(*spec);
            if (!res.accepted) {
                if (!sendFrame(fd, errFrame(res.error)))
                    break;
                continue;
            }
            if (!sendFrame(fd,
                           okFrame({std::to_string(res.id)})))
                break;
        } else if (req->type == "STATUS" &&
                   req->args.size() == 1) {
            std::uint64_t id = 0; // 0: never a valid id
            text::parseNum(req->args[0], id);
            const std::optional<SubmissionStatus> st =
                service.status(id);
            if (!st) {
                if (!sendFrame(fd,
                               errFrame("unknown submission id")))
                    break;
                continue;
            }
            if (!sendFrame(fd, okFrame(statusArgs(id, *st))))
                break;
        } else if (req->type == "WATCH" && req->args.size() == 1) {
            std::uint64_t id = 0; // 0: never a valid id
            text::parseNum(req->args[0], id);
            if (!streamWatch(fd, service, id, stop))
                break;
        } else if (req->type == "DRAIN") {
            service.drain();
            sendFrame(fd, okFrame({"drained"}));
            stop.store(true, std::memory_order_relaxed);
            break;
        } else {
            if (!sendFrame(fd, errFrame("unknown request '" +
                                        req->type + "'")))
                break;
        }
    }
    ::close(fd);
}

} // namespace

bool
serveLoop(Service &service, const std::string &socket_path,
          std::atomic<bool> &stop)
{
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener < 0) {
        warn("svc: cannot create socket");
        return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
        warn("svc: socket path too long: " + socket_path);
        ::close(listener);
        return false;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);
    ::unlink(socket_path.c_str());
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listener, 64) != 0) {
        warn("svc: cannot bind/listen on " + socket_path);
        ::close(listener);
        return false;
    }
    inform("scamvd: serving on " + socket_path);

    std::vector<std::thread> handlers;
    while (!stop.load(std::memory_order_relaxed)) {
        struct pollfd pfd{listener, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 200);
        if (pr <= 0)
            continue;
        const int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0)
            continue;
        metrics::Registry::global()
            .counter("svc.connections")
            .inc();
        handlers.emplace_back([fd, &service, &stop] {
            handleConnection(fd, service, stop);
        });
    }
    ::close(listener);
    ::unlink(socket_path.c_str());
    for (std::thread &t : handlers)
        t.join();
    return true;
}

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    buf.clear();
}

bool
Client::connectTo(const std::string &socket_path)
{
    close();
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path) {
        close();
        return false;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        close();
        return false;
    }
    const std::optional<Frame> hello =
        call(Frame{"HELLO", {kRpcVersion}});
    if (!hello || hello->type != "OK") {
        close();
        return false;
    }
    return true;
}

bool
Client::send(const Frame &frame)
{
    return fd >= 0 && sendFrame(fd, frame);
}

std::optional<Frame>
Client::recv()
{
    if (fd < 0)
        return std::nullopt;
    for (;;) {
        Frame frame;
        std::size_t consumed = 0;
        const FrameStatus st = decodeFrame(buf, frame, consumed);
        if (st == FrameStatus::Ok) {
            buf.erase(0, consumed);
            return frame;
        }
        if (st == FrameStatus::Bad)
            return std::nullopt;
        char chunk[4096];
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            return std::nullopt;
        buf.append(chunk, static_cast<std::size_t>(n));
    }
}

std::optional<Frame>
Client::call(const Frame &frame)
{
    if (!send(frame))
        return std::nullopt;
    return recv();
}

} // namespace scamv::svc
