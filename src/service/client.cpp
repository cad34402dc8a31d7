#include "src/service/client.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/service/frame.hpp"

namespace sap::service {
namespace {

void set_socket_timeout(int fd, int option, std::int64_t ms) {
  if (ms <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  (void)::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv));
}

/// connect(2) with a deadline: flip the socket non-blocking, start the
/// connect, poll for writability, then read SO_ERROR for the real outcome.
/// Returns 0 on success, the failing errno otherwise.
int connect_with_timeout(int fd, const sockaddr* addr, socklen_t addrlen,
                         std::int64_t timeout_ms) {
  if (timeout_ms <= 0) {
    return ::connect(fd, addr, addrlen) == 0 ? 0 : errno;
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno;
  }
  int result = 0;
  if (::connect(fd, addr, addrlen) != 0) {
    if (errno != EINPROGRESS) {
      result = errno;
    } else {
      pollfd pfd{.fd = fd, .events = POLLOUT, .revents = 0};
      int rc;
      do {
        rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      } while (rc < 0 && errno == EINTR);
      if (rc == 0) {
        result = ETIMEDOUT;
      } else if (rc < 0) {
        result = errno;
      } else {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) {
          result = errno;
        } else {
          result = so_error;
        }
      }
    }
  }
  // Restore blocking mode; the frame layer expects blocking I/O.
  (void)::fcntl(fd, F_SETFL, flags);
  return result;
}

}  // namespace

struct Client::Reply {
  bool is_error = false;
  std::string payload;        ///< expected-type payload when !is_error
  ErrorResponse error;        ///< valid when is_error
  bool local_timeout = false; ///< error came from this client's own timeout
};

Client::Client(ClientOptions options) : options_(options) {}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : options_(other.options_),
      fd_(std::exchange(other.fd_, -1)),
      last_host_(std::move(other.last_host_)),
      last_port_(other.last_port_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    options_ = other.options_;
    fd_ = std::exchange(other.fd_, -1);
    last_host_ = std::move(other.last_host_);
    last_port_ = other.last_port_;
  }
  return *this;
}

void Client::apply_io_timeouts() {
  set_socket_timeout(fd_, SO_RCVTIMEO, options_.read_timeout_ms);
  set_socket_timeout(fd_, SO_SNDTIMEO, options_.write_timeout_ms);
}

void Client::connect(const std::string& host, std::uint16_t port) {
  close();
  std::signal(SIGPIPE, SIG_IGN);

  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* results = nullptr;
  const std::string port_text = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_text.c_str(), &hints,
                               &results);
  if (rc != 0) {
    throw std::runtime_error("sapd client: cannot resolve " + host + ": " +
                             ::gai_strerror(rc));
  }

  int last_errno = 0;
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    const int err = connect_with_timeout(fd, ai->ai_addr, ai->ai_addrlen,
                                         options_.connect_timeout_ms);
    if (err == 0) {
      fd_ = fd;
      break;
    }
    last_errno = err;
    ::close(fd);
  }
  ::freeaddrinfo(results);
  if (fd_ < 0) {
    throw std::runtime_error("sapd client: cannot connect to " + host + ":" +
                             port_text + ": " +
                             std::string(std::strerror(last_errno)));
  }
  // The frame layer writes header and payload as separate write(2)s; with
  // Nagle on, the payload would stall behind the peer's delayed ACK (~40ms
  // per request on loopback), dwarfing a cached solve.
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  apply_io_timeouts();
  last_host_ = host;
  last_port_ = port;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Client::Reply Client::round_trip(FrameType type, const std::string& payload,
                                 FrameType expected) {
  if (fd_ < 0) throw std::runtime_error("sapd client: not connected");
  const WriteStatus sent = write_frame_status(fd_, type, payload);
  if (sent != WriteStatus::kOk) {
    // A partial frame may be on the wire either way: poison the connection.
    close();
    if (sent == WriteStatus::kTimedOut) {
      Reply reply;
      reply.is_error = true;
      reply.local_timeout = true;
      reply.error = {ErrorCode::kDeadlineExceeded,
                     "client write timed out after " +
                         std::to_string(options_.write_timeout_ms) + " ms"};
      return reply;
    }
    throw std::runtime_error("sapd client: send failed (connection lost)");
  }
  Frame frame;
  const ReadStatus status = read_frame(fd_, &frame);
  if (status != ReadStatus::kOk) {
    // Even on a read timeout the response may arrive later and desync the
    // stream, so the connection is poisoned in every non-kOk branch.
    close();
    if (status == ReadStatus::kTimedOut) {
      Reply reply;
      reply.is_error = true;
      reply.local_timeout = true;
      reply.error = {ErrorCode::kDeadlineExceeded,
                     "client read timed out after " +
                         std::to_string(options_.read_timeout_ms) + " ms"};
      return reply;
    }
    throw std::runtime_error(std::string("sapd client: receive failed (") +
                             read_status_name(status) + ")");
  }
  Reply reply;
  if (static_cast<FrameType>(frame.type) == FrameType::kErrorResponse) {
    reply.is_error = true;
    reply.error = parse_error_response(frame.payload);
    return reply;
  }
  if (static_cast<FrameType>(frame.type) != expected) {
    close();
    throw std::runtime_error("sapd client: unexpected response frame type " +
                             std::to_string(frame.type));
  }
  reply.payload = std::move(frame.payload);
  return reply;
}

Client::SolveOutcome Client::solve(const SolveRequest& request) {
  Reply reply = round_trip(FrameType::kSolveRequest,
                           encode_solve_request(request),
                           FrameType::kSolveResponse);
  SolveOutcome outcome;
  if (reply.is_error) {
    outcome.error_code = reply.error.code;
    outcome.error_message = std::move(reply.error.message);
    outcome.local_timeout = reply.local_timeout;
  } else {
    outcome.ok = true;
    outcome.response = parse_solve_response(reply.payload);
  }
  return outcome;
}

std::int64_t Client::backoff_ms(const RetryPolicy& policy, int attempt,
                                Rng& rng) {
  double base = static_cast<double>(policy.initial_backoff_ms);
  for (int k = 1; k < attempt; ++k) base *= policy.growth;
  base = std::min(base, static_cast<double>(policy.max_backoff_ms));
  // Equal jitter: uniform in [base/2, base). Deterministic given the rng
  // state, so a fixed seed reproduces the whole schedule.
  const double jittered = base / 2.0 + rng.uniform01() * (base / 2.0);
  return std::max<std::int64_t>(0, static_cast<std::int64_t>(jittered));
}

Client::SolveOutcome Client::solve_with_retry(const SolveRequest& request) {
  if (last_host_.empty()) {
    throw std::runtime_error("sapd client: solve_with_retry before connect");
  }
  Rng rng(options_.retry.seed);
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  SolveOutcome outcome;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    bool transport_failure = false;
    std::string transport_message;
    try {
      if (!connected()) connect(last_host_, last_port_);
      outcome = solve(request);
    } catch (const std::runtime_error& error) {
      transport_failure = true;
      transport_message = error.what();
    }
    if (!transport_failure) {
      // OVERLOADED is the only transient server rejection: the queue was
      // full at admission time, nothing was solved. Everything else —
      // including DEADLINE_EXCEEDED (server-side or local) — reflects the
      // request itself and will not improve on replay.
      const bool retryable =
          !outcome.ok && outcome.error_code == ErrorCode::kOverloaded;
      if (!retryable) {
        outcome.attempts = attempt;
        return outcome;
      }
    }
    if (attempt == max_attempts) {
      if (transport_failure) {
        throw std::runtime_error("sapd client: " + transport_message +
                                 " (after " + std::to_string(attempt) +
                                 " attempts)");
      }
      outcome.attempts = attempt;
      return outcome;
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(backoff_ms(options_.retry, attempt, rng)));
  }
  outcome.attempts = max_attempts;
  return outcome;  // unreachable; loop always returns or throws
}

std::string Client::stats_json() {
  Reply reply =
      round_trip(FrameType::kStatsRequest, "", FrameType::kStatsResponse);
  if (reply.is_error) {
    throw std::runtime_error(
        std::string("sapd client: stats rejected: ") +
        error_code_name(reply.error.code) + ": " + reply.error.message);
  }
  return reply.payload;
}

}  // namespace sap::service
