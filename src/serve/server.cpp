#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "data/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"

namespace dg::serve {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("serve: " + what + ": " + std::strerror(errno));
}

// Full-line reader over a raw fd. `should_continue` is polled on receive
// timeouts (SO_RCVTIMEO) so a blocked connection notices server shutdown.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  LineReader(int fd, std::string carry) : fd_(fd), buf_(std::move(carry)) {}

  template <typename KeepGoing>
  bool next(std::string& line, KeepGoing should_continue) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        if (!should_continue()) return false;
        continue;
      }
      if (n <= 0) {
        if (buf_.empty()) return false;
        line = std::exchange(buf_, {});
        return true;
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool next(std::string& line) {
    return next(line, [] { return true; });
  }

  std::string take_buffer() { return std::exchange(buf_, {}); }

 private:
  int fd_;
  std::string buf_;
};

void set_recv_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

json::Value error_value(const std::string& what, const char* code) {
  json::Value v{json::Object{}};
  v.set("ok", false);
  v.set("error", what);
  v.set("code", code);
  return v;
}

int connect_to(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) sys_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("serve: bad host address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("serve: connect: ") +
                             std::strerror(err));
  }
  return fd;
}

}  // namespace

LineHandler service_handler(GenerationService& service) {
  return [&service](const std::string& line) -> std::string {
    try {
      const json::Value req = json::parse(line);
      const std::string op = req.string_or("op", "generate");
      if (op == "stats") {
        return json::dump(stats_to_json(service.stats()));
      }
      if (op == "metrics") {
        // Registry snapshots are already JSON objects; splice them in as-is.
        // "service" is this GenerationService's private registry, "process"
        // the global one (anomaly counters, co-resident training gauges).
        return "{\"ok\":true,\"service\":" + service.metrics_json() +
               ",\"process\":" +
               obs::to_json(obs::Registry::global().snapshot()) + "}";
      }
      if (op == "clock") {
        // Epoch-offset handshake: the caller pairs this process's trace
        // timebase reading with its own send/receive timestamps to bound
        // the offset between the two steady_clock epochs.
        json::Value v{json::Object{}};
        v.set("ok", true);
        v.set("steady_us", obs::Trace::now_us());
        return json::dump(v);
      }
      if (op == "trace") {
        // Drains (moves out) the span ring; the epoch is left alone so
        // successive drains share one timebase.
        json::Value v{json::Object{}};
        v.set("ok", true);
        v.set("steady_us", obs::Trace::now_us());
        v.set("enabled", obs::Trace::enabled());
        v.set("dropped", obs::Trace::dropped());
        v.set("events", trace_events_to_json(obs::Trace::drain()));
        return json::dump(v);
      }
      if (op == "schema") {
        std::ostringstream os;
        data::save_schema(os, service.schema());
        json::Value v{json::Object{}};
        v.set("ok", true);
        v.set("schema", os.str());
        return json::dump(v);
      }
      if (op == "generate") {
        GenResponse resp = service.submit(request_from_json(req)).get();
        std::string reply;
        append_response(reply, resp, service.schema());
        return reply;
      }
      return json::dump(
          error_value("unknown op '" + op + "'", error_code::kBadRequest));
    } catch (const std::exception& e) {
      return json::dump(error_value(e.what(), error_code::kBadRequest));
    }
  };
}

TcpServer::TcpServer(LineHandler handler, int port)
    : handler_(std::move(handler)) {
  if (!handler_) throw std::invalid_argument("serve: null line handler");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) sys_fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    sys_fail("bind");
  }
  if (::listen(listen_fd_, 64) < 0) sys_fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    sys_fail("getsockname");
  }
  port_ = static_cast<int>(ntohs(addr.sin_port));
}

TcpServer::TcpServer(GenerationService& service, int port)
    : TcpServer(service_handler(service), port) {}

TcpServer::~TcpServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void TcpServer::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  acceptor_ = std::thread([this] { accept_loop(); });
}

void TcpServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock accept() by shutting the listening socket down; keep the fd so
  // the bound port stays reserved until destruction.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::thread> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
    finished_.clear();
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
}

void TcpServer::reap_finished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (const std::thread::id id : finished_) {
    const auto it =
        std::find_if(conns_.begin(), conns_.end(),
                     [id](const std::thread& t) { return t.get_id() == id; });
    if (it == conns_.end()) continue;  // already swapped out by stop()
    it->join();
    conns_.erase(it);
  }
  finished_.clear();
}

void TcpServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) return;
      // A dead listening socket can never accept again — spinning on it
      // would burn a core until stop(). EINTR and transient per-connection
      // errors (ECONNABORTED) are the only retryable cases.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    reap_finished();
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void TcpServer::connection_loop(int fd) {
  set_recv_timeout(fd, 200);
  LineReader reader(fd);
  const auto alive = [this] {
    return running_.load(std::memory_order_acquire);
  };
  std::string line;
  while (alive() && reader.next(line, alive)) {
    if (line.empty()) continue;
    std::string reply = handler_(line);
    reply += '\n';
    if (!send_all(fd, reply)) break;
  }
  ::close(fd);
  std::lock_guard<std::mutex> lock(conns_mu_);
  finished_.push_back(std::this_thread::get_id());
}

TcpClient::TcpClient(const std::string& host, int port)
    : fd_(connect_to(host, port)) {}

TcpClient::~TcpClient() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpClient::set_recv_timeout_ms(int ms) { set_recv_timeout(fd_, ms); }

std::string TcpClient::call(const std::string& line) {
  if (!send_all(fd_, line + "\n")) {
    throw std::runtime_error("serve: client send failed");
  }
  // Re-seed the reader with bytes buffered past the previous reply (a
  // pipelined peer may have sent ahead); carry the remainder back out for
  // the next call.
  LineReader reader(fd_, std::move(buf_));
  std::string reply;
  const bool got = reader.next(reply, [] { return false; });
  buf_ = reader.take_buffer();
  if (!got) {
    throw std::runtime_error("serve: connection closed without reply");
  }
  return reply;
}

std::string send_line(const std::string& host, int port,
                      const std::string& line) {
  const int fd = connect_to(host, port);
  if (!send_all(fd, line + "\n")) {
    ::close(fd);
    throw std::runtime_error("serve: send failed");
  }
  ::shutdown(fd, SHUT_WR);
  LineReader reader(fd);
  std::string reply;
  const bool got = reader.next(reply);
  ::close(fd);
  if (!got) throw std::runtime_error("serve: connection closed without reply");
  return reply;
}

}  // namespace dg::serve
