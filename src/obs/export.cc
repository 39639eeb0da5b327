#include "src/obs/export.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace bft {

std::string MetricsAndTracesJson(const MetricsRegistry& registry, const RequestTracer* tracer) {
  std::string out = "{\n\"metrics\": " + registry.RenderJson();
  if (tracer != nullptr) {
    out += ",\n\"traces\": " + tracer->RenderJson();
  }
  out += "}\n";
  return out;
}

bool WriteMetricsJson(const std::string& path, const MetricsRegistry& registry,
                      const RequestTracer* tracer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WriteMetricsJson: cannot write %s\n", path.c_str());
    return false;
  }
  std::string body = MetricsAndTracesJson(registry, tracer);
  size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return written == body.size();
}

AdminServer::~AdminServer() { Stop(); }

bool AdminServer::Listen(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::perror("AdminServer: socket");
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 8) < 0) {
    std::perror("AdminServer: bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  running_.store(true);
  thread_ = std::thread([this]() { Serve(); });
  return true;
}

void AdminServer::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // shutdown unblocks the accept; the fd is closed and reset only once Serve has returned,
  // since Serve reads it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) {
    thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void AdminServer::Serve() {
  while (running_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // listener closed (Stop) or terminal error
    }
    // A client that connects and never finishes its request line must not wedge the accept
    // thread: cap the wait (SO_RCVTIMEO) and the line length, then answer with an error so
    // the next connection gets served.
    timeval deadline{};
    deadline.tv_sec = read_timeout_ms_ / 1000;
    deadline.tv_usec = (read_timeout_ms_ % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof(deadline));
    char req[4096];
    size_t have = 0;
    bool line_complete = false;
    bool timed_out = false;
    while (have < sizeof(req) - 1) {
      ssize_t n = ::recv(fd, req + have, sizeof(req) - 1 - have, 0);
      if (n <= 0) {
        timed_out = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
        break;  // peer closed mid-request, deadline hit, or error
      }
      have += static_cast<size_t>(n);
      req[have] = '\0';
      if (std::strchr(req, '\n') != nullptr) {
        line_complete = true;
        break;
      }
    }
    req[have] = '\0';
    if (!line_complete && have == 0 && !timed_out) {
      ::close(fd);  // peer hung up without sending anything; nobody to answer
      continue;
    }
    std::string body;
    const char* content_type = "text/plain; charset=utf-8";
    const char* status = "200 OK";
    if (!line_complete) {
      status = timed_out ? "408 Request Timeout" : "400 Bad Request";
      body = "request line never completed\n";
    } else if (std::strncmp(req, "GET /metrics.json", 17) == 0) {
      body = MetricsAndTracesJson(*registry_, tracer_);
      content_type = "application/json";
    } else if (std::strncmp(req, "GET /metrics", 12) == 0) {
      body = registry_->RenderPrometheusText();
      content_type = "text/plain; version=0.0.4; charset=utf-8";
    } else if (std::strncmp(req, "GET /traces", 11) == 0 && tracer_ != nullptr) {
      body = tracer_->RenderJson();
      content_type = "application/json";
    } else if (std::strncmp(req, "GET /healthz", 12) == 0 && health_source_) {
      body = RenderHealthJson(health_source_());
      content_type = "application/json";
    } else {
      status = "404 Not Found";
      body = "not found; try /metrics, /metrics.json, /traces, /healthz\n";
    }
    char header[256];
    int hlen = std::snprintf(header, sizeof(header),
                             "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
                             "Connection: close\r\n\r\n",
                             status, content_type, body.size());
    // Best-effort: a scraper that hung up early is its own problem.
    (void)!::send(fd, header, static_cast<size_t>(hlen), MSG_NOSIGNAL);
    (void)!::send(fd, body.data(), body.size(), MSG_NOSIGNAL);
    ::close(fd);
  }
}

}  // namespace bft
