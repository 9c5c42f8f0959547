#include "obs/http_exposer.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <string_view>

#include "net/socket_util.hpp"

namespace match::obs {
namespace {

void write_all(int fd, std::string_view data) {
  // Best-effort: a client that went away mid-response is its problem.
  (void)net::send_all(fd, data.data(), data.size());
}

std::string make_response(int status, const char* reason,
                          const char* content_type, std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out.push_back(' ');
  out += reason;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

HttpExposer::HttpExposer(Renderer render_metrics, Options options)
    : render_metrics_(std::move(render_metrics)) {
  if (!render_metrics_) {
    throw std::invalid_argument("HttpExposer: null renderer");
  }
  net::ListenerOptions listener;
  listener.bind_address = options.bind_address;
  listener.port = options.port;
  listener.backlog = 16;
  try {
    listen_fd_ = net::open_listener(listener);
    port_ = net::bound_port(listen_fd_);
  } catch (const std::exception& e) {
    net::close_fd(listen_fd_);
    throw std::runtime_error(std::string("HttpExposer: ") + e.what());
  }
  thread_ = std::thread([this] { serve(); });
}

HttpExposer::~HttpExposer() { stop(); }

void HttpExposer::stop() {
  if (!stopping_.exchange(true)) {
    // shutdown() wakes the blocking accept(); the serve loop then sees
    // stopping_ and exits.
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
  net::close_fd(listen_fd_);
}

std::uint64_t HttpExposer::requests_served() const {
  return requests_.load(std::memory_order_relaxed);
}

void HttpExposer::add_route(std::string path, Renderer render,
                            std::string content_type) {
  if (!render) {
    throw std::invalid_argument("HttpExposer::add_route: null renderer");
  }
  if (path.empty() || path.front() != '/') {
    throw std::invalid_argument(
        "HttpExposer::add_route: path must start with '/'");
  }
  if (path == "/metrics" || path == "/healthz") {
    throw std::invalid_argument(
        "HttpExposer::add_route: cannot shadow a built-in route");
  }
  std::lock_guard<std::mutex> lock(routes_mutex_);
  routes_[std::move(path)] =
      Route{std::move(render), std::move(content_type)};
}

void HttpExposer::serve() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int client = net::accept_retry(listen_fd_);
    if (client < 0) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      // Transient accept failure (e.g. EMFILE); keep listening.
      continue;
    }
    const std::string response = respond(client);
    // Booked before the response goes out: a client that has read its
    // answer must already see itself counted.
    requests_.fetch_add(1, std::memory_order_relaxed);
    write_all(client, response);
    ::close(client);
  }
}

std::string HttpExposer::respond(int client_fd) {
  // A slow or stuck client must not wedge the single accept thread.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(client_fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  // Read until the end of the request head; the routes take no bodies,
  // so everything past the blank line is ignored.
  std::string request;
  char buf[2048];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < 16 * 1024) {
    const ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<std::size_t>(n));
  }

  const std::size_t line_end = request.find("\r\n");
  const std::string_view request_line =
      std::string_view(request).substr(0, line_end);
  const std::size_t method_end = request_line.find(' ');
  if (method_end == std::string_view::npos) {
    return make_response(400, "Bad Request", "text/plain", "bad request\n");
  }
  const std::string_view method = request_line.substr(0, method_end);
  std::string_view target = request_line.substr(method_end + 1);
  target = target.substr(0, target.find(' '));
  target = target.substr(0, target.find('?'));  // ignore query strings

  if (method != "GET" && method != "HEAD") {
    return make_response(405, "Method Not Allowed", "text/plain",
                         "only GET is served here\n");
  }

  std::string response;
  if (target == "/metrics") {
    try {
      response = make_response(200, "OK", "text/plain; version=0.0.4",
                               render_metrics_());
    } catch (...) {
      response = make_response(500, "Internal Server Error", "text/plain",
                               "metrics renderer failed\n");
    }
  } else if (target == "/healthz") {
    response = make_response(200, "OK", "text/plain", "ok\n");
  } else {
    Route route;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(routes_mutex_);
      const auto it = routes_.find(std::string(target));
      if (it != routes_.end()) {
        route = it->second;  // copy: render outside the lock
        found = true;
      }
    }
    if (found) {
      try {
        response =
            make_response(200, "OK", route.content_type.c_str(), route.render());
      } catch (...) {
        response = make_response(500, "Internal Server Error", "text/plain",
                                 "route renderer failed\n");
      }
    } else {
      response = make_response(404, "Not Found", "text/plain",
                               "try /metrics or /healthz\n");
    }
  }
  if (method == "HEAD") {
    response.resize(response.find("\r\n\r\n") + 4);
  }
  return response;
}

}  // namespace match::obs
