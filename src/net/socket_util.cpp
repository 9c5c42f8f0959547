#include "net/socket_util.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/eventfd.h>
#endif

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace match::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + " (" + std::strerror(errno) + ")");
}

sockaddr_in make_addr(const std::string& address, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad IPv4 address '" + address + "'");
  }
  return addr;
}

}  // namespace

void close_fd(int& fd) noexcept {
  if (fd < 0) return;
  // POSIX leaves the fd state unspecified after EINTR from close(); on
  // Linux the descriptor is always released, so retrying risks closing
  // a recycled fd.  One call, no retry, is the portable-enough choice.
  ::close(fd);
  fd = -1;
}

bool set_nonblocking(int fd, bool enabled) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  return ::fcntl(fd, F_SETFL, wanted) == 0;
}

int open_listener(const ListenerOptions& options) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket() failed");
  try {
    const int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
      throw_errno("setsockopt(SO_REUSEADDR) failed");
    }
    const sockaddr_in addr = make_addr(options.bind_address, options.port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      throw_errno("cannot bind " + options.bind_address + ":" +
                  std::to_string(options.port));
    }
    if (::listen(fd, options.backlog) < 0) {
      throw_errno("listen() failed on " + options.bind_address + ":" +
                  std::to_string(options.port));
    }
    if (!set_nonblocking(fd, true)) {
      throw_errno("cannot set listener non-blocking");
    }
  } catch (...) {
    close_fd(fd);
    throw;
  }
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    throw_errno("getsockname() failed");
  }
  return ntohs(bound.sin_port);
}

int connect_to(const std::string& address, std::uint16_t port) {
  const sockaddr_in addr = make_addr(address, port);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket() failed");
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
        0) {
      return fd;
    }
    if (errno == EINTR) continue;
    const int err = errno;
    close_fd(fd);
    errno = err;
    throw_errno("cannot connect to " + address + ":" + std::to_string(port));
  }
}

bool send_all(int fd, const void* data, std::size_t size) noexcept {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, p + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool recv_all(int fd, void* data, std::size_t size) noexcept {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, p + got, size - got, 0);
    if (n == 0) return false;  // orderly EOF mid-message
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

Wakeup::Wakeup() {
#ifdef __linux__
  read_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (read_fd_ < 0) throw_errno("eventfd() failed");
  write_fd_ = read_fd_;
#else
  int fds[2];
  if (::pipe(fds) < 0) throw_errno("pipe() failed");
  read_fd_ = fds[0];
  write_fd_ = fds[1];
  set_nonblocking(read_fd_, true);
  set_nonblocking(write_fd_, true);
#endif
}

Wakeup::~Wakeup() {
  if (write_fd_ != read_fd_) close_fd(write_fd_);
  close_fd(read_fd_);
}

void Wakeup::notify() noexcept {
  const std::uint64_t one = 1;
  for (;;) {
    const ssize_t n = ::write(write_fd_, &one, sizeof(one));
    if (n >= 0 || errno != EINTR) return;  // EAGAIN = already pending: fine
  }
}

void Wakeup::drain() noexcept {
  std::uint64_t buf[16];
  for (;;) {
    const ssize_t n = ::read(read_fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < static_cast<ssize_t>(sizeof(buf))) return;  // drained (or EAGAIN)
  }
}

}  // namespace match::net
