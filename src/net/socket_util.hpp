#pragma once

// POSIX socket plumbing for the network front end: the listeners of
// net::MatchServer (its wire port and optional HTTP port) and the
// blocking clients that talk to it (net::Client, the benchmarks), so
// bind/listen/ephemeral-port discipline, SO_REUSEADDR, and EINTR
// handling live in exactly one place.
//
// Everything here is dependency-free POSIX: no third-party networking,
// same rule as the rest of the repo.  All helpers are safe to call from
// any thread; none of them own background threads.

#include <cstdint>
#include <string>

namespace match::net {

/// EINTR-safe close that also resets the fd to -1 (idempotent: closing
/// an already-closed slot is a no-op).  Never throws.
void close_fd(int& fd) noexcept;

/// Toggles O_NONBLOCK on `fd`.  Returns false (with errno set) on
/// failure instead of throwing: callers on teardown paths must not
/// throw.
bool set_nonblocking(int fd, bool enabled) noexcept;

struct ListenerOptions {
  /// Loopback by default: the server's ports are operator/bench
  /// surfaces, not public ones.  Use "0.0.0.0" to accept remote peers.
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see `bound_port`
  int backlog = 128;
};

/// Creates, binds, and starts listening on a non-blocking TCP socket,
/// with SO_REUSEADDR so a restarted listener can rebind its old port
/// while the previous incarnation's sockets linger in TIME_WAIT.
/// Returns the listening fd; throws `std::runtime_error` (with the
/// strerror text) on any failure, leaking nothing.
int open_listener(const ListenerOptions& options);

/// The port a socket is actually bound to (resolves ephemeral binds).
/// Throws `std::runtime_error` when getsockname fails.
std::uint16_t bound_port(int fd);

/// Connects a blocking TCP socket to `address:port`, retrying EINTR.
/// Throws `std::runtime_error` on failure.
int connect_to(const std::string& address, std::uint16_t port);

/// Sends the whole buffer, retrying EINTR and short writes
/// (MSG_NOSIGNAL, so a dead peer yields EPIPE instead of killing the
/// process).  Returns false when the peer went away mid-write.
bool send_all(int fd, const void* data, std::size_t size) noexcept;

/// Receives exactly `size` bytes, retrying EINTR and short reads.
/// Returns false on EOF or error before the buffer fills.
bool recv_all(int fd, void* data, std::size_t size) noexcept;

/// A self-wakeup handle for event loops: `notify()` from any thread
/// makes `fd()` readable; the loop thread calls `drain()` to reset it.
/// Backed by eventfd(2) on Linux and a non-blocking pipe elsewhere.
class Wakeup {
 public:
  /// Throws `std::runtime_error` when the kernel refuses the fds.
  Wakeup();
  ~Wakeup();

  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  /// The fd to register for readability in an event loop.
  int fd() const noexcept { return read_fd_; }

  /// Wakes the loop.  Async-signal-unsafe but thread-safe; coalesces —
  /// any number of notifies before a drain produce one readable state.
  void notify() noexcept;

  /// Consumes all pending notifications (loop thread only).
  void drain() noexcept;

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;  ///< == read_fd_ in eventfd mode
};

}  // namespace match::net
