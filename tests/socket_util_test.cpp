// Socket plumbing (net/socket_util) and the EventLoop readiness
// multiplexer — including the SO_REUSEADDR restart-on-the-same-port
// regression MatchServer's wire and HTTP listeners rely on.

#include "net/socket_util.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "net/event_loop.hpp"

namespace {

using namespace match::net;

/// open_listener's fd is non-blocking; these tests accept synchronously.
int accept_blocking(int listener) {
  EXPECT_TRUE(set_nonblocking(listener, false));
  return ::accept(listener, nullptr, nullptr);
}

TEST(SocketUtil, CloseFdIsIdempotentAndResets) {
  int fd = ::dup(STDOUT_FILENO);
  ASSERT_GE(fd, 0);
  close_fd(fd);
  EXPECT_EQ(fd, -1);
  close_fd(fd);  // no-op, no crash
  EXPECT_EQ(fd, -1);
}

TEST(SocketUtil, SetNonblockingToggles) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_TRUE(set_nonblocking(fds[0], true));
  EXPECT_NE(::fcntl(fds[0], F_GETFL) & O_NONBLOCK, 0);
  EXPECT_TRUE(set_nonblocking(fds[0], false));
  EXPECT_EQ(::fcntl(fds[0], F_GETFL) & O_NONBLOCK, 0);
  EXPECT_FALSE(set_nonblocking(-1, true));
  close_fd(fds[0]);
  close_fd(fds[1]);
}

TEST(SocketUtil, ListenerAcceptsAndMovesBytesBothWays) {
  int listener = open_listener({});
  ASSERT_GE(listener, 0);
  EXPECT_NE(::fcntl(listener, F_GETFL) & O_NONBLOCK, 0)
      << "listeners are built for the reactor";
  const std::uint16_t port = bound_port(listener);
  ASSERT_GT(port, 0);

  int client = connect_to("127.0.0.1", port);
  ASSERT_GE(client, 0);
  int served = accept_blocking(listener);
  ASSERT_GE(served, 0);

  const std::string ping = "hello across loopback";
  ASSERT_TRUE(send_all(client, ping.data(), ping.size()));
  std::string got(ping.size(), '\0');
  ASSERT_TRUE(recv_all(served, got.data(), got.size()));
  EXPECT_EQ(got, ping);

  ASSERT_TRUE(send_all(served, got.data(), got.size()));
  std::string echoed(ping.size(), '\0');
  ASSERT_TRUE(recv_all(client, echoed.data(), echoed.size()));
  EXPECT_EQ(echoed, ping);

  close_fd(client);
  // The peer closed: recv_all must report EOF, not hang or succeed.
  char byte;
  EXPECT_FALSE(recv_all(served, &byte, 1));
  close_fd(served);
  close_fd(listener);
}

TEST(SocketUtil, BadBindAddressThrows) {
  ListenerOptions options;
  options.bind_address = "not-an-address";
  EXPECT_THROW(open_listener(options), std::runtime_error);
}

TEST(SocketUtil, ConnectToDeadPortThrows) {
  // Grab an ephemeral port, then free it: connecting must now fail.
  int listener = open_listener({});
  const std::uint16_t port = bound_port(listener);
  close_fd(listener);
  EXPECT_THROW(connect_to("127.0.0.1", port), std::runtime_error);
}

// Regression: a restarted listener must rebind its previous port
// immediately, even right after serving real connections (whose sockets
// linger in TIME_WAIT without SO_REUSEADDR).
TEST(SocketUtil, RestartOnSamePortAfterServingConnections) {
  ListenerOptions options;
  int first = open_listener(options);
  const std::uint16_t port = bound_port(first);

  int client = connect_to("127.0.0.1", port);
  int served = accept_blocking(first);
  ASSERT_GE(served, 0);
  const char byte = 'x';
  ASSERT_TRUE(send_all(served, &byte, 1));
  char got;
  ASSERT_TRUE(recv_all(client, &got, 1));
  // Server side closes first: its socket enters TIME_WAIT on this port.
  close_fd(served);
  close_fd(client);
  close_fd(first);

  options.port = port;
  int second = -1;
  ASSERT_NO_THROW(second = open_listener(options));
  EXPECT_EQ(bound_port(second), port);
  // And it actually serves.
  int again = connect_to("127.0.0.1", port);
  int peer = accept_blocking(second);
  EXPECT_GE(peer, 0);
  close_fd(again);
  close_fd(peer);
  close_fd(second);
}

TEST(SocketUtil, WakeupCoalescesNotifiesAndDrains) {
  Wakeup wakeup;
  ASSERT_GE(wakeup.fd(), 0);

  pollfd pfd{wakeup.fd(), POLLIN, 0};
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "readable before any notify";

  wakeup.notify();
  wakeup.notify();
  wakeup.notify();
  pfd.revents = 0;
  EXPECT_EQ(::poll(&pfd, 1, 1000), 1);
  EXPECT_NE(pfd.revents & POLLIN, 0);

  wakeup.drain();  // one drain consumes all three notifies
  pfd.revents = 0;
  EXPECT_EQ(::poll(&pfd, 1, 0), 0) << "still readable after drain";

  // Notify from another thread wakes a blocked poller.
  std::thread notifier([&wakeup] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    wakeup.notify();
  });
  pfd.revents = 0;
  EXPECT_EQ(::poll(&pfd, 1, 2000), 1);
  notifier.join();
  wakeup.drain();
}

// ------------------------------------------------------------- EventLoop

class EventLoopBothBackends
    : public ::testing::TestWithParam<EventLoop::Backend> {};

TEST_P(EventLoopBothBackends, ReadinessModifyAndRemove) {
  EventLoop loop(GetParam());
  Wakeup wakeup;
  loop.add(wakeup.fd(), /*want_read=*/true, /*want_write=*/false);
  EXPECT_EQ(loop.size(), 1u);

  std::vector<EventLoop::Ready> ready;
  EXPECT_EQ(loop.wait(0, ready), 0u) << "nothing ready yet";

  wakeup.notify();
  ASSERT_EQ(loop.wait(1000, ready), 1u);
  EXPECT_EQ(ready[0].fd, wakeup.fd());
  EXPECT_TRUE(ready[0].readable);
  EXPECT_FALSE(ready[0].writable);

  // Level-triggered: still ready until drained.
  ASSERT_EQ(loop.wait(0, ready), 1u);
  wakeup.drain();
  EXPECT_EQ(loop.wait(0, ready), 0u);

  // A connected socket is immediately writable once interest asks.
  int listener = open_listener({});
  int client = connect_to("127.0.0.1", bound_port(listener));
  int served = accept_blocking(listener);
  loop.add(client, /*want_read=*/false, /*want_write=*/true);
  ASSERT_EQ(loop.wait(1000, ready), 1u);
  EXPECT_EQ(ready[0].fd, client);
  EXPECT_TRUE(ready[0].writable);

  loop.modify(client, /*want_read=*/true, /*want_write=*/false);
  EXPECT_EQ(loop.wait(0, ready), 0u) << "no longer write-interested";
  const char byte = 'y';
  ASSERT_TRUE(send_all(served, &byte, 1));
  ASSERT_EQ(loop.wait(1000, ready), 1u);
  EXPECT_TRUE(ready[0].readable);

  loop.remove(client);
  EXPECT_EQ(loop.size(), 1u);
  EXPECT_EQ(loop.wait(0, ready), 0u);
  loop.remove(client);  // double remove is fine

  EXPECT_THROW(loop.add(wakeup.fd(), true, false), std::runtime_error)
      << "double registration must be refused";

  close_fd(client);
  close_fd(served);
  close_fd(listener);
}

TEST_P(EventLoopBothBackends, PeerHangupReportsReadableOrError) {
  EventLoop loop(GetParam());
  int listener = open_listener({});
  int client = connect_to("127.0.0.1", bound_port(listener));
  int served = accept_blocking(listener);
  loop.add(served, /*want_read=*/true, /*want_write=*/false);

  close_fd(client);
  std::vector<EventLoop::Ready> ready;
  ASSERT_EQ(loop.wait(1000, ready), 1u);
  // Hangup may surface as POLLIN (EOF on read) and/or POLLHUP; either
  // way a reader sees it.
  EXPECT_TRUE(ready[0].readable || ready[0].error);

  loop.remove(served);
  close_fd(served);
  close_fd(listener);
}

#ifdef __linux__
constexpr EventLoop::Backend kBackends[] = {EventLoop::Backend::kEpoll,
                                            EventLoop::Backend::kPoll};
#else
constexpr EventLoop::Backend kBackends[] = {EventLoop::Backend::kPoll};
#endif

INSTANTIATE_TEST_SUITE_P(Backends, EventLoopBothBackends,
                         ::testing::ValuesIn(kBackends),
                         [](const auto& instance) {
                           const bool epoll =
                               instance.param == EventLoop::Backend::kEpoll;
                           return epoll ? "epoll" : "poll";
                         });

}  // namespace
