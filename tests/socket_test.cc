// Loopback socket helpers: both ends of a connection send at once
// (TCP_NODELAY), accepted fds are non-blocking and close-on-exec, and an
// empty backlog is an outcome, not an error.
#include "common/socket.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

namespace hap {
namespace {

int NoDelay(int fd) {
  int value = 0;
  socklen_t len = sizeof(value);
  EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &value, &len), 0);
  return value;
}

TEST(SocketTest, AcceptNonBlockingReturnsNoDelayNonBlockingCloexecFd) {
  StatusOr<int> listener = ListenLoopback(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  ASSERT_TRUE(SetNonBlocking(listener.value()).ok());
  StatusOr<int> port = BoundPort(listener.value());
  ASSERT_TRUE(port.ok());

  // Empty backlog: the distinct "nothing pending" value, not an error.
  StatusOr<int> none = AcceptNonBlocking(listener.value());
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none.value(), kNoPendingConnection);

  StatusOr<int> client = ConnectLoopback(port.value());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_NE(NoDelay(client.value()), 0) << "connecting end must set NODELAY";

  pollfd ready{listener.value(), POLLIN, 0};
  ASSERT_EQ(::poll(&ready, 1, 5000), 1);
  StatusOr<int> accepted = AcceptNonBlocking(listener.value());
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  const int fd = accepted.value();
  ASSERT_GE(fd, 0);
  EXPECT_NE(NoDelay(fd), 0) << "accepted end must set NODELAY";
  EXPECT_NE(::fcntl(fd, F_GETFL) & O_NONBLOCK, 0);
  EXPECT_NE(::fcntl(fd, F_GETFD) & FD_CLOEXEC, 0);

  // Drained again: back to the "nothing pending" value.
  StatusOr<int> drained = AcceptNonBlocking(listener.value());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained.value(), kNoPendingConnection);

  CloseFd(fd);
  CloseFd(client.value());
  CloseFd(listener.value());
}

TEST(SocketTest, AcceptNonBlockingOnBadFdIsAnError) {
  StatusOr<int> accepted = AcceptNonBlocking(-1);
  ASSERT_FALSE(accepted.ok());
  EXPECT_EQ(accepted.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace hap
