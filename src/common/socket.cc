#include "common/socket.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace hap {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

sockaddr_in LoopbackAddr(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  return addr;
}

// Responses on these sockets are small and answer a request: waiting to
// fill a segment (Nagle) only adds latency, up to the peer's delayed-ACK
// timer once one segment is in flight.
Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::Internal(Errno("setsockopt TCP_NODELAY"));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<int> ListenLoopback(int port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::Internal(
        Errno("bind 127.0.0.1:" + std::to_string(port)));
    ::close(fd);
    return s;
  }
  if (::listen(fd, backlog) != 0) {
    const Status s = Status::Internal(Errno("listen"));
    ::close(fd);
    return s;
  }
  return fd;
}

StatusOr<int> BoundPort(int fd) {
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Status::Internal(Errno("getsockname"));
  }
  return static_cast<int>(ntohs(bound.sin_port));
}

StatusOr<int> ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  sockaddr_in addr = LoopbackAddr(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = Status::Internal(
        Errno("connect 127.0.0.1:" + std::to_string(port)));
    ::close(fd);
    return s;
  }
  if (Status s = SetNoDelay(fd); !s.ok()) {
    ::close(fd);
    return s;
  }
  return fd;
}

StatusOr<int> AcceptNonBlocking(int listen_fd) {
  while (true) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      if (Status s = SetNoDelay(fd); !s.ok()) {
        ::close(fd);
        return s;
      }
      return fd;
    }
    switch (errno) {
      case EAGAIN:  // == EWOULDBLOCK on Linux, the only accept4 platform
        return kNoPendingConnection;
      case EINTR:
      case ECONNABORTED:  // that connection is gone; try the next one
        continue;
      case EMFILE:
      case ENFILE:
      case ENOBUFS:
      case ENOMEM:
        return Status::ResourceExhausted(Errno("accept"));
      default:
        return Status::Internal(Errno("accept"));
    }
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(Errno("fcntl O_NONBLOCK"));
  }
  return Status::Ok();
}

Status SendAll(int fd, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, p + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("send"));
    }
    if (n == 0) return Status::Internal("send: peer closed");
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status RecvAll(int fd, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("recv"));
    }
    if (n == 0) {
      return Status::OutOfRange("recv: EOF after " + std::to_string(got) +
                                " of " + std::to_string(len) + " bytes");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace hap
