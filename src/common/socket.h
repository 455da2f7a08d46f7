// Thin Status-returning wrappers over the loopback TCP syscalls shared
// by the serving front end (serve/server.h), the telemetry exporter's
// HTTP mode, the network load generator, and their tests. Everything
// here is deliberately boring: IPv4 loopback only, no TLS, no name
// resolution — the serving stack's contract is "a port on 127.0.0.1".
//
// Blocking helpers (SendAll/RecvAll) are for *client* code (the load
// generator, tests) where a blocked thread is fine; the event-loop
// server never uses them on its non-blocking connection fds.
#ifndef HAP_COMMON_SOCKET_H_
#define HAP_COMMON_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace hap {

/// Creates a listening IPv4 TCP socket bound to 127.0.0.1:`port`
/// (port 0 = kernel-assigned) and returns its fd. The socket has
/// SO_REUSEADDR set; it is blocking — callers that want edge/level
/// polling call SetNonBlocking on it.
StatusOr<int> ListenLoopback(int port, int backlog = 64);

/// The local port a bound socket actually listens on (resolves port 0).
StatusOr<int> BoundPort(int fd);

/// Blocking connect to 127.0.0.1:`port`; returns the connected fd,
/// with TCP_NODELAY set.
StatusOr<int> ConnectLoopback(int port);

/// What AcceptNonBlocking returns when the backlog is empty (EAGAIN):
/// not an error, just nothing to accept until the listener is readable.
inline constexpr int kNoPendingConnection = -1;

/// Accepts one pending connection on the non-blocking listener
/// `listen_fd`. The returned fd is O_NONBLOCK and FD_CLOEXEC and has
/// TCP_NODELAY set: a request/response socket never wants Nagle's
/// algorithm holding a small response until the peer's delayed ACK.
/// Returns kNoPendingConnection when the backlog is empty; an exhausted
/// fd table or kernel memory (EMFILE, ENFILE, ENOBUFS, ENOMEM) is
/// ResourceExhausted, any other failure Internal.
StatusOr<int> AcceptNonBlocking(int listen_fd);

/// Marks `fd` O_NONBLOCK.
Status SetNonBlocking(int fd);

/// Writes all `len` bytes (retrying short writes / EINTR). Blocking;
/// fails with Internal on a hard socket error or peer close.
Status SendAll(int fd, const void* data, size_t len);

/// Reads exactly `len` bytes (retrying short reads / EINTR). Blocking;
/// fails with Internal on error and OutOfRange on EOF before `len`.
Status RecvAll(int fd, void* data, size_t len);

/// Closes `fd` if >= 0 (EINTR-safe, idempotent via the caller resetting
/// the fd).
void CloseFd(int fd);

}  // namespace hap

#endif  // HAP_COMMON_SOCKET_H_
