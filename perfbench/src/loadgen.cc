#include "loadgen.h"

#include <poll.h>
#include <pthread.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/socket.h"
#include "serve/protocol.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using hap::serve::FrameType;
using hap::serve::WireHeader;

uint64_t CpuNs(clockid_t clock) {
  timespec ts;
  ::clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void SleepUntilNs(uint64_t deadline_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000ull);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000ull);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Per-connection bytes a socket has not taken yet. The sender never
/// blocks on a socket: what a full socket refuses (the server is not
/// reading) waits here and goes out as soon as the socket drains, so the
/// schedule keeps running on every other connection.
class Outbox {
 public:
  explicit Outbox(const std::vector<int>& fds) : fds_(fds), pending_(fds.size()) {}

  /// Queues header + body on connection `c` behind anything pending and
  /// writes what the socket takes. False on a hard socket error.
  bool Send(size_t c, const void* header, size_t header_len, const std::string& body) {
    if (pending_[c].empty()) {
      iovec iov[2];
      iov[0].iov_base = const_cast<void*>(header);
      iov[0].iov_len = header_len;
      iov[1].iov_base = const_cast<char*>(body.data());
      iov[1].iov_len = body.size();
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = 2;
      ssize_t n = ::sendmsg(fds_[c], &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return false;
        n = 0;
      }
      size_t done = static_cast<size_t>(n);
      if (done >= header_len + body.size()) return true;
      if (done < header_len) {
        pending_[c].append(static_cast<const char*>(header) + done, header_len - done);
        done = header_len;
      }
      pending_[c].append(body, done - header_len, std::string::npos);
      return true;
    }
    pending_[c].append(static_cast<const char*>(header), header_len);
    pending_[c] += body;
    return Flush(c);
  }

  bool Empty() const {
    for (const std::string& p : pending_) {
      if (!p.empty()) return false;
    }
    return true;
  }

  /// Returns at `deadline_ns`, flushing pending bytes as sockets drain.
  /// False on a hard socket error.
  bool WaitUntil(uint64_t deadline_ns) {
    while (true) {
      std::vector<pollfd> waiting;
      for (size_t c = 0; c < fds_.size(); ++c) {
        if (!Flush(c)) return false;
        if (!pending_[c].empty()) waiting.push_back({fds_[c], POLLOUT, 0});
      }
      const uint64_t now = NowNs();
      if (now >= deadline_ns) return true;
      if (waiting.empty()) {
        SleepUntilNs(deadline_ns);
        return true;
      }
      const uint64_t wait = deadline_ns - now;
      timespec ts;
      ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000ull);
      ts.tv_nsec = static_cast<long>(wait % 1'000'000'000ull);
      if (::ppoll(waiting.data(), waiting.size(), &ts, nullptr) == 0) return true;
    }
  }

 private:
  bool Flush(size_t c) {
    std::string& p = pending_[c];
    while (!p.empty()) {
      const ssize_t n = ::send(fds_[c], p.data(), p.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        p.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;
    }
    return true;
  }

  std::vector<int> fds_;
  std::vector<std::string> pending_;
};

std::vector<double> ToMs(const std::vector<uint64_t>& ns) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (uint64_t v : ns) ms.push_back(static_cast<double>(v) / 1e6);
  return ms;
}

struct Receiver {
  std::vector<int> fds;
  std::vector<std::string>* bufs = nullptr;
  uint64_t ticket_base = 0;
  LoadResult* result = nullptr;
  std::atomic<size_t> received{0};
  /// Signalled on every answer, for a closed-loop sender waiting for one.
  std::mutex mu;
  std::condition_variable answered;
  std::atomic<bool> sender_done{false};
  std::atomic<size_t> sent{0};
  std::atomic<uint64_t> drain_deadline_ns{0};

  void Run() {
    const int ep = ::epoll_create1(0);
    if (ep < 0) {
      result->error = "epoll_create1 failed";
      return;
    }
    std::vector<std::string>& bufs = *this->bufs;
    std::vector<bool> open(fds.size(), true);
    for (size_t c = 0; c < fds.size(); ++c) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = c;
      ::epoll_ctl(ep, EPOLL_CTL_ADD, fds[c], &ev);
    }
    char chunk[65536];
    epoll_event events[8];
    while (true) {
      if (sender_done.load(std::memory_order_acquire)) {
        if (received.load(std::memory_order_relaxed) >=
            sent.load(std::memory_order_relaxed)) {
          break;
        }
        if (NowNs() >= drain_deadline_ns.load(std::memory_order_relaxed)) {
          break;
        }
      }
      const int n = ::epoll_wait(ep, events, 8, 5);
      for (int e = 0; e < n; ++e) {
        const size_t c = events[e].data.u64;
        if (!open[c]) continue;
        while (true) {
          const ssize_t got = ::recv(fds[c], chunk, sizeof(chunk), MSG_DONTWAIT);
          if (got > 0) {
            bufs[c].append(chunk, static_cast<size_t>(got));
            continue;
          }
          if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (got < 0 && errno == EINTR) continue;
          open[c] = false;  // EOF or hard error: the server closed it
          ::epoll_ctl(ep, EPOLL_CTL_DEL, fds[c], nullptr);
          break;
        }
        Parse(&bufs[c]);
      }
    }
    ::close(ep);
  }

  void Parse(std::string* buf) {
    const uint64_t now = NowNs();
    size_t off = 0;
    while (buf->size() - off >= hap::serve::kWireHeaderSize) {
      auto header = hap::serve::DecodeWireHeader(
          reinterpret_cast<const uint8_t*>(buf->data() + off));
      if (!header.ok()) {
        ++result->protocol_errors;
        buf->clear();
        return;
      }
      const WireHeader& h = header.value();
      const size_t frame = hap::serve::kWireHeaderSize + h.payload_len;
      if (buf->size() - off < frame) break;
      if (h.ticket < ticket_base ||
          h.ticket - ticket_base >= result->outcome.size()) {
        off += frame;  // a late answer to an earlier window
        continue;
      }
      const uint64_t ticket = h.ticket - ticket_base;
      if (result->outcome[ticket] == Outcome::kUnanswered) {
        const std::string body =
            buf->substr(off + hap::serve::kWireHeaderSize, h.payload_len);
        Outcome outcome = Outcome::kError;
        if (h.type == FrameType::kPredictOk) {
          auto pred = hap::serve::DecodePrediction(body);
          if (pred.ok()) {
            outcome = Outcome::kOk;
            result->prediction[ticket] = pred.value();
          }
        } else if (h.status == hap::StatusCode::kResourceExhausted) {
          outcome = Outcome::kShed;
        }
        result->outcome[ticket] = outcome;
        result->latency_ns[ticket] = now - result->latency_ns[ticket];
        received.fetch_add(1, std::memory_order_relaxed);
        answered.notify_one();
      } else {
        ++result->protocol_errors;
      }
      off += frame;
    }
    buf->erase(0, off);
  }
};

}  // namespace

double LoadResult::OkLatencyQuantileMs(double q) const {
  std::vector<double> ms;
  ms.reserve(ok);
  for (size_t i = 0; i < outcome.size(); ++i) {
    if (outcome[i] == Outcome::kOk) {
      ms.push_back(static_cast<double>(latency_ns[i]) / 1e6);
    }
  }
  return Quantile(std::move(ms), q);
}

double LoadResult::LatenessQuantileMs(double q) const {
  return Quantile(ToMs(lateness_ns), q);
}

WireClient::WireClient(int port, int connections, uint64_t seed)
    : arrivals_(seed) {
  for (int c = 0; c < connections; ++c) {
    auto fd = hap::ConnectLoopback(port);
    if (!fd.ok()) {
      error_ = fd.status().ToString();
      return;
    }
    fds_.push_back(fd.value());
  }
  inbufs_.resize(fds_.size());
}

WireClient::~WireClient() {
  for (int fd : fds_) hap::CloseFd(fd);
}

LoadResult WireClient::Run(const std::vector<const std::string*>& payloads,
                           const LoadSpec& spec) {
  LoadResult result;
  const size_t n = payloads.size();
  result.outcome.assign(n, Outcome::kUnanswered);
  result.prediction.assign(n, -1);
  // latency_ns holds the scheduled send time until the response lands.
  result.latency_ns.assign(n, 0);
  result.lateness_ns.assign(n, 0);
  if (!error_.empty() || fds_.empty()) {
    result.error = error_.empty() ? "no connections" : error_;
    return result;
  }

  const uint64_t process_cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  const uint64_t sender_cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  Receiver receiver;
  receiver.result = &result;
  receiver.fds = fds_;
  receiver.bufs = &inbufs_;
  receiver.ticket_base = next_ticket_;
  next_ticket_ += n;

  const bool closed = spec.window > 0;
  const uint64_t t0 = NowNs() + 2'000'000;  // 2 ms to get going
  double offset_ns = 0.0;
  for (size_t i = 0; i < n && !closed; ++i) {
    result.latency_ns[i] = t0 + static_cast<uint64_t>(offset_ns);
    offset_ns += -std::log(1.0 - arrivals_.Uniform()) * 1e9 / spec.rate;
  }
  const uint64_t last_due =
      closed ? t0 + static_cast<uint64_t>(spec.closed_s * 1e9)
             : (n == 0 ? t0 : result.latency_ns[n - 1]);
  receiver.drain_deadline_ns.store(
      last_due + static_cast<uint64_t>(spec.drain_s * 1e9));
  std::thread receive_thread([&receiver] { receiver.Run(); });
  clockid_t receiver_clock = CLOCK_THREAD_CPUTIME_ID;
  if (::pthread_getcpuclockid(receive_thread.native_handle(), &receiver_clock) != 0) {
    result.error = "cannot read the receiver thread's CPU clock";
  }
  // Marks the time and the CPU time the rest of the process has used
  // since the run started: the process's minus the sender's (this
  // thread) and the receiver's.
  auto mark = [&] {
    const uint64_t generator = CpuNs(CLOCK_THREAD_CPUTIME_ID) - sender_cpu0 +
                               CpuNs(receiver_clock);
    const uint64_t process = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0;
    result.mark_ns.push_back(NowNs());
    result.mark_other_cpu_ns.push_back(process > generator ? process - generator : 0);
  };

  // Wake-ups on time: the default 50 us timer slack would show up as
  // lateness on every request.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  Outbox outbox(fds_);
  uint8_t header_bytes[hap::serve::kWireHeaderSize];
  bool socket_ok = true;
  for (size_t i = 0; i < n && socket_ok; ++i) {
    if (closed) {
      // Wait for an answer while `window` requests are outstanding. The
      // timeout covers a wake-up lost between the check and the wait, and
      // flushes what a full socket refused.
      while (socket_ok && i - receiver.received.load() >= spec.window &&
             NowNs() < last_due) {
        socket_ok = outbox.WaitUntil(NowNs());
        std::unique_lock<std::mutex> lock(receiver.mu);
        receiver.answered.wait_for(lock, std::chrono::milliseconds(1));
      }
      if (!socket_ok || NowNs() >= last_due) break;
      result.latency_ns[i] = NowNs();
    }
    const uint64_t due = result.latency_ns[i];
    if (!closed) socket_ok = outbox.WaitUntil(due);
    if (spec.mark_every > 0 && i % spec.mark_every == 0) mark();
    const uint64_t start = NowNs();
    result.lateness_ns[i] = start > due ? start - due : 0;
    WireHeader header;
    header.type = FrameType::kPredict;
    header.payload_len = static_cast<uint32_t>(payloads[i]->size());
    header.ticket = receiver.ticket_base + i;
    hap::serve::EncodeWireHeader(header, header_bytes);
    // Count the request before it can be answered.
    receiver.sent.store(i + 1, std::memory_order_relaxed);
    socket_ok = socket_ok && outbox.Send(i % fds_.size(), header_bytes,
                                         sizeof(header_bytes), *payloads[i]);
    if (!socket_ok) {
      receiver.sent.store(i, std::memory_order_relaxed);
      break;
    }
    result.bytes_sent += sizeof(header_bytes) + payloads[i]->size();
    ++result.sent;
  }
  if (spec.mark_every > 0) mark();
  while (socket_ok && !outbox.Empty() &&
         NowNs() < receiver.drain_deadline_ns.load()) {
    socket_ok = outbox.WaitUntil(std::min(NowNs() + 10'000'000,
                                          receiver.drain_deadline_ns.load()));
  }
  if (!socket_ok) result.error = std::string("send failed: ") + std::strerror(errno);
  receiver.sender_done.store(true, std::memory_order_release);
  receive_thread.join();

  result.outcome.resize(result.sent);
  result.prediction.resize(result.sent);
  result.latency_ns.resize(result.sent);
  result.lateness_ns.resize(result.sent);
  for (size_t i = 0; i < result.sent; ++i) {
    switch (result.outcome[i]) {
      case Outcome::kOk: ++result.ok; break;
      case Outcome::kShed: ++result.shed; break;
      case Outcome::kError: ++result.errors; break;
      case Outcome::kUnanswered: ++result.unanswered; break;
    }
  }
  return result;
}

}  // namespace perfbench
