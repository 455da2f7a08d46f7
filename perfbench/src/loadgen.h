// Open-loop load generator over the binary wire protocol
// (serve/protocol.h). One process, two threads: the calling thread sends
// on a fixed schedule of seeded Poisson arrivals (independent users:
// exponential gaps at the offered rate) round-robin over the connections,
// and one epoll thread receives and matches responses by ticket. Every
// latency is measured from the request's *scheduled* send time, so a
// stall in the server or the generator is charged to every request it
// delays; how late the sender itself ran is reported separately so a run
// whose generator fell behind can be refused instead of being reported as
// a slow server. A closed-loop mode (LoadSpec::window) instead keeps a
// fixed number of requests outstanding, to saturate the server.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace perfbench {

enum class Outcome : uint8_t { kUnanswered, kOk, kShed, kError };

struct LoadSpec {
  double rate = 1000.0;  // mean requests per second
  /// 0: open loop on the Poisson schedule at `rate`. Otherwise closed
  /// loop: `window` requests are kept outstanding, each sent as soon as
  /// an earlier one is answered, for at most `closed_s` seconds; latency
  /// then runs from the actual send and the unsent tail of the payload
  /// list is dropped from the result.
  size_t window = 0;
  double closed_s = 0.0;
  /// How long after the last scheduled send to wait for stragglers
  /// before counting them as unanswered.
  double drain_s = 2.0;
  /// Record LoadResult::mark_ns every this many sends (0: never).
  size_t mark_every = 0;
};

struct LoadResult {
  /// Per request, indexed by ticket (= position in the payload list).
  std::vector<Outcome> outcome;
  std::vector<int32_t> prediction;  // -1 unless kOk
  std::vector<uint64_t> latency_ns;  // response - scheduled send
  std::vector<uint64_t> lateness_ns;  // actual send - scheduled send

  size_t sent = 0, ok = 0, shed = 0, errors = 0, unanswered = 0;
  uint64_t bytes_sent = 0;
  size_t protocol_errors = 0;  // undecodable response frames
  /// Marks, taken just before each LoadSpec::mark_every-th send and once
  /// after the last send: NowNs(), and the CPU time the rest of the
  /// process had used since the run started (the process's CPU time minus
  /// the generator's two threads). With the server in the same process
  /// and nothing else running, the latter is the server's CPU time.
  std::vector<uint64_t> mark_ns;
  std::vector<uint64_t> mark_other_cpu_ns;
  std::string error;  // non-empty: the run could not be carried out

  /// Latency quantile in ms over OK responses only.
  double OkLatencyQuantileMs(double q) const;
  double LatenessQuantileMs(double q) const;
};

/// A fixed set of loopback connections to one server, kept open across
/// load windows the way long-lived clients keep theirs: TCP state that
/// builds up over a connection's life (delayed ACKs meeting Nagle's
/// algorithm on the server's responses) is part of what is measured.
class WireClient {
 public:
  /// Connects `connections` sockets to 127.0.0.1:`port`; on failure
  /// `error()` is non-empty. `seed` drives the arrival schedule.
  WireClient(int port, int connections, uint64_t seed);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  const std::string& error() const { return error_; }

  /// Sends one predict frame per entry of `payloads` (graph text, see
  /// graph/io.h) at `spec.rate`, round-robin over the connections, and
  /// collects every response. The payload pointers must stay valid for
  /// the call.
  LoadResult Run(const std::vector<const std::string*>& payloads,
                 const LoadSpec& spec);

 private:
  std::vector<int> fds_;
  std::vector<std::string> inbufs_;  // partial frames carry over windows
  uint64_t next_ticket_ = 0;         // tickets are unique across windows
  hap::Rng arrivals_;
  std::string error_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
