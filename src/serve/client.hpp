#pragma once
// Client side of the `tmm serve` wire protocol (docs/SERVING.md): the
// one endpoint parser, connector, request/response round-trip and
// retry backoff that `tmm stat`, serve_loadgen and the tests share.
//
// Errors are fault::FlowError: kConfig for an endpoint that can never
// work (path too long, port out of range — a caller's mistake, exit 2
// in the CLI), kIo for everything a retry might cure (refused connect,
// EOF, socket failure).

#include <string>

#include "serve/protocol.hpp"
#include "util/rng.hpp"

namespace tmm::serve {

/// A server endpoint: a unix socket path, or a TCP port on 127.0.0.1
/// when the path is empty.
struct Endpoint {
  std::string unix_path;
  int tcp_port = 0;  ///< 1..65535 when unix_path is empty
};

/// Validated constructors. Throw kConfig on an empty or too-long path
/// (sockaddr_un) or on a port outside 1..65535.
Endpoint unix_endpoint(std::string path);
Endpoint tcp_endpoint(long port);

/// The `tmm stat` rule: an all-digits spec is a TCP port on 127.0.0.1,
/// anything else a unix socket path.
Endpoint parse_endpoint(const std::string& spec);

/// Open a connected stream socket to `ep`; the caller closes it.
/// Throws kIo when the connect fails.
int connect_endpoint(const Endpoint& ep);

/// One round-trip: write `req` as a frame, read and decode the answer.
/// Throws kIo when the server closes the connection instead of
/// answering (or on any socket error), kParse on a malformed frame.
/// Writing into a closed connection raises SIGPIPE; a client that must
/// survive that (and retry) ignores the signal, as the server does.
Response call(int fd, const Request& req);

/// Capped exponential backoff with jitter: the n-th delay (n from 0) is
/// uniform in [cap_n/2, cap_n] where cap_n = min(base * 2^n, cap), so
/// clients retrying under the same contention decorrelate.
class Backoff {
 public:
  Backoff(Rng& rng, double base_s, double cap_s)
      : rng_(rng), base_s_(base_s), cap_s_(cap_s) {}

  /// Advance and return the next delay in seconds.
  double next_s();
  /// Sleep for next_s().
  void sleep_next();
  /// Start over from `base` (after a success).
  void reset() noexcept { cur_s_ = 0.0; }

 private:
  Rng& rng_;
  double base_s_;
  double cap_s_;
  double cur_s_ = 0.0;
};

}  // namespace tmm::serve
