#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "fault/fault.hpp"
#include "util/errno_string.hpp"

namespace tmm::serve {

using fault::ErrorCode;
using fault::FlowError;

Endpoint unix_endpoint(std::string path) {
  if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path))
    throw FlowError(ErrorCode::kConfig, "serve.client",
                    "unix socket path empty or too long: '" + path + "'");
  return {std::move(path), 0};
}

namespace {
[[noreturn]] void bad_port(const std::string& port) {
  throw FlowError(ErrorCode::kConfig, "serve.client",
                  "TCP port " + port + " out of range 1..65535");
}
}  // namespace

Endpoint tcp_endpoint(long port) {
  if (port < 1 || port > 65535) bad_port(std::to_string(port));
  return {{}, static_cast<int>(port)};
}

Endpoint parse_endpoint(const std::string& spec) {
  const bool is_port =
      !spec.empty() && std::all_of(spec.begin(), spec.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  if (!is_port) return unix_endpoint(spec);
  // Checked before stol, which would overflow on a long digit string.
  if (spec.size() > 5) bad_port(spec);
  return tcp_endpoint(std::stol(spec));
}

int connect_endpoint(const Endpoint& ep) {
  sockaddr_un un{};
  sockaddr_in in{};
  sockaddr* addr = nullptr;
  socklen_t len = 0;
  if (!ep.unix_path.empty()) {
    un.sun_family = AF_UNIX;
    std::strncpy(un.sun_path, ep.unix_path.c_str(), sizeof(un.sun_path) - 1);
    addr = reinterpret_cast<sockaddr*>(&un);
    len = sizeof un;
  } else {
    in.sin_family = AF_INET;
    in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    in.sin_port = htons(static_cast<std::uint16_t>(ep.tcp_port));
    addr = reinterpret_cast<sockaddr*>(&in);
    len = sizeof in;
  }
  const int fd = ::socket(addr->sa_family, SOCK_STREAM, 0);
  if (fd >= 0 && ::connect(fd, addr, len) == 0) return fd;
  const int err = errno;
  if (fd >= 0) ::close(fd);
  throw FlowError(ErrorCode::kIo, "serve.client",
                  "cannot connect to " +
                      (ep.unix_path.empty()
                           ? "127.0.0.1:" + std::to_string(ep.tcp_port)
                           : ep.unix_path) +
                      ": " + util::errno_string(err));
}

Response call(int fd, const Request& req) {
  write_frame(fd, encode_request(req));
  std::string frame;
  if (!read_frame(fd, frame))
    throw FlowError(ErrorCode::kIo, "serve.client",
                    "server closed the connection");
  return decode_response(frame);
}

double Backoff::next_s() {
  cur_s_ = std::min(cur_s_ == 0.0 ? base_s_ : cur_s_ * 2.0, cap_s_);
  return cur_s_ * rng_.uniform(0.5, 1.0);
}

void Backoff::sleep_next() {
  std::this_thread::sleep_for(std::chrono::duration<double>(next_s()));
}

}  // namespace tmm::serve
