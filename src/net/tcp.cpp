#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/reactor.hpp"

namespace rave::net {

using util::make_error;
using util::Result;

Result<ChannelPtr> tcp_connect(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return make_error("tcp: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return make_error("tcp: bad address " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return make_error("tcp: connect to " + host + " failed: " + std::strerror(errno));
  }
  return Reactor::global().adopt(fd);
}

}  // namespace rave::net
