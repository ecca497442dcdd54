// Real TCP transport (loopback or LAN). Frames are length-prefixed binary —
// the "direct socket communication" the paper drops to for bulk data after
// SOAP-based subscription (§4.3). Byte order on the wire is fixed
// little-endian regardless of host endianness. Every connection runs on
// the epoll reactor (reactor.hpp); listeners are Reactor::listen.
#pragma once

#include <cstdint>
#include <string>

#include "net/channel.hpp"

namespace rave::net {

// Exists only so callers that record the TCP engine still build: the
// reactor is the one engine.
enum class TransportMode : uint8_t { Reactor };
inline TransportMode transport_mode() { return TransportMode::Reactor; }

// Connect to a listening RAVE endpoint; the channel runs on
// Reactor::global().
util::Result<ChannelPtr> tcp_connect(const std::string& host, uint16_t port);

}  // namespace rave::net
