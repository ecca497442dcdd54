// Simulated network links. Table 2's thin-client numbers are bandwidth
// arithmetic (an 11 Mbit/s shared wireless link moving 120 KB frames);
// SimulatedLink reproduces that by delaying delivery of real messages
// according to a link profile, against either virtual or wall-clock time.
// Messages still flow end-to-end, so the code path under test is the real
// one — only the clock arithmetic is modelled.
#pragma once

#include <string>

#include "net/channel.hpp"
#include "util/clock.hpp"

namespace rave::net {

struct LinkProfile {
  std::string name = "ideal";
  double bandwidth_bps = 0.0;  // bits/second; 0 = infinite
  double latency_s = 0.0;      // one-way propagation delay
  // Fraction of nominal bandwidth actually usable (contention, signal
  // quality — paper §5.1: wireless bandwidth "is shared between other
  // network users, and is proportional to signal quality").
  double efficiency = 1.0;
  uint64_t per_message_overhead_bytes = 0;  // headers/framing

  // Seconds to transmit a message of `bytes` payload (serialization delay
  // only, excluding latency).
  [[nodiscard]] double transmit_seconds(uint64_t bytes) const {
    if (bandwidth_bps <= 0.0) return 0.0;
    const double effective = bandwidth_bps * (efficiency > 0 ? efficiency : 1.0);
    return static_cast<double>(bytes + per_message_overhead_bytes) * 8.0 / effective;
  }

  // Total one-way delivery time for a message of `bytes`.
  [[nodiscard]] double delivery_seconds(uint64_t bytes) const {
    return latency_s + transmit_seconds(bytes);
  }
};

// The two networks in the paper's testbed.
LinkProfile wireless_11mbit();   // 802.11b, ~70% efficiency
LinkProfile ethernet_100mbit();  // switched 100 Mbit ethernet

// A bidirectional link with `profile` applied to both directions. Returns
// the two endpoints. Sends are immediate; receives see messages only after
// the link's serialization + latency delay has elapsed on `clock`.
std::pair<ChannelPtr, ChannelPtr> make_simulated_pair(util::Clock& clock,
                                                      const LinkProfile& profile);

}  // namespace rave::net
