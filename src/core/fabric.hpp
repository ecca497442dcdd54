// Transport fabric: maps UDDI access points ("inproc:host/service",
// "tcp:127.0.0.1:9000") to live channels. Services listen on the fabric
// and clients dial discovered access points — the glue between the
// registry's metadata world and the binary data plane. The in-process
// fabric optionally routes every connection through a simulated link so a
// whole heterogeneous testbed (paper §4.4) runs in one process under
// virtual time.
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/failure_detector.hpp"
#include "net/channel.hpp"
#include "net/simlink.hpp"
#include "net/tcp.hpp"
#include "util/clock.hpp"

namespace rave::core {

// Hand-off from accept callbacks to the pump that owns the channel list.
// A callback may run on another thread (TcpFabric accepts on the event
// loop) while pump() walks that list, so callbacks push() here and pump()
// take()s everything pending before it iterates: an accepted channel joins
// at the next pump.
class AcceptInbox {
 public:
  void push(net::ChannelPtr channel) {
    std::lock_guard lock(mu_);
    channels_.push_back(std::move(channel));
  }
  std::vector<net::ChannelPtr> take() {
    std::lock_guard lock(mu_);
    return std::exchange(channels_, {});
  }

 private:
  std::mutex mu_;
  std::vector<net::ChannelPtr> channels_;
};

class Fabric {
 public:
  using AcceptFn = std::function<void(net::ChannelPtr)>;

  virtual ~Fabric() = default;

  // Expose `name`; returns the access point to advertise in the registry.
  virtual util::Result<std::string> listen(const std::string& name, AcceptFn on_accept) = 0;
  virtual void unlisten(const std::string& name) = 0;

  // Connect to an advertised access point.
  virtual util::Result<net::ChannelPtr> dial(const std::string& access_point) = 0;

  // dial() with the policy's bounded exponential backoff between
  // attempts, slept on `clock` so the schedule is deterministic under
  // virtual time. With max_attempts <= 1 this is a plain dial.
  util::Result<net::ChannelPtr> dial_retry(const std::string& access_point,
                                           const RetryPolicy& policy, util::Clock& clock);
};

class InProcFabric final : public Fabric {
 public:
  // All connections run at `default_link` speed against `clock`; individual
  // listeners can override (e.g. the PDA behind wireless while servers
  // share 100 Mbit ethernet).
  explicit InProcFabric(util::Clock& clock, net::LinkProfile default_link = {});

  util::Result<std::string> listen(const std::string& name, AcceptFn on_accept) override;
  void unlisten(const std::string& name) override;
  util::Result<net::ChannelPtr> dial(const std::string& access_point) override;

  // Per-listener link override, applied to later dials of that name.
  void set_link(const std::string& name, net::LinkProfile profile);

  // Fault-injection hook: wrap the client end of later dials of `name`
  // (e.g. with sim::wrap_faulty) so tests can sever a live service's
  // connections deterministically. Empty function clears the hook.
  using ChannelWrapFn = std::function<net::ChannelPtr(net::ChannelPtr)>;
  void set_fault(const std::string& name, ChannelWrapFn wrap);

 private:
  struct Listener {
    AcceptFn on_accept;
    std::optional<net::LinkProfile> link;
    ChannelWrapFn fault_wrap;
  };

  util::Clock* clock_;
  net::LinkProfile default_link_;
  std::mutex mu_;
  std::condition_variable idle_cv_;
  // Held by shared_ptr so a listener stays alive while an in-flight dial
  // is invoking its AcceptFn outside mu_; unlisten() waits for the
  // in-flight count to drain before returning (see fabric.cpp).
  std::map<std::string, std::shared_ptr<Listener>> listeners_;
  std::map<std::string, int> dials_in_flight_;
};

// Real sockets on loopback; access points are "tcp:127.0.0.1:<port>".
// Accepts arrive on the shared reactor's event-loop thread, not on the
// thread that pumps the listening service (see AcceptInbox).
class TcpFabric final : public Fabric {
 public:
  TcpFabric();  // out of line: Listener is incomplete here
  ~TcpFabric() override;

  util::Result<std::string> listen(const std::string& name, AcceptFn on_accept) override;
  void unlisten(const std::string& name) override;
  util::Result<net::ChannelPtr> dial(const std::string& access_point) override;

 private:
  struct Listener;
  std::mutex mu_;
  std::map<std::string, std::unique_ptr<Listener>> listeners_;
};

}  // namespace rave::core
