#include "core/fabric.hpp"

#include <algorithm>

#include "net/endpoint.hpp"
#include "net/reactor.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"

namespace rave::core {

using util::make_error;
using util::Result;

Result<net::ChannelPtr> Fabric::dial_retry(const std::string& access_point,
                                           const RetryPolicy& policy, util::Clock& clock) {
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& dials = reg.counter("rave_fabric_dials_total");
  static obs::Counter& retries = reg.counter("rave_fabric_dial_retries_total");
  static obs::Counter& failures = reg.counter("rave_fabric_dial_failures_total");
  const int attempts = std::max(1, policy.max_attempts);
  std::string last_error;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retries.inc();
      clock.sleep_for(policy.backoff_after(attempt - 1));
    }
    dials.inc();
    auto channel = dial(access_point);
    if (channel.ok()) return channel;
    last_error = channel.error();
  }
  failures.inc();
  obs::log_event(util::LogLevel::Warn, "fabric", "dial_failed",
                 access_point + " unreachable after " + std::to_string(attempts) +
                     " attempt(s): " + last_error);
  return make_error("fabric: dial " + access_point + " failed after " +
                    std::to_string(attempts) + (attempts == 1 ? " attempt: " : " attempts: ") +
                    last_error);
}

InProcFabric::InProcFabric(util::Clock& clock, net::LinkProfile default_link)
    : clock_(&clock), default_link_(std::move(default_link)) {}

Result<std::string> InProcFabric::listen(const std::string& name, AcceptFn on_accept) {
  std::lock_guard lock(mu_);
  if (listeners_.count(name) != 0) return make_error("fabric: name in use: " + name);
  listeners_[name] =
      std::make_shared<Listener>(Listener{std::move(on_accept), std::nullopt, nullptr});
  return "inproc:" + name;
}

void InProcFabric::unlisten(const std::string& name) {
  // Removing the map entry is not enough: a concurrent dial may have
  // resolved the listener under mu_ and be invoking its AcceptFn outside
  // it. Wait for those dials to drain so the caller may safely destroy
  // whatever the callback captures.
  std::unique_lock lock(mu_);
  listeners_.erase(name);
  idle_cv_.wait(lock, [&] { return dials_in_flight_.count(name) == 0; });
}

void InProcFabric::set_link(const std::string& name, net::LinkProfile profile) {
  std::lock_guard lock(mu_);
  auto it = listeners_.find(name);
  if (it != listeners_.end()) it->second->link = std::move(profile);
}

void InProcFabric::set_fault(const std::string& name, ChannelWrapFn wrap) {
  std::lock_guard lock(mu_);
  auto it = listeners_.find(name);
  if (it != listeners_.end()) it->second->fault_wrap = std::move(wrap);
}

Result<net::ChannelPtr> InProcFabric::dial(const std::string& access_point) {
  auto parsed = net::Endpoint::parse(access_point);
  if (!parsed.ok() || parsed.value().scheme != net::Endpoint::Scheme::InProc)
    return make_error("fabric: not an inproc access point: " + access_point);
  const std::string name = parsed.value().name;
  std::shared_ptr<Listener> listener;
  net::LinkProfile link = default_link_;
  {
    std::lock_guard lock(mu_);
    auto it = listeners_.find(name);
    if (it == listeners_.end()) return make_error("fabric: no listener at " + access_point);
    listener = it->second;
    if (listener->link.has_value()) link = *listener->link;
    ++dials_in_flight_[name];
  }
  auto [client_end, server_end] =
      link.bandwidth_bps > 0 || link.latency_s > 0
          ? net::make_simulated_pair(*clock_, link)
          : net::make_channel_pair();
  // The shared_ptr keeps the listener alive even if unlisten() runs now;
  // unlisten blocks until the in-flight count drains.
  if (listener->fault_wrap) client_end = listener->fault_wrap(std::move(client_end));
  listener->on_accept(std::move(server_end));
  {
    std::lock_guard lock(mu_);
    auto it = dials_in_flight_.find(name);
    if (--it->second == 0) dials_in_flight_.erase(it);
  }
  idle_cv_.notify_all();
  return client_end;
}

// Accepts arrive on the shared event loop; `gate` serializes the callback
// against teardown so unlisten() keeps its "no accepts after return"
// guarantee without a thread to join.
struct TcpFabric::Listener {
  struct AcceptGate {
    std::mutex mu;
    AcceptFn fn;
  };
  std::shared_ptr<AcceptGate> gate = std::make_shared<AcceptGate>();
  std::unique_ptr<net::ReactorListener> reactor;

  ~Listener() {
    if (reactor) reactor->close();
    // Blocks until any in-flight accept callback finishes, then disarms
    // future ones (the event loop may still hold a copy).
    std::lock_guard lock(gate->mu);
    gate->fn = nullptr;
  }
};

Result<std::string> TcpFabric::listen(const std::string& name, AcceptFn on_accept) {
  auto listener = std::make_unique<Listener>();
  listener->gate->fn = std::move(on_accept);
  auto bound = net::Reactor::global().listen(0, [gate = listener->gate](net::ChannelPtr channel) {
    std::lock_guard lock(gate->mu);
    if (gate->fn) gate->fn(std::move(channel));
  });
  if (!bound.ok()) return make_error(bound.error());
  listener->reactor = std::move(bound).take();
  const uint16_t port = listener->reactor->port();
  {
    std::lock_guard lock(mu_);
    listeners_[name] = std::move(listener);
  }
  return net::Endpoint::tcp("127.0.0.1", port).to_string();
}

void TcpFabric::unlisten(const std::string& name) {
  std::unique_ptr<Listener> doomed;
  {
    std::lock_guard lock(mu_);
    auto it = listeners_.find(name);
    if (it == listeners_.end()) return;
    doomed = std::move(it->second);
    listeners_.erase(it);
  }
  // Destructor closes the listener and drains its gate outside the lock.
}

Result<net::ChannelPtr> TcpFabric::dial(const std::string& access_point) {
  auto parsed = net::Endpoint::parse(access_point);
  if (!parsed.ok()) return make_error("fabric: " + parsed.error());
  const net::Endpoint& endpoint = parsed.value();
  if (endpoint.scheme != net::Endpoint::Scheme::Tcp)
    return make_error("fabric: not a tcp access point: " + access_point);
  return net::tcp_connect(endpoint.host, endpoint.port);
}

TcpFabric::TcpFabric() = default;
TcpFabric::~TcpFabric() = default;

}  // namespace rave::core
