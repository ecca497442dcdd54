// RaveGrid: assembles a whole RAVE deployment — UDDI registry, per-host
// Axis-style SOAP containers, data services, render services — on one
// fabric, so tests, benches and examples can stand up the paper's
// heterogeneous testbed (§4.4) in a few lines. Discovery follows the
// paper's flow exactly: UDDI access points are SOAP (Axis) endpoints;
// binary data-plane sockets are exchanged during SOAP subscription
// (§4.3).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "core/data_service.hpp"
#include "core/fabric.hpp"
#include "core/render_service.hpp"
#include "core/status.hpp"
#include "core/thin_client.hpp"
#include "obs/canary.hpp"
#include "obs/collector.hpp"
#include "obs/slo.hpp"
#include "services/container.hpp"
#include "services/registry.hpp"

namespace rave::core {

class RaveGrid {
 public:
  explicit RaveGrid(util::Clock& clock, net::LinkProfile default_link = {});

  [[nodiscard]] util::Clock& clock() { return *clock_; }
  [[nodiscard]] InProcFabric& fabric() { return fabric_; }
  [[nodiscard]] services::UddiRegistry& registry() { return registry_; }

  // --- hosts -----------------------------------------------------------------
  // Host a data service on `host`; exposes its SOAP endpoint and binary
  // data endpoint on the fabric.
  DataService& add_data_service(const std::string& host, DataService::Options options = {});

  // Host a render service on `host` with the given machine profile.
  RenderService& add_render_service(const std::string& host,
                                    RenderService::Options options = {});

  [[nodiscard]] DataService* data_service(const std::string& host);
  [[nodiscard]] RenderService* render_service(const std::string& host);
  [[nodiscard]] services::ServiceContainer* container(const std::string& host);

  // Access points.
  [[nodiscard]] std::string data_access_point(const std::string& host) const;
  [[nodiscard]] std::string soap_access_point(const std::string& host) const;

  // --- wiring -------------------------------------------------------------------
  // Subscribe `render_host`'s service to `session` on `data_host` and pump
  // until the bootstrap snapshot lands.
  util::Status join(const std::string& render_host, const std::string& data_host,
                    const std::string& session);

  // Advertise every hosted service in the registry (WSDL tModels, business
  // per host, bindings pointing at SOAP endpoints).
  void advertise_all();

  // A SOAP proxy to any host's container endpoint.
  util::Result<services::ServiceProxy> soap_proxy(const std::string& host,
                                                  const std::string& endpoint);

  // --- recruitment ------------------------------------------------------------
  // Discover render services in the registry that are not subscribed to
  // `session` on `data_host` and ask them (SOAP createInstance) to join.
  // Wired automatically as each data service's recruiter.
  size_t recruit(const std::string& data_host, const std::string& session);

  // --- processing --------------------------------------------------------------
  size_t pump_all();
  // Pump until the grid quiesces: no handler makes progress and no message
  // is still in flight on a simulated link (idle rounds advance the clock).
  void pump_until_idle(int max_rounds = 5000);

  // --- fig. 4: the simple UDDI registry browser ----------------------------------
  [[nodiscard]] std::string registry_listing() const;

  // --- status interrogation (§4.3) -------------------------------------------------
  // Query every host's "status" SOAP endpoint and return the fleet view.
  [[nodiscard]] std::vector<HostStatus> collect_status();
  [[nodiscard]] std::string status_dashboard();

  // --- telemetry plane ---------------------------------------------------------
  // Stand up the SLO engine next to the data services, and the central
  // collector if the health plane has not built it yet (`options` apply
  // only when this call builds it). Every current and future host becomes
  // a collector target: once per interval the collector pulls its status
  // "snapshot" SOAP method over the fabric (reachability gated by
  // dial_retry, so a killed host records a telemetry *gap*, never a
  // service failure), tags the metric series by host, keeps its flight
  // events for the merged timeline, and the SLO engine evaluates the
  // objectives after each poll round. Every data service's advisor then
  // reports SLO burns and step-change anomalies to plan_migration.
  void enable_telemetry(obs::Collector::Options options = {},
                        std::vector<obs::SloSpec> slos = obs::default_render_slos());
  [[nodiscard]] obs::Collector* collector() { return collector_.get(); }
  [[nodiscard]] obs::SloEngine* slo_engine() { return slo_.get(); }
  // Retry policy for the collector's transport; set before enabling
  // either plane.
  void set_scrape_retry(RetryPolicy policy) { scrape_retry_ = policy; }

  // The rave-top view: sparklines + SLO states + last-migration explain.
  [[nodiscard]] std::string telemetry_dashboard();

  // --- health plane -----------------------------------------------------------
  // Stand up the grid health plane: blackbox canary probes, plus the
  // central collector (default options) if telemetry has not built it
  // yet — its pulls feed the merged cross-host timeline either way. Every
  // data service's advisor reports the canary's verdicts (Unhealthy
  // condemns a service before its lease lapses), and each host's status
  // snapshot starts carrying its canary verdict. Idempotent.
  void enable_health_plane(obs::Canary::Options canary_options = {});
  [[nodiscard]] obs::Canary* canary() { return canary_.get(); }

  // Arm one canary probe set per render-service host subscribed to
  // `session` (hosts without a render service are skipped). Requires
  // enable_health_plane.
  void watch_streams(const std::string& session);

  // The merged causally-ordered grid timeline as text ("" until either
  // plane is up; empty of events until a poll round has run).
  [[nodiscard]] std::string timeline_text();

 private:
  struct Host {
    std::string name;
    std::unique_ptr<services::ServiceContainer> container;
    std::string soap_access_point;
    std::unique_ptr<DataService> data;
    std::string data_access_point;
    std::unique_ptr<RenderService> render;
  };

  Host& host_slot(const std::string& name);
  // Build the collector (first plane enabled) and target every host.
  void build_collector(obs::Collector::Options options);
  void add_scrape_target(Host& host);
  void wire_advisor(DataService& data);
  [[nodiscard]] HealthReportFn health_report_fn(const std::string& host);

  util::Clock* clock_;
  InProcFabric fabric_;
  services::UddiRegistry registry_;
  services::ServiceContainer registry_container_;
  std::string registry_access_point_;
  std::map<std::string, Host> hosts_;
  // Collector (null until either plane is enabled).
  std::unique_ptr<obs::Collector> collector_;
  // Telemetry plane (null until enable_telemetry).
  std::unique_ptr<obs::SloEngine> slo_;
  // Health plane (null until enable_health_plane).
  std::unique_ptr<obs::Canary> canary_;
  RetryPolicy scrape_retry_{/*max_attempts=*/2, /*initial_backoff=*/0.05};
};

}  // namespace rave::core
