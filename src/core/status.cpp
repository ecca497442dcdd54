#include "core/status.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"

namespace rave::core {

using obs::HealthState;
using obs::HealthVerdict;
using services::SoapList;
using services::SoapStruct;
using services::SoapValue;
using util::Result;

namespace {
HealthState health_state_from(const std::string& name) {
  for (HealthState state : {HealthState::Healthy, HealthState::Degraded, HealthState::Unhealthy})
    if (name == to_string(state)) return state;
  return HealthState::Unknown;
}
}  // namespace

void register_status_endpoint(services::ServiceContainer& container, const std::string& host,
                              DataService* data, RenderService* render, HealthReportFn health) {
  container.register_method(
      "status", "report",
      [&container, host, data, render, health](const SoapList&) -> Result<SoapValue> {
        SoapStruct out;
        out["host"] = host;
        out["hasDataService"] = data != nullptr;
        out["hasRenderService"] = render != nullptr;
        const services::ContainerStats stats = container.stats();
        out["soapCalls"] = static_cast<int64_t>(stats.calls_served);
        out["soapFaults"] = static_cast<int64_t>(stats.faults);
        if (health) {
          const HealthVerdict verdict = health();
          out["healthState"] = std::string(to_string(verdict.state));
          if (!verdict.reason.empty()) out["healthReason"] = verdict.reason;
        }
        if (data != nullptr) {
          out["leaseExpiries"] = static_cast<int64_t>(data->stats().lease_expiries);
          out["canaryEvictions"] = static_cast<int64_t>(data->stats().canary_evictions);
          out["recoveries"] = static_cast<int64_t>(data->stats().recoveries);
          // The most recent migration plan's explain summary across this
          // host's sessions, so "why did the planner do that" is one
          // status call away.
          std::string last_migration;
          for (const std::string& name : data->session_names())
            last_migration += data->last_plan_summary(name);
          if (!last_migration.empty()) out["lastMigration"] = std::move(last_migration);
        }

        SoapList sessions;
        if (data != nullptr) {
          for (const std::string& name : data->session_names()) {
            const scene::SceneTree* tree = data->session_tree(name);
            SoapStruct session;
            session["name"] = name;
            session["nodes"] = static_cast<int64_t>(tree->node_count());
            session["triangles"] = static_cast<int64_t>(tree->total_metrics().triangles);
            session["updates"] = static_cast<int64_t>(data->committed_updates(name));
            session["subscribers"] = static_cast<int64_t>(data->subscribers(name).size());
            sessions.push_back(std::move(session));
          }
        }
        out["sessions"] = std::move(sessions);

        SoapList renders;
        if (render != nullptr) {
          SoapStruct entry;
          entry["host"] = host;
          SoapList session_names;
          for (const std::string& name : render->session_names())
            session_names.push_back(name);
          entry["sessions"] = std::move(session_names);
          entry["framesRendered"] = static_cast<int64_t>(render->stats().frames_rendered);
          entry["peerTiles"] = static_cast<int64_t>(render->stats().peer_tiles_rendered);
          entry["updatesApplied"] = static_cast<int64_t>(render->stats().updates_applied);
          entry["lastFrameSeconds"] = render->last_frame_seconds();
          entry["polygonsPerSec"] = render->capacity().polygons_per_sec;
          entry["peerFailures"] = static_cast<int64_t>(render->stats().peer_failures);
          entry["tilesRedispatched"] =
              static_cast<int64_t>(render->stats().tiles_redispatched);
          entry["delayedQueue"] = static_cast<int64_t>(render->delayed_queue_depth());
          if (const obs::Histogram* latency = render->frame_latency()) {
            entry["frameP50"] = latency->quantile(0.5);
            entry["frameP99"] = latency->quantile(0.99);
          }
          const RenderService::StreamTotals stream = render->stream_totals();
          entry["fanoutTilesRef"] = static_cast<int64_t>(stream.tiles_ref);
          entry["fanoutTilesData"] = static_cast<int64_t>(stream.tiles_data);
          entry["fanoutEncodeHits"] = static_cast<int64_t>(stream.encode_hits);
          entry["fanoutEncodeMisses"] = static_cast<int64_t>(stream.encode_misses);
          entry["fanoutBytesSaved"] = static_cast<int64_t>(stream.encode_bytes_saved);
          entry["fanoutMissReplies"] = static_cast<int64_t>(stream.miss_replies);
          entry["fanoutSubscribers"] = static_cast<int64_t>(stream.subscribers);
          entry["volumeRays"] = static_cast<int64_t>(render->stats().volume_rays);
          entry["bricksSkipped"] = static_cast<int64_t>(render->stats().bricks_skipped);
          if (const obs::Histogram* volume = render->volume_latency()) {
            entry["volumeP50"] = volume->quantile(0.5);
            entry["volumeP99"] = volume->quantile(0.99);
          }
          SoapList peer_queues;
          for (const RenderService::PeerQueue& q : render->client_queues()) {
            // Quiet peers (nothing ever queued or shed) stay off the wire.
            if (q.stats.queue_peak_depth == 0 && q.stats.messages_shed == 0) continue;
            SoapStruct peer;
            peer["peer"] = q.peer;
            peer["peakDepth"] = static_cast<int64_t>(q.stats.queue_peak_depth);
            peer["waitSeconds"] = q.stats.queue_wait_seconds;
            peer["shed"] = static_cast<int64_t>(q.stats.messages_shed);
            peer_queues.push_back(std::move(peer));
          }
          entry["peerQueues"] = std::move(peer_queues);
          renders.push_back(std::move(entry));
        }
        out["renders"] = std::move(renders);
        return SoapValue{std::move(out)};
      });

  // The collector's one pull per tick: the registry scrape and the
  // flight-recorder export as text blobs, plus the canary verdict for this
  // host's render service (an unwired host answers "unknown", so pollers
  // need no special case).
  container.register_method(
      "status", "snapshot", [host, health](const SoapList&) -> Result<SoapValue> {
        HealthVerdict verdict;
        if (health) verdict = health();
        SoapStruct canary;
        canary["host"] = verdict.host.empty() ? host : verdict.host;
        canary["state"] = std::string(to_string(verdict.state));
        canary["reason"] = verdict.reason;
        canary["framesOk"] = static_cast<int64_t>(verdict.frames_ok);
        canary["framesLate"] = static_cast<int64_t>(verdict.frames_late);
        canary["framesFailed"] = static_cast<int64_t>(verdict.frames_failed);
        canary["joinSeconds"] = verdict.join_seconds;
        canary["lastFrameAge"] = verdict.last_frame_age;
        SoapStruct out;
        out["metrics"] = obs::MetricsRegistry::global().scrape();
        out["flight"] = obs::FlightRecorder::global().export_events();
        out["health"] = SoapValue{std::move(canary)};
        return SoapValue{std::move(out)};
      });
}

Result<obs::HostSnapshot> parse_status_snapshot(const SoapValue& value) {
  if (value.as_struct() == nullptr) return util::make_error("snapshot: not a struct");
  obs::HostSnapshot snapshot;
  snapshot.metrics = value.field("metrics").as_string();
  snapshot.flight = value.field("flight").as_string();
  const SoapValue canary = value.field("health");
  HealthVerdict& verdict = snapshot.health;
  verdict.host = canary.field("host").as_string();
  verdict.state = health_state_from(canary.field("state").as_string());
  verdict.reason = canary.field("reason").as_string();
  verdict.frames_ok = static_cast<uint64_t>(canary.field("framesOk").as_int());
  verdict.frames_late = static_cast<uint64_t>(canary.field("framesLate").as_int());
  verdict.frames_failed = static_cast<uint64_t>(canary.field("framesFailed").as_int());
  verdict.join_seconds = canary.field("joinSeconds").as_double();
  verdict.last_frame_age = canary.field("lastFrameAge").as_double();
  return snapshot;
}

Result<HostStatus> parse_host_status(const SoapValue& value) {
  if (value.as_struct() == nullptr) return util::make_error("status: not a struct");
  HostStatus status;
  status.host = value.field("host").as_string();
  status.has_data_service = value.field("hasDataService").as_bool();
  status.has_render_service = value.field("hasRenderService").as_bool();
  status.soap_calls_served = static_cast<uint64_t>(value.field("soapCalls").as_int());
  status.soap_faults = static_cast<uint64_t>(value.field("soapFaults").as_int());
  status.lease_expiries = static_cast<uint64_t>(value.field("leaseExpiries").as_int());
  status.canary_evictions = static_cast<uint64_t>(value.field("canaryEvictions").as_int());
  status.recoveries = static_cast<uint64_t>(value.field("recoveries").as_int());
  status.last_migration = value.field("lastMigration").as_string();
  status.health_state = health_state_from(value.field("healthState").as_string());
  status.health_reason = value.field("healthReason").as_string();
  // field() returns by value: keep the temporaries alive while iterating.
  const SoapValue sessions_value = value.field("sessions");
  if (const SoapList* sessions = sessions_value.as_list()) {
    for (const SoapValue& entry : *sessions) {
      SessionStatus session;
      session.name = entry.field("name").as_string();
      session.nodes = static_cast<uint64_t>(entry.field("nodes").as_int());
      session.triangles = static_cast<uint64_t>(entry.field("triangles").as_int());
      session.updates = static_cast<uint64_t>(entry.field("updates").as_int());
      session.subscribers = static_cast<size_t>(entry.field("subscribers").as_int());
      status.sessions.push_back(std::move(session));
    }
  }
  const SoapValue renders_value = value.field("renders");
  if (const SoapList* renders = renders_value.as_list()) {
    for (const SoapValue& entry : *renders) {
      RenderStatus render;
      render.host = entry.field("host").as_string();
      const SoapValue names_value = entry.field("sessions");
      if (const SoapList* names = names_value.as_list())
        for (const SoapValue& name : *names) render.sessions.push_back(name.as_string());
      render.frames_rendered = static_cast<uint64_t>(entry.field("framesRendered").as_int());
      render.peer_tiles_rendered = static_cast<uint64_t>(entry.field("peerTiles").as_int());
      render.updates_applied = static_cast<uint64_t>(entry.field("updatesApplied").as_int());
      render.last_frame_seconds = entry.field("lastFrameSeconds").as_double();
      render.polygons_per_sec = entry.field("polygonsPerSec").as_double();
      render.peer_failures = static_cast<uint64_t>(entry.field("peerFailures").as_int());
      render.tiles_redispatched =
          static_cast<uint64_t>(entry.field("tilesRedispatched").as_int());
      render.delayed_queue_depth = static_cast<uint64_t>(entry.field("delayedQueue").as_int());
      render.frame_p50_seconds = entry.field("frameP50").as_double();
      render.frame_p99_seconds = entry.field("frameP99").as_double();
      render.fanout_tiles_ref = static_cast<uint64_t>(entry.field("fanoutTilesRef").as_int());
      render.fanout_tiles_data = static_cast<uint64_t>(entry.field("fanoutTilesData").as_int());
      render.fanout_encode_hits =
          static_cast<uint64_t>(entry.field("fanoutEncodeHits").as_int());
      render.fanout_encode_misses =
          static_cast<uint64_t>(entry.field("fanoutEncodeMisses").as_int());
      render.fanout_bytes_saved =
          static_cast<uint64_t>(entry.field("fanoutBytesSaved").as_int());
      render.fanout_miss_replies =
          static_cast<uint64_t>(entry.field("fanoutMissReplies").as_int());
      render.fanout_subscribers =
          static_cast<uint64_t>(entry.field("fanoutSubscribers").as_int());
      render.volume_rays = static_cast<uint64_t>(entry.field("volumeRays").as_int());
      render.bricks_skipped = static_cast<uint64_t>(entry.field("bricksSkipped").as_int());
      render.volume_p50_seconds = entry.field("volumeP50").as_double();
      render.volume_p99_seconds = entry.field("volumeP99").as_double();
      const SoapValue queues_value = entry.field("peerQueues");
      if (const SoapList* queues = queues_value.as_list()) {
        for (const SoapValue& q : *queues) {
          RenderStatus::PeerQueueStatus peer;
          peer.peer = q.field("peer").as_string();
          peer.peak_depth = static_cast<uint64_t>(q.field("peakDepth").as_int());
          peer.wait_seconds = q.field("waitSeconds").as_double();
          peer.shed = static_cast<uint64_t>(q.field("shed").as_int());
          render.peer_queues.push_back(std::move(peer));
        }
      }
      status.renders.push_back(std::move(render));
    }
  }
  return status;
}

std::string format_dashboard(const std::vector<HostStatus>& hosts) {
  std::ostringstream out;
  out << "RAVE grid status (" << hosts.size() << " host(s))\n";
  for (const HostStatus& host : hosts) {
    out << "== " << host.host;
    if (host.has_data_service) out << "  [data]";
    if (host.has_render_service) out << "  [render]";
    out << "  soap calls: " << host.soap_calls_served << " (" << host.soap_faults
        << " faults)\n";
    if (host.health_state != HealthState::Unknown) {
      out << "   health: " << to_string(host.health_state);
      if (!host.health_reason.empty()) out << " (" << host.health_reason << ")";
      out << "\n";
    }
    if (host.lease_expiries > 0 || host.recoveries > 0 || host.canary_evictions > 0) {
      out << "   failures: " << host.lease_expiries << " lease expiries, " << host.recoveries
          << " recovery round(s)";
      if (host.canary_evictions > 0)
        out << ", " << host.canary_evictions << " canary eviction(s)";
      out << "\n";
    }
    if (!host.last_migration.empty())
      out << "   last migration plan:\n" << host.last_migration;
    for (const SessionStatus& session : host.sessions) {
      out << "   session '" << session.name << "': " << session.nodes << " nodes, "
          << session.triangles << " triangles, " << session.updates << " updates, "
          << session.subscribers << " subscriber(s)\n";
    }
    for (const RenderStatus& render : host.renders) {
      out << "   renderer: " << render.frames_rendered << " frames, "
          << render.peer_tiles_rendered << " peer tiles, " << render.updates_applied
          << " updates applied";
      if (render.last_frame_seconds > 0)
        out << ", last frame " << static_cast<int>(render.last_frame_seconds * 1000) << " ms";
      if (render.frame_p99_seconds > 0)
        out << ", p50/p99 " << static_cast<int>(render.frame_p50_seconds * 1000) << "/"
            << static_cast<int>(render.frame_p99_seconds * 1000) << " ms";
      if (render.peer_failures > 0 || render.tiles_redispatched > 0)
        out << "\n    fault churn: " << render.peer_failures << " peer failure(s), "
            << render.tiles_redispatched << " tile(s) re-dispatched";
      if (render.delayed_queue_depth > 0)
        out << "\n    delayed sends queued: " << render.delayed_queue_depth;
      if (render.fanout_tiles_ref + render.fanout_tiles_data > 0) {
        const uint64_t tiles = render.fanout_tiles_ref + render.fanout_tiles_data;
        const uint64_t encodes = render.fanout_encode_hits + render.fanout_encode_misses;
        out << "\n    fanout cache: " << render.fanout_tiles_ref << "/" << tiles
            << " tiles as refs (" << (100 * render.fanout_tiles_ref / tiles) << "% hit)";
        if (encodes > 0)
          out << ", encode memo " << render.fanout_encode_hits << "/" << encodes << " hits ("
              << render.fanout_bytes_saved << " bytes saved)";
        if (render.fanout_miss_replies > 0)
          out << ", " << render.fanout_miss_replies << " miss fallback(s)";
        out << ", " << render.fanout_subscribers << " stream subscriber(s)";
      }
      if (render.volume_rays > 0) {
        out << "\n    volume: " << render.volume_rays << " rays, " << render.bricks_skipped
            << " bricks skipped";
        if (render.volume_p99_seconds > 0)
          out << ", p50/p99 " << static_cast<int>(render.volume_p50_seconds * 1000) << "/"
              << static_cast<int>(render.volume_p99_seconds * 1000) << " ms";
      }
      for (const RenderStatus::PeerQueueStatus& q : render.peer_queues) {
        out << "\n    net " << q.peer << ": peak queue " << q.peak_depth << ", waited "
            << static_cast<int>(q.wait_seconds * 1000) << " ms";
        if (q.shed > 0) out << ", " << q.shed << " shed";
      }
      out << "\n   sessions:";
      for (const std::string& name : render.sessions) out << " " << name;
      out << "\n";
    }
  }
  return out.str();
}

namespace {
constexpr size_t kSparkWidth = 24;  // trailing points per dashboard sparkline

// Per-interval rate of a cumulative counter series: one value per adjacent
// point pair, trimmed to the trailing `n`.
std::vector<double> rate_series(const obs::TimeSeriesStore& store, const obs::SeriesKey& key,
                                size_t n) {
  const std::vector<obs::SeriesPoint> points = store.points(key);
  std::vector<double> rates;
  for (size_t i = 1; i < points.size(); ++i) {
    const double dt = points[i].t - points[i - 1].t;
    if (dt <= 0) continue;
    rates.push_back((points[i].value - points[i - 1].value) / dt);
  }
  if (rates.size() > n) rates.erase(rates.begin(), rates.end() - static_cast<ptrdiff_t>(n));
  return rates;
}

// Mean frame seconds per scrape interval: Δsum / Δcount of the histogram's
// cumulative _sum and _count series (scraped together, so aligned tails).
std::vector<double> mean_frame_series(const obs::TimeSeriesStore& store,
                                      const obs::SeriesKey& sum_key,
                                      const obs::SeriesKey& count_key, size_t n) {
  const std::vector<obs::SeriesPoint> sums = store.points(sum_key);
  const std::vector<obs::SeriesPoint> counts = store.points(count_key);
  const size_t m = std::min(sums.size(), counts.size());
  std::vector<double> out;
  for (size_t i = 1; i < m; ++i) {
    const obs::SeriesPoint& c1 = counts[counts.size() - m + i];
    const obs::SeriesPoint& c0 = counts[counts.size() - m + i - 1];
    const obs::SeriesPoint& s1 = sums[sums.size() - m + i];
    const obs::SeriesPoint& s0 = sums[sums.size() - m + i - 1];
    const double frames = c1.value - c0.value;
    if (frames <= 0) continue;
    out.push_back((s1.value - s0.value) / frames);
  }
  if (out.size() > n) out.erase(out.begin(), out.end() - static_cast<ptrdiff_t>(n));
  return out;
}

void append_fixed(std::string& out, const char* fmt, double v) {
  char buf[48];
  const int len = std::snprintf(buf, sizeof(buf), fmt, v);
  out.append(buf, static_cast<size_t>(len));
}

// Most recent value of a cumulative series, 0 when never scraped.
double latest_point(const obs::TimeSeriesStore& store, const obs::SeriesKey& key) {
  const std::vector<obs::SeriesPoint> points = store.points(key);
  return points.empty() ? 0.0 : points.back().value;
}
}  // namespace

std::string format_telemetry_dashboard(const std::vector<HostStatus>& hosts,
                                       const obs::Collector& collector,
                                       const obs::SloEngine& slo, double now,
                                       const std::vector<obs::SpanRecord>& spans) {
  const obs::TimeSeriesStore& store = collector.store();
  std::string out = "RAVE telemetry t=";
  append_fixed(out, "%.1f", now);
  out += "s (" + std::to_string(hosts.size()) + " host(s), " +
         std::to_string(store.series_count()) + " series)\n";

  std::map<std::string, obs::Collector::TargetHealth> health;
  for (const obs::Collector::TargetHealth& h : collector.health()) health[h.host] = h;

  for (const HostStatus& host : hosts) {
    out += "== " + host.host;
    if (host.has_data_service) out += "  [data]";
    if (host.has_render_service) out += "  [render]";
    const auto it = health.find(host.host);
    if (it != health.end()) {
      out += "  scrapes " + std::to_string(it->second.scrapes);
      if (it->second.gaps > 0) {
        out += " (" + std::to_string(it->second.gaps) + " gap(s)";
        if (!it->second.last_error.empty()) out += ": " + it->second.last_error;
        out += ")";
      }
    }
    if (host.health_state != HealthState::Unknown) {
      out += "  health ";
      out += to_string(host.health_state);
    }
    out += "\n";
    if (host.health_state >= HealthState::Degraded && !host.health_reason.empty())
      out += "   canary   " + host.health_reason + "\n";

    if (host.has_render_service) {
      const std::string labels = "{host=\"" + host.host + "\"}";
      const obs::SeriesKey sum_key{host.host, "rave_frame_seconds_sum", labels};
      const obs::SeriesKey count_key{host.host, "rave_frame_seconds_count", labels};
      const std::vector<double> frame_ms =
          mean_frame_series(store, sum_key, count_key, kSparkWidth);
      if (!frame_ms.empty()) {
        out += "   frame ms " + obs::sparkline(frame_ms) + " last ";
        append_fixed(out, "%.1f", frame_ms.back() * 1000.0);
        const double p99 =
            store.windowed_quantile(host.host, "rave_frame_seconds", labels, 0.99, 5.0, now);
        if (p99 > 0) {
          out += "  p99(5s) ";
          append_fixed(out, "%.1f", p99 * 1000.0);
        }
        out += "\n";
      }
      const std::vector<double> fps = rate_series(store, count_key, kSparkWidth);
      if (!fps.empty()) {
        out += "   fps      " + obs::sparkline(fps) + " last ";
        append_fixed(out, "%.1f", fps.back());
        out += "\n";
      }
      // Fan-out cache line: how much of the tile traffic the
      // content-addressed cache turned into references, and how much
      // encode work the per-class memo absorbed.
      for (const RenderStatus& render : host.renders) {
        const uint64_t tiles = render.fanout_tiles_ref + render.fanout_tiles_data;
        if (tiles == 0) continue;
        const uint64_t encodes = render.fanout_encode_hits + render.fanout_encode_misses;
        out += "   fanout   " + std::to_string(render.fanout_tiles_ref) + "/" +
               std::to_string(tiles) + " refs (";
        append_fixed(out, "%.0f", 100.0 * static_cast<double>(render.fanout_tiles_ref) /
                                      static_cast<double>(tiles));
        out += "% cache)";
        if (encodes > 0) {
          out += "  memo ";
          append_fixed(out, "%.0f", 100.0 * static_cast<double>(render.fanout_encode_hits) /
                                        static_cast<double>(encodes));
          out += "% hit, " + std::to_string(render.fanout_bytes_saved) + " B saved";
        }
        out += "  subs " + std::to_string(render.fanout_subscribers);
        if (render.fanout_miss_replies > 0)
          out += "  miss-fallbacks " + std::to_string(render.fanout_miss_replies);
        out += "\n";
      }
      // Relay cache effectiveness scraped off this host: tile misses a
      // relay answered from its own cache vs forwarded to the publisher.
      const double relay_hits =
          latest_point(store, {host.host, "rave_fanout_relay_total", "{result=\"hit\"}"});
      const double relay_total =
          relay_hits +
          latest_point(store, {host.host, "rave_fanout_relay_total", "{result=\"forward\"}"});
      if (relay_total > 0) {
        out += "   relay    ";
        append_fixed(out, "%.0f", relay_hits);
        out += "/";
        append_fixed(out, "%.0f", relay_total);
        out += " misses served locally (";
        append_fixed(out, "%.0f", 100.0 * relay_hits / relay_total);
        out += "% hit)\n";
      }
      // Reactor write-queue residency: how deep the bounded queues sit now
      // and how long a frame waited between enqueue and sendmsg.
      const double queue_depth =
          latest_point(store, {host.host, "rave_net_write_queue_depth", ""});
      const double wait_p99 =
          store.windowed_quantile(host.host, "rave_net_queue_wait_seconds", "", 0.99, 5.0, now);
      if (queue_depth > 0 || wait_p99 > 0) {
        out += "   netq     depth " + std::to_string(static_cast<int64_t>(queue_depth));
        if (wait_p99 > 0) {
          out += "  wait p99(5s) ";
          append_fixed(out, "%.1f", wait_p99 * 1000.0);
          out += " ms";
        }
        out += "\n";
      }
      // Volume marcher cost: mean march seconds per frame alongside the
      // macro-cell skip count (how much marching the grid avoided).
      const std::vector<double> volume_ms = mean_frame_series(
          store, obs::SeriesKey{host.host, "rave_volume_seconds_sum", labels},
          obs::SeriesKey{host.host, "rave_volume_seconds_count", labels}, kSparkWidth);
      if (!volume_ms.empty()) {
        out += "   volume   " + obs::sparkline(volume_ms) + " last ";
        append_fixed(out, "%.1f", volume_ms.back() * 1000.0);
        out += " ms";
        for (const RenderStatus& render : host.renders)
          if (render.bricks_skipped > 0)
            out += "  bricks-skipped " + std::to_string(render.bricks_skipped);
        out += "\n";
      }
      // Frame-phase breakdown: total time per pipeline stage recorded by
      // this host, aggregated across the supplied (stitched) spans.
      std::map<std::string, double> phase_seconds;
      for (const obs::SpanRecord& span : spans)
        if (span.host == host.host) phase_seconds[span.name] += span.end - span.start;
      if (!phase_seconds.empty()) {
        out += "   phases  ";
        bool first = true;
        for (const auto& [name, seconds] : phase_seconds) {
          if (!first) out += " | ";
          first = false;
          out += name + " ";
          append_fixed(out, "%.1f", seconds * 1000.0);
          out += " ms";
        }
        out += "\n";
      }
    }
  }

  const std::string slo_lines = slo.format_current();
  if (!slo_lines.empty()) out += "-- objectives\n" + slo_lines;
  for (const HostStatus& host : hosts)
    if (!host.last_migration.empty())
      out += "-- last migration (" + host.host + ")\n" + host.last_migration;
  return out;
}

}  // namespace rave::core
