#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string_view>

namespace rave::obs {

namespace detail {
size_t shard_slot() {
  static std::atomic<size_t> next{0};
  static thread_local size_t slot = next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}
}  // namespace detail

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_.add(v);
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i)
    total += counts_[i].load(std::memory_order_relaxed);
  return total;
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) out[i] = counts_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::quantile(double q) const {
  const std::vector<uint64_t> counts = bucket_counts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0;
  const auto rank = static_cast<uint64_t>(q * static_cast<double>(total - 1)) + 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t before = cumulative;
    cumulative += counts[i];
    if (cumulative < rank) continue;
    // The overflow bucket has no finite upper edge to interpolate against:
    // keep the exact historic behaviour (largest finite bound).
    if (i >= bounds_.size()) return bounds_.empty() ? 0 : bounds_.back();
    // Linear interpolation of the rank's position within the bucket, so
    // estimates move smoothly instead of jumping in bucket-sized steps.
    const double lower = i == 0 ? 0.0 : bounds_[i - 1];
    const double fraction = counts[i] == 0
                                ? 1.0
                                : static_cast<double>(rank - before) /
                                      static_cast<double>(counts[i]);
    return lower + fraction * (bounds_[i] - lower);
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

void Histogram::reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0, std::memory_order_relaxed);
  sum_.set(0);
}

std::vector<double> Histogram::default_latency_buckets() {
  return {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5};
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out << ",";
    out << labels[i].first << "=\"" << labels[i].second << "\"";
  }
  out << "}";
  return out.str();
}

MetricsRegistry::Entry& MetricsRegistry::entry(const std::string& name, const Labels& labels) {
  const std::string rendered = render_labels(labels);
  auto [it, inserted] = entries_.try_emplace(name + rendered);
  if (inserted) {
    it->second.name = name;
    it->second.labels = rendered;
  }
  return it->second;
}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels) {
  std::lock_guard lock(mu_);
  Entry& e = entry(name, labels);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name, const Labels& labels) {
  std::lock_guard lock(mu_);
  Entry& e = entry(name, labels);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const Labels& labels,
                                      std::vector<double> bounds) {
  std::lock_guard lock(mu_);
  Entry& e = entry(name, labels);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

namespace {
// Prometheus-style number rendering appended in place: integers stay
// integral, floats use %g (the historic ostream default). No ostringstream
// on this path — a 1 Hz collector poll must not allocate per tick.
void append_value(std::string& out, double v) {
  char buf[32];
  int len = 0;
  if (v == static_cast<double>(static_cast<int64_t>(v)))
    len = std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  else
    len = std::snprintf(buf, sizeof(buf), "%g", v);
  out.append(buf, static_cast<size_t>(len));
}

void append_count(std::string& out, uint64_t v) {
  char buf[24];
  const int len = std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out.append(buf, static_cast<size_t>(len));
}

// Static one-liners for the known rave_* families, emitted as Prometheus
// `# HELP` comments. Unknown names simply get no HELP line — registration
// stays a plain string, and this path stays allocation-free.
const char* metric_help(std::string_view name) {
  struct HelpEntry {
    std::string_view name;
    const char* help;
  };
  static constexpr HelpEntry kHelp[] = {
      {"rave_canary_frame_age_seconds", "Publish-to-decode age of the canary's last frame"},
      {"rave_canary_frames_total", "Canary probe outcomes by host, class and result"},
      {"rave_canary_join_seconds", "Canary join-to-first-frame latency"},
      {"rave_canary_state", "Canary verdict per host (0 unknown, 1 healthy, 2 degraded, 3 unhealthy)"},
      {"rave_codec_bytes_in_total", "Raw RGB bytes into AdaptiveEncoder (codec ablation)"},
      {"rave_codec_bytes_out_total", "Bytes out of AdaptiveEncoder (codec ablation)"},
      {"rave_codec_decode_ns_total", "Nanoseconds in AdaptiveDecoder (codec ablation)"},
      {"rave_codec_encode_ns_total", "Nanoseconds in AdaptiveEncoder (codec ablation)"},
      {"rave_codec_frames_total", "Frames through AdaptiveEncoder (codec ablation)"},
      {"rave_collector_gaps_total", "Failed status snapshot pulls (unreachable target)"},
      {"rave_data_updates_committed_total", "Scene updates committed by the data service"},
      {"rave_events_total", "Structured log events by component and severity"},
      {"rave_fabric_dial_failures_total", "Dials that exhausted their retry budget"},
      {"rave_fabric_dial_retries_total", "Dial attempts beyond the first"},
      {"rave_fabric_dials_total", "Connection attempts through the fabric"},
      {"rave_fanout_bytes_total", "Stream bytes shipped, by tile kind"},
      {"rave_fanout_encode_bytes_saved_total", "Encoded bytes reused from the tile cache"},
      {"rave_fanout_encode_total", "Tile encodes by cache outcome"},
      {"rave_fanout_miss_replies_total", "Full-tile fallbacks served on cache misses"},
      {"rave_fanout_relay_total", "Frames relayed by the fan-out tier"},
      {"rave_fanout_tiles_total", "Stream tiles shipped, by kind (ref/data)"},
      {"rave_frame_seconds", "End-to-end frame render latency"},
      {"rave_net_queue_wait_seconds", "Enqueue-to-sendmsg wait in the reactor write queue"},
      {"rave_net_reactor_accepts_total", "Connections accepted by the reactor"},
      {"rave_net_reactor_connections", "Channels currently open on the reactor"},
      {"rave_net_sends_shed_total", "Messages dropped by the write-queue shed policy"},
      {"rave_net_write_queue_bytes", "Bytes queued for send"},
      {"rave_net_write_queue_depth", "Messages queued for send"},
      {"rave_raster_pixels_shaded_total", "Pixels shaded by the rasterizer"},
      {"rave_raster_triangles_clipped_total", "Triangles rejected by clipping"},
      {"rave_raster_triangles_rasterized_total", "Triangles actually rasterized"},
      {"rave_raster_triangles_submitted_total", "Triangles submitted to the rasterizer"},
      {"rave_raycast_bricks_skipped_total", "Macro-cell bricks skipped by the ray marcher"},
      {"rave_raycast_rays_total", "Rays marched through volumes"},
      {"rave_raycast_samples_total", "Volume samples taken along rays"},
      {"rave_relay_upstream_errors_total", "Fan-out relay upstream connection errors"},
      {"rave_render_delayed_sends", "Depth of the render service's delayed-send queue"},
      {"rave_render_layer_total", "Renders by prefix-layer cache outcome (hit/miss)"},
      {"rave_soap_calls_total", "SOAP calls served by host containers"},
      {"rave_soap_faults_total", "SOAP calls answered with a fault"},
      {"rave_stream_delivery_seconds", "Publish-to-receive latency of streamed frames"},
      {"rave_stream_frame_age_seconds", "Age of frames at the stream receiver"},
      {"rave_volume_seconds", "Per-frame volume ray-marching time"},
  };
  for (const HelpEntry& e : kHelp)
    if (e.name == name) return e.help;
  return nullptr;
}
}  // namespace

void MetricsRegistry::scrape_into(std::string& out) const {
  std::lock_guard lock(mu_);
  out.clear();
  out.reserve(last_scrape_size_);
  std::string_view last_typed;
  for (const auto& [key, e] : entries_) {
    if (e.name != last_typed) {
      if (const char* help = metric_help(e.name)) {
        out += "# HELP ";
        out += e.name;
        out += " ";
        out += help;
        out += "\n";
      }
      const char* type = e.counter ? "counter" : e.gauge ? "gauge" : "histogram";
      out += "# TYPE ";
      out += e.name;
      out += " ";
      out += type;
      out += "\n";
      last_typed = e.name;
    }
    if (e.counter) {
      out += e.name;
      out += e.labels;
      out += " ";
      append_count(out, e.counter->value());
      out += "\n";
    }
    if (e.gauge) {
      out += e.name;
      out += e.labels;
      out += " ";
      append_value(out, e.gauge->value());
      out += "\n";
    }
    if (e.histogram) {
      const auto& bounds = e.histogram->bounds();
      const auto counts = e.histogram->bucket_counts();
      // Prometheus buckets are cumulative.
      uint64_t cumulative = 0;
      for (size_t i = 0; i <= bounds.size(); ++i) {
        cumulative += counts[i];
        out += e.name;
        out += "_bucket";
        if (e.labels.empty()) {
          out += "{";
        } else {
          out.append(e.labels, 0, e.labels.size() - 1);
          out += ",";
        }
        out += "le=\"";
        if (i < bounds.size())
          append_value(out, bounds[i]);
        else
          out += "+Inf";
        out += "\"} ";
        append_count(out, cumulative);
        out += "\n";
      }
      out += e.name;
      out += "_sum";
      out += e.labels;
      out += " ";
      append_value(out, e.histogram->sum());
      out += "\n";
      out += e.name;
      out += "_count";
      out += e.labels;
      out += " ";
      append_count(out, cumulative);
      out += "\n";
    }
  }
  if (out.size() > last_scrape_size_) last_scrape_size_ = out.size();
}

std::string MetricsRegistry::scrape() const {
  std::string out;
  scrape_into(out);
  return out;
}

void MetricsRegistry::samples_into(std::vector<MetricSample>& out) const {
  std::lock_guard lock(mu_);
  size_t n = 0;
  // Assign into existing slots so element strings keep their capacity.
  const auto emit = [&](const std::string& name, const char* suffix,
                        const std::string& labels, double value) {
    if (n == out.size()) out.emplace_back();
    MetricSample& sample = out[n++];
    sample.name = name;
    if (suffix[0] != '\0') sample.name += suffix;
    sample.labels = labels;
    sample.value = value;
  };
  for (const auto& [key, e] : entries_) {
    if (e.counter) emit(e.name, "", e.labels, static_cast<double>(e.counter->value()));
    if (e.gauge) emit(e.name, "", e.labels, e.gauge->value());
    if (e.histogram) {
      emit(e.name, "_count", e.labels, static_cast<double>(e.histogram->count()));
      emit(e.name, "_sum", e.labels, e.histogram->sum());
      emit(e.name, "_p50", e.labels, e.histogram->quantile(0.50));
      emit(e.name, "_p99", e.labels, e.histogram->quantile(0.99));
    }
  }
  out.resize(n);
}

std::vector<MetricSample> MetricsRegistry::samples() const {
  std::vector<MetricSample> out;
  samples_into(out);
  return out;
}

void MetricsRegistry::reset_values() {
  std::lock_guard lock(mu_);
  for (auto& [key, e] : entries_) {
    if (e.counter) e.counter->reset();
    if (e.gauge) e.gauge->reset();
    if (e.histogram) e.histogram->reset();
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace rave::obs
