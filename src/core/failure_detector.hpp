// Failure detection primitives (paper §3.2.7: the environment must
// "automatically recover" rendering capacity when render-service
// conditions change). Two pieces, both pure decision logic over a
// caller-supplied `now` so they are deterministic under util::SimClock:
//
//  * RetryPolicy — a bounded exponential-backoff schedule shared by
//    fabric dials and request paths. The schedule is a pure function of
//    the attempt index: no jitter, so tests can assert it byte-exactly.
//  * FailureDetector — a lease table. Each monitored peer holds a lease
//    that its heartbeats renew; a peer whose lease lapses is reported
//    exactly once as expired, and the caller (registry pruning, data
//    service re-dispatch, migration planning) decides what recovery
//    looks like.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace rave::core {

struct RetryPolicy {
  int max_attempts = 3;           // total tries, including the first
  double initial_backoff = 0.05;  // seconds before the second attempt
  double multiplier = 2.0;        // backoff growth per further attempt
  double max_backoff = 1.0;       // backoff ceiling, seconds

  // Seconds to wait after failed attempt `attempt` (0-based). The first
  // retry waits initial_backoff, then multiplies, clamped to max_backoff.
  [[nodiscard]] double backoff_after(int attempt) const;

  // The full deterministic wait schedule: one entry per retry, so a
  // policy with max_attempts=4 yields 3 entries.
  [[nodiscard]] std::vector<double> schedule() const;

  // Total time spent sleeping if every attempt fails.
  [[nodiscard]] double total_backoff() const;
};

// Lease/heartbeat tracker. Keys are caller-chosen strings (binding keys,
// subscriber ids rendered as text, access points).
class FailureDetector {
 public:
  explicit FailureDetector(double lease_seconds = 2.0) : lease_seconds_(lease_seconds) {}

  [[nodiscard]] double lease_seconds() const { return lease_seconds_; }
  void set_lease_seconds(double lease_seconds) { lease_seconds_ = lease_seconds; }

  // Start (or restart) monitoring `key`; the lease begins at `now`.
  void watch(const std::string& key, double now);
  // Renew `key`'s lease. Unknown keys are an error — a heartbeat from a
  // peer that was never watched (or already expired and pruned) means the
  // caller's bookkeeping has diverged.
  util::Status heartbeat(const std::string& key, double now);
  // Stop monitoring (graceful departure; no expiry will be reported).
  void forget(const std::string& key);

  [[nodiscard]] bool watching(const std::string& key) const;
  [[nodiscard]] size_t watched_count() const { return last_seen_.size(); }

  // Keys whose lease lapsed as of `now`. Expired keys are removed from
  // the table, so each failure is reported exactly once.
  std::vector<std::string> expired(double now);

  // Condemn `key` out-of-band (health plane: an Unhealthy canary verdict).
  // The key is reported by the next collect_expired() regardless of its
  // lease — eviction *before* expiry — with `reason` attached. Condemning
  // an unwatched key is a no-op (the peer already left or expired).
  void condemn(const std::string& key, const std::string& reason);
  [[nodiscard]] bool condemned(const std::string& key) const;

  struct Expiry {
    std::string key;
    bool condemned = false;  // evicted by verdict, not by lease lapse
    std::string reason;      // condemnation reason; empty for lease expiry
  };
  // expired() plus condemnations: every key whose lease lapsed as of
  // `now` or that was condemned since the last collection, reported
  // exactly once (removed from the table) in deterministic key order.
  std::vector<Expiry> collect_expired(double now);

 private:
  double lease_seconds_;
  std::map<std::string, double> last_seen_;  // ordered: deterministic expiry order
  std::map<std::string, std::string> condemned_;  // key -> reason
};

}  // namespace rave::core
