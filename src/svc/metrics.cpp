#include "svc/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

namespace dsm::svc {
namespace {

double mean_of(const std::vector<double>& v, std::size_t begin,
               std::size_t end) {
  if (end <= begin) return 0;
  double sum = 0;
  for (std::size_t i = begin; i < end; ++i) sum += v[i];
  return sum / static_cast<double>(end - begin);
}

}  // namespace

void Metrics::on_admission(Admission a) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++c_.submitted;
  switch (a) {
    case Admission::kAccepted: ++c_.accepted; break;
    case Admission::kRejectedFull: ++c_.rejected_full; break;
    case Admission::kRejectedClosed: ++c_.rejected_closed; break;
    case Admission::kRejectedInvalid: ++c_.rejected_invalid; break;
    case Admission::kRejectedFault: ++c_.rejected_fault; break;
    case Admission::kRejectedDuplicate: ++c_.rejected_duplicate; break;
  }
}

void Metrics::on_journal_torn_tail() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++d_.journal_torn_tail;
}

void Metrics::on_journal_corrupt(std::uint64_t records) {
  const std::lock_guard<std::mutex> lock(mu_);
  d_.journal_corrupt += records;
}

void Metrics::on_recovery(std::uint64_t replayed_terminal,
                          std::uint64_t requeued, std::uint64_t quarantined) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++d_.recoveries;
  d_.replayed_terminal += replayed_terminal;
  d_.requeued += requeued;
  d_.quarantined += quarantined;
}

void Metrics::on_snapshot() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++d_.snapshots;
}

void Metrics::on_complete(const JobResult& r) {
  const std::lock_guard<std::mutex> lock(mu_);
  // Retry accounting applies to every fate: a job may retry twice and
  // then be aborted by its deadline, or exhaust its attempts and fail.
  const std::size_t prior_failures = r.attempts.size();
  c_.retry_attempts += prior_failures;
  retry_hist_[std::min(prior_failures,
                       static_cast<std::size_t>(kRetryBuckets - 1))]++;
  if (r.status == JobStatus::kFailed) {
    ++c_.failed;
    return;
  }
  if (r.status == JobStatus::kShed) {
    ++c_.shed;
    return;
  }
  // kOk and kDeadlineMiss both ran to completion with a measured time.
  ++c_.completed;
  if (r.status == JobStatus::kDeadlineMiss) ++c_.deadline_miss;
  if (r.status == JobStatus::kOk && prior_failures > 0) {
    ++c_.retry_successes;
  }
  if (r.measured_ns > 0) {  // mid-run deadline aborts have no measurement
    const auto us = static_cast<std::uint64_t>(
        std::max(0.0, std::floor(r.measured_ns / 1e3)));
    const int bucket = std::min(us == 0 ? 0 : bit_width_u64(us) - 1,
                                kLatencyBuckets - 1);
    ++hist_[bucket];
  }
  if (r.audited) {
    ++c_.audited;
    if (r.plan_hit) ++c_.plan_hits;
  }
  if (r.plan.predicted_raw_ns > 0 && r.measured_ns > 0) {
    rel_err_raw_.push_back(
        std::abs(r.plan.predicted_raw_ns - r.measured_ns) / r.measured_ns);
    rel_err_cal_.push_back(
        std::abs(r.plan.predicted_ns - r.measured_ns) / r.measured_ns);
  }
}

void Metrics::on_remote_dispatch() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.dispatches;
}

void Metrics::on_remote_ack(double host_us) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.acks;
  const auto us =
      static_cast<std::uint64_t>(std::max(0.0, std::floor(host_us)));
  const int bucket = std::min(us == 0 ? 0 : bit_width_u64(us) - 1,
                              kLatencyBuckets - 1);
  ++ack_hist_[bucket];
}

void Metrics::on_redispatch() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.redispatches;
}

void Metrics::on_worker_spawn(bool respawn) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.workers_spawned;
  if (respawn) ++cl_.workers_respawned;
}

void Metrics::on_worker_death() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.worker_deaths;
}

void Metrics::on_worker_retire() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.workers_retired;
}

void Metrics::on_worker_gauge(int free, int working, int draining, int dead,
                              int quarantined) {
  const std::lock_guard<std::mutex> lock(mu_);
  cl_.gauge_free = static_cast<std::uint64_t>(std::max(0, free));
  cl_.gauge_working = static_cast<std::uint64_t>(std::max(0, working));
  cl_.gauge_draining = static_cast<std::uint64_t>(std::max(0, draining));
  cl_.gauge_dead = static_cast<std::uint64_t>(std::max(0, dead));
  cl_.gauge_quarantined = static_cast<std::uint64_t>(std::max(0, quarantined));
  cl_.peak_alive =
      std::max(cl_.peak_alive, cl_.gauge_free + cl_.gauge_working);
}

void Metrics::on_heartbeat() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.heartbeats;
}

void Metrics::on_hedge_issued() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.hedges_issued;
}

void Metrics::on_hedge_won() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.hedges_won;
}

void Metrics::on_hedge_loser() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.hedge_losers;
}

void Metrics::on_integrity_violation() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.integrity_violations;
}

void Metrics::on_worker_quarantine() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++cl_.workers_quarantined;
}

void Metrics::on_degraded_append(std::uint64_t records) {
  const std::lock_guard<std::mutex> lock(mu_);
  dh_.degraded_appends += records;
}

void Metrics::on_non_durable_jobs(std::uint64_t jobs) {
  const std::lock_guard<std::mutex> lock(mu_);
  dh_.non_durable_jobs += jobs;
}

void Metrics::on_durability_heal() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++dh_.heals;
}

void Metrics::on_snapshot_failure() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++dh_.snapshot_failures;
}

void Metrics::on_fault(FaultSite site) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++faults_[static_cast<std::size_t>(site)];
}

void Metrics::note_queue_depth(std::size_t depth) {
  const std::lock_guard<std::mutex> lock(mu_);
  depth_high_water_ = std::max(depth_high_water_, depth);
}

Metrics::Counters Metrics::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return c_;
}

Metrics::Durability Metrics::durability() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return d_;
}

Metrics::Cluster Metrics::cluster() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return cl_;
}

Metrics::DiskHealth Metrics::disk_health() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dh_;
}

Metrics::State Metrics::export_state() const {
  const std::lock_guard<std::mutex> lock(mu_);
  State s;
  s.counters = c_;
  s.durability = d_;
  s.depth_high_water = depth_high_water_;
  s.latency_hist.assign(hist_, hist_ + kLatencyBuckets);
  s.retry_hist.assign(retry_hist_, retry_hist_ + kRetryBuckets);
  s.faults.assign(faults_, faults_ + kFaultSiteCount);
  s.rel_err_raw = rel_err_raw_;
  s.rel_err_cal = rel_err_cal_;
  return s;
}

void Metrics::import_state(const State& s) {
  DSM_REQUIRE(s.latency_hist.size() == kLatencyBuckets &&
                  s.retry_hist.size() == kRetryBuckets &&
                  s.faults.size() == kFaultSiteCount,
              "metrics snapshot histogram sizes mismatch");
  const std::lock_guard<std::mutex> lock(mu_);
  c_ = s.counters;
  d_ = s.durability;
  depth_high_water_ = s.depth_high_water;
  std::copy(s.latency_hist.begin(), s.latency_hist.end(), hist_);
  std::copy(s.retry_hist.begin(), s.retry_hist.end(), retry_hist_);
  std::copy(s.faults.begin(), s.faults.end(), faults_);
  rel_err_raw_ = s.rel_err_raw;
  rel_err_cal_ = s.rel_err_cal;
}

Metrics::Accuracy Metrics::accuracy() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Accuracy a;
  a.count = rel_err_cal_.size();
  a.mean_rel_err_raw = mean_of(rel_err_raw_, 0, rel_err_raw_.size());
  a.mean_rel_err_cal = mean_of(rel_err_cal_, 0, rel_err_cal_.size());
  const std::size_t half = rel_err_cal_.size() / 2;
  a.first_half_cal = mean_of(rel_err_cal_, 0, half);
  a.second_half_cal = mean_of(rel_err_cal_, half, rel_err_cal_.size());
  return a;
}

std::size_t Metrics::queue_depth_high_water() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return depth_high_water_;
}

std::vector<std::uint64_t> Metrics::latency_histogram() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::uint64_t>(hist_, hist_ + kLatencyBuckets);
}

std::vector<std::uint64_t> Metrics::retry_histogram() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::uint64_t>(retry_hist_, retry_hist_ + kRetryBuckets);
}

std::vector<std::uint64_t> Metrics::fault_counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::vector<std::uint64_t>(faults_, faults_ + kFaultSiteCount);
}

std::string Metrics::to_json() const {
  const Counters c = counters();
  const Accuracy a = accuracy();
  const auto hist = latency_histogram();
  std::ostringstream os;
  os << "{\"counters\": {\"submitted\": " << c.submitted
     << ", \"accepted\": " << c.accepted
     << ", \"rejected_full\": " << c.rejected_full
     << ", \"rejected_closed\": " << c.rejected_closed
     << ", \"rejected_invalid\": " << c.rejected_invalid
     << ", \"rejected_fault\": " << c.rejected_fault
     << ", \"rejected_duplicate\": " << c.rejected_duplicate
     << ", \"completed\": " << c.completed << ", \"failed\": " << c.failed
     << ", \"shed\": " << c.shed
     << ", \"deadline_miss\": " << c.deadline_miss
     << ", \"retry_attempts\": " << c.retry_attempts
     << ", \"retry_successes\": " << c.retry_successes
     << "},\n \"queue_depth_high_water\": " << queue_depth_high_water()
     << ",\n \"plan_audit\": {\"audited\": " << c.audited
     << ", \"plan_hits\": " << c.plan_hits << ", \"hit_rate\": "
     << fmt_fixed(c.audited > 0 ? static_cast<double>(c.plan_hits) /
                                      static_cast<double>(c.audited)
                                : 0.0,
                  4)
     << "},\n \"accuracy\": {\"count\": " << a.count
     << ", \"mean_rel_err_raw\": " << fmt_fixed(a.mean_rel_err_raw, 4)
     << ", \"mean_rel_err_calibrated\": " << fmt_fixed(a.mean_rel_err_cal, 4)
     << ", \"first_half_calibrated\": " << fmt_fixed(a.first_half_cal, 4)
     << ", \"second_half_calibrated\": " << fmt_fixed(a.second_half_cal, 4)
     << "},\n \"faults_by_site\": {";
  const auto faults = fault_counts();
  for (int i = 0; i < kFaultSiteCount; ++i) {
    os << (i ? ", " : "") << "\"" << fault_site_name(static_cast<FaultSite>(i))
       << "\": " << faults[static_cast<std::size_t>(i)];
  }
  const Durability d = durability();
  os << "},\n \"durability\": {\"journal_torn_tail\": " << d.journal_torn_tail
     << ", \"journal_corrupt\": " << d.journal_corrupt
     << ", \"recoveries\": " << d.recoveries
     << ", \"replayed_terminal\": " << d.replayed_terminal
     << ", \"requeued\": " << d.requeued
     << ", \"quarantined\": " << d.quarantined
     << ", \"snapshots\": " << d.snapshots;
  os << "},\n \"retry_histogram\": [";
  const auto retries = retry_histogram();
  for (int i = 0; i < kRetryBuckets; ++i) {
    os << (i ? ", " : "") << retries[static_cast<std::size_t>(i)];
  }
  os << "],\n \"latency_virtual_us_log2_buckets\": [";
  for (int i = 0; i < kLatencyBuckets; ++i) {
    os << (i ? ", " : "") << hist[static_cast<std::size_t>(i)];
  }
  os << "]}";
  return os.str();
}

std::string Metrics::cluster_json() const {
  const Cluster cl = cluster();
  std::uint64_t hist[kLatencyBuckets];
  {
    const std::lock_guard<std::mutex> lock(mu_);
    std::copy(ack_hist_, ack_hist_ + kLatencyBuckets, hist);
  }
  std::ostringstream os;
  os << "{\"dispatches\": " << cl.dispatches << ", \"acks\": " << cl.acks
     << ", \"redispatches\": " << cl.redispatches
     << ", \"worker_deaths\": " << cl.worker_deaths
     << ", \"workers_spawned\": " << cl.workers_spawned
     << ", \"workers_respawned\": " << cl.workers_respawned
     << ", \"workers_retired\": " << cl.workers_retired
     << ",\n \"health\": {\"heartbeats\": " << cl.heartbeats
     << ", \"hedges_issued\": " << cl.hedges_issued
     << ", \"hedges_won\": " << cl.hedges_won
     << ", \"hedge_losers\": " << cl.hedge_losers
     << ", \"integrity_violations\": " << cl.integrity_violations
     << ", \"workers_quarantined\": " << cl.workers_quarantined
     << "},\n \"workers\": {\"free\": " << cl.gauge_free
     << ", \"working\": " << cl.gauge_working
     << ", \"draining\": " << cl.gauge_draining
     << ", \"dead\": " << cl.gauge_dead
     << ", \"quarantined\": " << cl.gauge_quarantined
     << ", \"peak_alive\": " << cl.peak_alive
     << "},\n \"dispatch_ack_host_us_log2_buckets\": [";
  for (int i = 0; i < kLatencyBuckets; ++i) {
    os << (i ? ", " : "") << hist[i];
  }
  os << "]}";
  return os.str();
}

std::string Metrics::disk_json() const {
  const DiskHealth dh = disk_health();
  std::ostringstream os;
  os << "{\"degraded_appends\": " << dh.degraded_appends
     << ", \"non_durable_jobs\": " << dh.non_durable_jobs
     << ", \"heals\": " << dh.heals
     << ", \"snapshot_failures\": " << dh.snapshot_failures << "}";
  return os.str();
}

std::string Metrics::histogram_csv() const {
  const auto hist = latency_histogram();
  std::ostringstream os;
  os << "bucket_lo_us,bucket_hi_us,count\n";
  for (int i = 0; i < kLatencyBuckets; ++i) {
    const std::uint64_t lo = i == 0 ? 0 : std::uint64_t{1} << i;
    os << lo;
    if (i == kLatencyBuckets - 1) {
      os << ",inf";
    } else {
      os << "," << (std::uint64_t{1} << (i + 1));
    }
    os << "," << hist[static_cast<std::size_t>(i)] << "\n";
  }
  return os.str();
}

}  // namespace dsm::svc
