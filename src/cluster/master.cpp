#include "cluster/master.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/frame.hpp"
#include "cluster/health.hpp"
#include "common/error.hpp"

namespace dsm::cluster {
namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void waitpid_retry(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

WorkerPool::WorkerPool(PoolConfig cfg) : cfg_(std::move(cfg)) {
  DSM_REQUIRE(cfg_.policy.max_workers >= 1, "pool needs max_workers >= 1");
  DSM_REQUIRE(cfg_.policy.min_workers >= 0, "min_workers >= 0");
  DSM_REQUIRE(cfg_.max_redispatch >= 0, "max_redispatch >= 0");
  DSM_REQUIRE(cfg_.heartbeat_ms >= 0, "heartbeat_ms >= 0");
  DSM_REQUIRE(cfg_.suspect_after >= 1, "suspect_after >= 1");
  DSM_REQUIRE(cfg_.integrity_strikes >= 1, "integrity_strikes >= 1");
}

WorkerPool::~WorkerPool() { shutdown(); }

void WorkerPool::bind_service(svc::Metrics* metrics,
                              const svc::FaultConfig& faults,
                              std::uint64_t input_cache_budget_bytes) {
  const std::lock_guard<std::mutex> lock(mu_);
  metrics_ = metrics;
  faults_ = faults;
  cache_budget_ = input_cache_budget_bytes;
  update_gauges_locked();
}

int WorkerPool::alive_locked() const {
  int n = 0;
  for (const auto& w : workers_) {
    if (w->state == WorkerState::kFree || w->state == WorkerState::kWorking) {
      ++n;
    }
  }
  return n;
}

int WorkerPool::alive_workers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return alive_locked();
}

int WorkerPool::total_spawned() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return total_spawned_;
}

int WorkerPool::quarantined_workers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& w : workers_) {
    if (w->state == WorkerState::kQuarantined) ++n;
  }
  return n;
}

void WorkerPool::update_gauges_locked() {
  if (metrics_ == nullptr) return;
  int counts[kWorkerStateCount] = {};
  for (const auto& w : workers_) ++counts[static_cast<int>(w->state)];
  metrics_->on_worker_gauge(counts[0], counts[1], counts[2], counts[3],
                            counts[4]);
}

Status WorkerPool::spawn_locked(bool respawn) {
  if (alive_locked() >=
      std::max(cfg_.policy.min_workers, cfg_.policy.max_workers)) {
    return Status();  // already at the cap
  }
  Result<ChannelPair> pair = make_socketpair();
  if (!pair.ok()) return pair.status();

  auto w = std::make_unique<Worker>();
  w->id = next_worker_id_++;
  w->label = cfg_.worker.label + "-" + std::to_string(w->id);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::io_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: drop every fd that belongs to the master — other workers'
    // channels and the listener — so a master death is a prompt EOF for
    // every worker, and workers cannot talk to each other.
    for (auto& other : workers_) other->ch.close();
    listener_.close();
    pair->parent.close();
    WorkerOptions opts = cfg_.worker;
    opts.label = w->label;
    ::_exit(worker_main(std::move(pair->child), opts));
  }
  pair->child.close();
  w->pid = pid;
  w->ch = std::move(pair->parent);

  // Handshake before the worker is leasable: a worker that cannot even
  // say hello is reaped on the spot.
  Result<WireMessage> hello = recv_message(w->ch);
  if (!hello.ok() || hello->type != MsgType::kHello ||
      hello->version != kProtocolVersion) {
    ::kill(pid, SIGKILL);
    waitpid_retry(pid);
    return hello.ok() ? Status::corrupt_frame("bad hello from spawned worker")
                      : hello.status();
  }

  workers_.push_back(std::move(w));
  ++total_spawned_;
  if (metrics_ != nullptr) metrics_->on_worker_spawn(respawn);
  update_gauges_locked();
  cv_.notify_all();
  return Status();
}

Status WorkerPool::start() {
  const std::lock_guard<std::mutex> lock(mu_);
  DSM_REQUIRE(!shutdown_, "pool already shut down");
  if (!cfg_.fork_workers) return Status();  // serve() provides the workers
  const int want = cfg_.policy.elastic
                       ? std::max(0, cfg_.policy.min_workers)
                       : std::max(cfg_.policy.min_workers,
                                  cfg_.policy.max_workers);
  Status last;
  while (alive_locked() < want) {
    last = spawn_locked(/*respawn=*/false);
    if (!last.ok()) break;
  }
  if (alive_locked() == 0 && want > 0) return last;
  return Status();
}

Status WorkerPool::serve(const std::string& path) {
  Result<Channel> listener = listen_unix(path);
  if (!listener.ok()) return listener.status();
  const std::lock_guard<std::mutex> lock(mu_);
  DSM_REQUIRE(!shutdown_, "pool already shut down");
  DSM_REQUIRE(!listener_.valid(), "pool already serving");
  listener_ = std::move(*listener);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return Status();
}

void WorkerPool::accept_loop() {
  for (;;) {
    Result<Channel> ch = accept_unix(listener_);
    if (!ch.ok()) return;  // listener shut down
    Result<WireMessage> hello = recv_message(*ch);
    if (!hello.ok() || hello->type != MsgType::kHello ||
        hello->version != kProtocolVersion) {
      continue;  // refused: channel closes, the stranger goes away
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    auto w = std::make_unique<Worker>();
    w->id = next_worker_id_++;
    w->label = hello->label.empty()
                   ? "external-" + std::to_string(w->id)
                   : hello->label;
    w->pid = static_cast<pid_t>(hello->pid);
    w->external = true;
    w->ch = std::move(*ch);
    workers_.push_back(std::move(w));
    ++total_spawned_;
    if (metrics_ != nullptr) metrics_->on_worker_spawn(/*respawn=*/false);
    update_gauges_locked();
    cv_.notify_all();
  }
}

WorkerPool::Worker* WorkerPool::acquire() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (shutdown_) return nullptr;
    for (auto& w : workers_) {
      if (w->state == WorkerState::kFree && w->ch.valid()) {
        w->state = WorkerState::kWorking;
        update_gauges_locked();
        return w.get();
      }
    }
    if (alive_locked() == 0) {
      // Every worker is gone mid-batch. Fork a replacement right here if
      // we may; otherwise keep waiting only when external workers can
      // still connect.
      if (cfg_.fork_workers) {
        if (!spawn_locked(/*respawn=*/true).ok()) return nullptr;
        continue;
      }
      if (!listener_.valid()) return nullptr;
    }
    cv_.wait(lock);
  }
}

WorkerPool::Worker* WorkerPool::try_acquire() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return nullptr;
  for (auto& w : workers_) {
    if (w->state == WorkerState::kFree && w->ch.valid()) {
      w->state = WorkerState::kWorking;
      update_gauges_locked();
      return w.get();
    }
  }
  return nullptr;
}

void WorkerPool::release(Worker& w) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (w.state == WorkerState::kWorking) w.state = WorkerState::kFree;
  update_gauges_locked();
  cv_.notify_all();
}

void WorkerPool::reap_locked(Worker& w) {
  w.ch.close();
  if (w.pid > 0 && !w.external) {
    ::kill(w.pid, SIGKILL);  // no-op when it already died by itself
    waitpid_retry(w.pid);
    w.pid = 0;
  }
  w.state = WorkerState::kDead;
}

void WorkerPool::fail_worker(Worker& w) {
  bool respawn = false;
  long long wait_ms = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const bool owned = !w.external;
    reap_locked(w);
    if (metrics_ != nullptr) metrics_->on_worker_death();
    ++consecutive_deaths_;
    // 1:1 replacement keeps the complement stable between batch
    // boundaries; the elastic policy re-decides the size at the next
    // note_batch anyway. Consecutive deaths back the respawn off
    // (capped exponential) so a crash loop cannot melt the master.
    respawn = owned && cfg_.fork_workers && !shutdown_;
    wait_ms = respawn_backoff_ms(consecutive_deaths_, kRespawnBackoffBaseMs,
                                 kRespawnBackoffCapMs);
    update_gauges_locked();
    cv_.notify_all();
  }
  if (!respawn) return;
  if (wait_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (!shutdown_) spawn_locked(/*respawn=*/true);
}

void WorkerPool::cancel_worker(Worker& w) {
  const std::lock_guard<std::mutex> lock(mu_);
  const bool owned = !w.external;
  reap_locked(w);
  if (metrics_ != nullptr) metrics_->on_hedge_loser();
  if (owned && cfg_.fork_workers && !shutdown_) spawn_locked(/*respawn=*/true);
  update_gauges_locked();
  cv_.notify_all();
}

void WorkerPool::strike_worker(Worker& w) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++w.strikes;
  if (w.strikes < cfg_.integrity_strikes) {
    // Below the threshold the worker goes back in the pool: it is alive
    // and responsive, and keeping the same identity leased is what lets
    // a repeat offender accumulate strikes instead of hiding behind
    // fresh respawns.
    if (w.state == WorkerState::kWorking) w.state = WorkerState::kFree;
    update_gauges_locked();
    cv_.notify_all();
    return;
  }
  const bool owned = !w.external;
  reap_locked(w);
  w.state = WorkerState::kQuarantined;
  if (metrics_ != nullptr) metrics_->on_worker_quarantine();
  if (owned && cfg_.fork_workers && !shutdown_) spawn_locked(/*respawn=*/true);
  update_gauges_locked();
  cv_.notify_all();
}

void WorkerPool::retire_locked(Worker& w) {
  w.state = WorkerState::kDraining;
  update_gauges_locked();
  WireMessage bye;
  bye.type = MsgType::kShutdown;
  send_message(w.ch, bye);  // best-effort: EOF retires it just as well
  reap_locked(w);
  if (metrics_ != nullptr) metrics_->on_worker_retire();
  update_gauges_locked();
}

void WorkerPool::note_batch(std::size_t jobs, double predicted_ns,
                            std::size_t queue_depth) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) return;
  const int want =
      target_worker_count(cfg_.policy, jobs, predicted_ns, queue_depth);
  if (cfg_.fork_workers) {
    while (alive_locked() < want) {
      if (!spawn_locked(/*respawn=*/false).ok()) break;
    }
  }
  if (cfg_.policy.elastic) {
    for (auto it = workers_.rbegin();
         it != workers_.rend() && alive_locked() > want; ++it) {
      if ((*it)->state == WorkerState::kFree) retire_locked(**it);
    }
  }
  cv_.notify_all();
}

Status WorkerPool::drive(Worker* first, const svc::RemoteAttempt& attempt,
                         const MarkFn& on_mark, const DispatchFn& on_dispatch,
                         svc::RemoteOutcome* out) {
  const bool health_on = cfg_.heartbeat_ms > 0;
  const HealthPolicy hp{cfg_.heartbeat_ms, cfg_.suspect_after};
  const long long dead_ms = 2 * suspect_budget_ms(hp);

  std::vector<Copy> copies;
  const auto dispatch = [&](Worker* w, bool hedge) -> Status {
    WireMessage task;
    task.type = MsgType::kTask;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      task.task_id = next_task_id_++;
      task.faults = faults_;
      task.cache_budget = cache_budget_;
    }
    task.job = attempt.job;
    task.plan = attempt.plan;
    task.attempt = attempt.attempt;
    task.audit = attempt.audit;
    task.heartbeat_ms = cfg_.heartbeat_ms;
    task.check_integrity = attempt.check_integrity;
    task.expect = attempt.expect;
    if (on_dispatch) on_dispatch(w->label);
    if (metrics_ != nullptr) {
      metrics_->on_remote_dispatch();
      if (hedge) metrics_->on_hedge_issued();
    }
    const Status s = send_message(w->ch, task);
    if (s.ok()) {
      Copy c;
      c.w = w;
      c.task_id = task.task_id;
      c.last_rx_s = now_s();
      c.hedge = hedge;
      copies.push_back(c);
    }
    return s;
  };

  {
    const Status s = dispatch(first, /*hedge=*/false);
    if (!s.ok()) {
      fail_worker(*first);
      return s;
    }
  }

  // Both copies of a hedged task emit the identical deterministic mark
  // stream; forwarding a copy's k-th mark only when k exceeds the global
  // forwarded count dedups them without buffering.
  std::uint64_t forwarded_marks = 0;
  bool hedged = false;
  Status last_err = Status::peer_dead("every copy of the task failed");
  const int poll_ms = health_on ? std::max(1, cfg_.heartbeat_ms / 2) : -1;

  while (!copies.empty()) {
    if (health_on) {
      const double now = now_s();
      for (std::size_t i = 0; i < copies.size();) {
        Copy& c = copies[i];
        const long long silent_ms =
            static_cast<long long>((now - c.last_rx_s) * 1e3);
        const Health h = classify_health(hp, silent_ms);
        if (h == Health::kDead) {
          last_err = Status::peer_dead(
              "worker " + c.w->label + " silent for " +
              std::to_string(silent_ms) + "ms (dead threshold " +
              std::to_string(dead_ms) + "ms)");
          fail_worker(*c.w);
          copies.erase(copies.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        if (h == Health::kSuspect && !hedged) {
          // One hedge per attempt: duplicate the task to a free worker
          // and let the first verified done win. If nobody is free the
          // hedge is simply skipped this round (suspicion persists, so
          // we try again next poll tick).
          Worker* hw = try_acquire();
          if (hw != nullptr) {
            hedged = true;
            const Status hs = dispatch(hw, /*hedge=*/true);
            if (!hs.ok()) fail_worker(*hw);
          }
        }
        ++i;
      }
      if (copies.empty()) return last_err;
    }

    int ready = -1;
    if (copies.size() == 1 && !health_on) {
      ready = 0;  // single copy, no deadline to police: block in read
    } else {
      std::vector<pollfd> fds(copies.size());
      for (std::size_t i = 0; i < copies.size(); ++i) {
        fds[i].fd = copies[i].w->ch.fd();
        fds[i].events = POLLIN;
        fds[i].revents = 0;
      }
      const int rc =
          ::poll(fds.data(), static_cast<nfds_t>(fds.size()), poll_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        // Let the per-channel read surface the real error.
        ready = 0;
      } else if (rc == 0) {
        continue;  // timeout: go re-classify health
      } else {
        for (std::size_t i = 0; i < fds.size(); ++i) {
          if (fds[i].revents != 0) {
            ready = static_cast<int>(i);
            break;
          }
        }
        if (ready < 0) continue;
      }
    }

    Copy& c = copies[static_cast<std::size_t>(ready)];
    Result<WireMessage> m =
        recv_message(c.w->ch, health_on ? static_cast<int>(dead_ms) : -1);
    if (!m.ok()) {
      last_err = m.status();
      fail_worker(*c.w);
      copies.erase(copies.begin() + ready);
      continue;
    }
    c.last_rx_s = now_s();
    if (m->task_id != c.task_id) {
      last_err = Status::corrupt_frame(
          "worker answered for task " + std::to_string(m->task_id) +
          ", expected " + std::to_string(c.task_id));
      fail_worker(*c.w);
      copies.erase(copies.begin() + ready);
      continue;
    }
    if (m->type == MsgType::kHeartbeat) {
      if (metrics_ != nullptr) metrics_->on_heartbeat();
      continue;
    }
    if (m->type == MsgType::kMark) {
      ++c.marks;
      if (c.marks > forwarded_marks) {
        ++forwarded_marks;
        if (on_mark) on_mark(m->site.c_str(), m->virtual_ns);
      }
      continue;
    }
    if (m->type == MsgType::kDone) {
      if (attempt.check_integrity && m->ok &&
          !(m->input_cs == attempt.expect && m->verified)) {
        // The worker claims success but its consumed-input fingerprint
        // does not match what the master computed at planning time (or
        // its own verification failed and it said ok anyway). Discard
        // the result, charge the strike, and keep driving whatever
        // copies remain (the attempt is retryable above us).
        if (metrics_ != nullptr) metrics_->on_integrity_violation();
        last_err = Status::integrity_violation(
            "worker " + c.w->label +
            " result failed the end-to-end fingerprint (discarded)");
        Worker* liar = c.w;
        copies.erase(copies.begin() + ready);
        strike_worker(*liar);
        continue;
      }
      out->ran = true;
      out->ok = m->ok;
      out->failure = m->failure;
      out->measured_ns = m->measured_ns;
      out->passes = m->passes;
      out->verified = m->verified;
      out->fired_site = m->fired_site;
      Worker* winner = c.w;
      const bool winner_hedge = c.hedge;
      // Cancel the losers: closing their channel aborts the duplicate
      // sort cleanly worker-side (its next mark-send fails), and the
      // determinism argument makes the aborted copy's outcome
      // byte-identical to the one we just accepted.
      for (std::size_t i = 0; i < copies.size(); ++i) {
        if (static_cast<int>(i) == ready) continue;
        cancel_worker(*copies[i].w);
      }
      copies.clear();
      if (winner_hedge && metrics_ != nullptr) metrics_->on_hedge_won();
      release(*winner);
      return Status();
    }
    last_err = Status::corrupt_frame(std::string("unexpected ") +
                                     msg_type_name(m->type) + " from worker");
    fail_worker(*c.w);
    copies.erase(copies.begin() + ready);
  }
  return last_err;
}

svc::RemoteOutcome WorkerPool::run_attempt(const svc::RemoteAttempt& attempt,
                                           const MarkFn& on_mark,
                                           const DispatchFn& on_dispatch) {
  svc::RemoteOutcome out;
  Status death;
  for (int deaths = 0; deaths <= cfg_.max_redispatch; ++deaths) {
    Worker* w = acquire();
    if (w == nullptr) {
      out = svc::RemoteOutcome();
      out.failure = Status::unavailable(
          "cluster pool has no live workers and cannot spawn more" +
          (death.ok() ? std::string() : " (" + death.to_string() + ")"));
      return out;
    }
    const double t0 = now_s();
    const Status s = drive(w, attempt, on_mark, on_dispatch, &out);
    if (s.ok()) {
      if (metrics_ != nullptr) {
        metrics_->on_remote_ack((now_s() - t0) * 1e6);  // host us
      }
      const std::lock_guard<std::mutex> lock(mu_);
      consecutive_deaths_ = 0;  // an ack resets the respawn backoff
      return out;
    }
    // Every copy of the task failed — the worker died, went silent past
    // the dead threshold, or returned a result that flunked integrity:
    // re-drive the identical attempt elsewhere. Worker-side execution is
    // deterministic per (job, plan, attempt, faults), so the re-dispatch
    // reproduces the lost outcome bit-for-bit. drive() already settled
    // every worker it touched (fail/strike/cancel/release).
    death = s;
    if (metrics_ != nullptr && deaths < cfg_.max_redispatch) {
      metrics_->on_redispatch();
    }
    out = svc::RemoteOutcome();
  }
  out.failure = Status::unavailable(
      "attempt abandoned after " + std::to_string(cfg_.max_redispatch + 1) +
      " worker deaths (last: " + death.to_string() + ")");
  return out;
}

void WorkerPool::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    cv_.notify_all();
    // Let in-flight leases finish: their workers are mid-conversation
    // and closing the channel under them would turn a clean drain into
    // fake worker deaths.
    cv_.wait(lock, [this] {
      for (const auto& w : workers_) {
        if (w->state == WorkerState::kWorking) return false;
      }
      return true;
    });
    for (auto& w : workers_) {
      if (w->state == WorkerState::kDead) continue;
      WireMessage bye;
      bye.type = MsgType::kShutdown;
      send_message(w->ch, bye);  // best-effort
      reap_locked(*w);
    }
    update_gauges_locked();
    if (listener_.valid()) {
      // close() alone does not wake a blocked accept(2); shutdown() does.
      ::shutdown(listener_.fd(), SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  const std::lock_guard<std::mutex> lock(mu_);
  listener_.close();
}

}  // namespace dsm::cluster
