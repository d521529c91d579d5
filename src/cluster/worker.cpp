#include "cluster/worker.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "cluster/frame.hpp"
#include "common/fsio.hpp"
#include "common/table.hpp"
#include "sort/input_cache.hpp"
#include "sort/sort_api.hpp"
#include "svc/faults.hpp"

namespace dsm::cluster {
namespace {

/// Must render exactly like the master's local deadline message (the
/// failure text lands in replayed JSON, which is byte-compared against
/// a local run).
std::string us_text(double ns) { return fmt_fixed(ns / 1e3, 3) + "us"; }

/// Run one task and build its done message. Mirrors exactly one attempt
/// of the master's local execute_one body: same spec, same hook order
/// (mark, crash hook, fault check, virtual-deadline abort), same typed
/// failure surface. Retry/serialize/deadline *classification* stay
/// master-side.
WireMessage run_task(const WireMessage& task, Channel& ch,
                     const WorkerOptions& opts) {
  WireMessage done;
  done.type = MsgType::kDone;
  done.task_id = task.task_id;

  if (task.cache_budget != 0) {
    sort::input_cache_set_budget(task.cache_budget);
  }

  // Heartbeat machinery (ISSUE 9): while the sort runs, a side thread
  // emits kHeartbeat frames every task.heartbeat_ms so the master can
  // tell a slow worker from a stopped one. Marks and heartbeats share
  // one fd, so every send serializes through send_mu — a frame torn by
  // interleaved writers would read as wire corruption at the master.
  std::mutex send_mu;
  const auto locked_send = [&send_mu, &ch](const WireMessage& msg) {
    std::lock_guard<std::mutex> lock(send_mu);
    return send_message(ch, msg);
  };
  std::atomic<double> last_virtual_ns{0};
  std::mutex beat_mu;
  std::condition_variable beat_cv;
  bool stop_beats = false;
  std::thread beater;
  if (task.heartbeat_ms > 0) {
    beater = std::thread([&] {
      std::uint64_t beats = 0;
      std::unique_lock<std::mutex> lock(beat_mu);
      for (;;) {
        if (beat_cv.wait_for(lock,
                             std::chrono::milliseconds(task.heartbeat_ms),
                             [&] { return stop_beats; })) {
          return;
        }
        WireMessage hb;
        hb.type = MsgType::kHeartbeat;
        hb.task_id = task.task_id;
        hb.beats = ++beats;
        hb.virtual_ns = last_virtual_ns.load(std::memory_order_relaxed);
        if (!locked_send(hb).ok()) return;  // master gone; the sort's next
                                            // mark-send will notice too
      }
    });
  }
  const auto stop_beater = [&] {
    if (!beater.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(beat_mu);
      stop_beats = true;
    }
    beat_cv.notify_all();
    beater.join();
  };
  sort::SortSpec spec = svc::sort_spec_for(task.job, task.plan.algo,
                                           task.plan.model,
                                           task.plan.radix_bits);
  int fired_site = -1;
  // Function scope, not else-block scope: the hook lambda below captures
  // the injector by reference and outlives the branch.
  const svc::FaultInjector injector(task.faults);
  const double deadline_ns = static_cast<double>(task.job.deadline_us) * 1e3;
  const bool abortable = task.job.deadline_us > 0 &&
                         task.job.priority < svc::kCriticalPriority;
  if (task.audit) {
    // Audit runs measure the runner-up plan: no trace, no hooks, no
    // faults, no deadline — the local audit contract.
    spec.trace_json_path.clear();
  } else {
    spec.hooks.on_site = [&task, &opts, &injector, &fired_site, &locked_send,
                          &last_virtual_ns, deadline_ns,
                          abortable](const char* site, double virtual_ns) {
      last_virtual_ns.store(virtual_ns, std::memory_order_relaxed);
      WireMessage mark;
      mark.type = MsgType::kMark;
      mark.task_id = task.task_id;
      mark.site = site;
      mark.virtual_ns = virtual_ns;
      const Status sent = locked_send(mark);
      if (!sent.ok()) {
        // The master is gone; abort the sort cleanly (the team poison
        // machinery unwinds every rank) and let the main loop exit.
        throw Error(sent);
      }
      if (opts.crash_hook) {
        opts.crash_hook((std::string("exec.") + site).c_str(),
                        task.job.svc_seq);
      }
      const bool keygen = std::strcmp(site, "keygen") == 0;
      const svc::FaultSite fsite =
          keygen ? svc::FaultSite::kKeygen : svc::FaultSite::kSortPhase;
      const std::uint64_t salt = keygen ? 0 : svc::fault_salt(site);
      if (injector.should_fire(fsite, task.job.id, task.attempt, salt)) {
        fired_site = static_cast<int>(fsite);
        throw Error(
            svc::FaultInjector::fire(fsite, task.job.id, task.attempt));
      }
      if (abortable && virtual_ns > deadline_ns) {
        throw Error(Status::deadline_exceeded(
            std::string("virtual deadline exceeded at '") + site + "': " +
            us_text(virtual_ns) + " > " + us_text(deadline_ns)));
      }
    };
  }

  const Result<sort::SortResult> r = sort::try_run_sort(spec);
  stop_beater();
  done.fired_site = fired_site;
  if (r.ok()) {
    done.ok = true;
    done.measured_ns = r->elapsed_ns;
    done.passes = r->passes;
    done.verified = r->verified;
    done.input_cs = r->input_checksum;
    done.run_hash = r->run_hash;
    if (opts.lie) {
      // Corrupt the consumed-input report: the sorted-run shape stays
      // plausible, but the multiset fingerprint can no longer match the
      // admission-time expectation.
      done.input_cs.sum ^= 0xdeadbeefcafef00dull;
      done.run_hash ^= 0xbadc0ffee0ddf00dull;
    }
  } else {
    done.ok = false;
    done.failure = r.status();
  }
  return done;
}

}  // namespace

int worker_main(Channel ch, const WorkerOptions& opts) {
  ignore_sigpipe();

  WireMessage hello;
  hello.type = MsgType::kHello;
  hello.version = kProtocolVersion;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  hello.label = opts.label;
  if (!send_message(ch, hello).ok()) return 1;

  for (;;) {
    Result<WireMessage> m = recv_message(ch);
    if (!m.ok()) {
      // The master died or closed us out (an elastic retire closes the
      // channel without a shutdown message when the master is hurried).
      return m.status().code() == StatusCode::kPeerDead ? 0 : 1;
    }
    switch (m->type) {
      case MsgType::kShutdown:
        return 0;
      case MsgType::kTask: {
        const WireMessage done = run_task(*m, ch, opts);
        if (!send_message(ch, done).ok()) return 0;  // master gone
        break;
      }
      default:
        return 1;  // protocol violation: masters never send anything else
    }
  }
}

}  // namespace dsm::cluster
