#include "cluster/worker.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "cluster/frame.hpp"
#include "common/fsio.hpp"
#include "sort/input_cache.hpp"
#include "svc/remote.hpp"

namespace dsm::cluster {
namespace {

/// Run one task and build its done message. The attempt itself is
/// svc::run_attempt_here; what is left here belongs to the worker:
/// heartbeats, streaming marks to the master, the crash hook and the
/// `--lie` corruption.
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
  svc::RemoteAttempt attempt;
  attempt.job = task.job;
  attempt.plan = task.plan;
  attempt.attempt = task.attempt;
  attempt.audit = task.audit;
  const auto on_mark = [&](const char* site, double virtual_ns) {
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
  };

  const svc::AttemptRun run =
      svc::run_attempt_here(attempt, task.faults, on_mark);
  stop_beater();
  done.fired_site = run.fired_site;
  const Result<sort::SortResult>& r = run.result;
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
