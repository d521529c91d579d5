// End-to-end master/worker cluster: replay byte-identity against the
// single-process service and across worker-process counts, crash
// re-dispatch (kill a worker mid-job, nothing lost, nothing doubled),
// external workers over a UNIX socket, lying workers, elastic resize,
// and dispatch WAL records in durable mode. These tests fork worker
// processes, so they live in the `cluster.` / `asan.` tiers, not TSan.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <dirent.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/frame.hpp"
#include "cluster/master.hpp"
#include "cluster/worker.hpp"
#include "common/crc32.hpp"
#include "sas/shared_array.hpp"
#include "sort/input_cache.hpp"
#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/trace.hpp"

namespace dsm::cluster {
namespace {

svc::ServiceConfig small_config() {
  svc::ServiceConfig cfg;
  cfg.queue_capacity = 16;
  cfg.max_batch = 4;
  cfg.workers = 1;
  cfg.audit_every = 3;
  return cfg;
}

std::vector<svc::JobSpec> small_trace(std::size_t count) {
  svc::LoadMix mix;
  mix.sizes = {1u << 12, 1u << 13};
  mix.procs = {4, 8};
  mix.dists = {keys::Dist::kGauss, keys::Dist::kRandom, keys::Dist::kBucket};
  return svc::make_trace(1234, count, mix);
}

/// Everything deterministic the service produced, as one string. The
/// cluster tier must reproduce this byte-for-byte for any worker count.
std::string replay_fingerprint(svc::SortService& svc,
                               const std::vector<svc::JobSpec>& trace) {
  std::string out;
  for (const svc::JobResult& r : svc.replay(trace)) {
    out += r.to_json();
    out += '\n';
  }
  out += svc.metrics().to_json();
  out += '\n';
  out += svc.planner().calibration_json();
  return out;
}

PoolConfig pool_config(int workers) {
  PoolConfig pc;
  pc.policy.min_workers = workers;
  pc.policy.max_workers = workers;
  return pc;
}

TEST(Cluster, ReplayMatchesSingleProcessServiceByteForByte) {
  const std::vector<svc::JobSpec> trace = small_trace(10);
  svc::SortService local(small_config());
  const std::string base = replay_fingerprint(local, trace);
  ASSERT_NE(base.find("\"status\": \"ok\""), std::string::npos);

  WorkerPool pool(pool_config(2));
  svc::ServiceConfig cfg = small_config();
  cfg.remote = &pool;
  svc::SortService clustered(cfg);
  ASSERT_TRUE(pool.start().ok());
  EXPECT_EQ(replay_fingerprint(clustered, trace), base);
  const svc::Metrics::Cluster cl = clustered.metrics().cluster();
  EXPECT_GE(cl.dispatches, trace.size());
  EXPECT_EQ(cl.dispatches, cl.acks);
  EXPECT_EQ(cl.worker_deaths, 0u);
  pool.shutdown();
}

TEST(Cluster, ReplayIsByteIdenticalAcrossWorkerProcessCounts) {
  const std::vector<svc::JobSpec> trace = small_trace(8);
  std::string base;
  for (const int workers : {1, 2, 4}) {
    WorkerPool pool(pool_config(workers));
    svc::ServiceConfig cfg = small_config();
    cfg.remote = &pool;
    svc::SortService svc(cfg);
    ASSERT_TRUE(pool.start().ok());
    const std::string fp = replay_fingerprint(svc, trace);
    if (base.empty()) {
      base = fp;
    } else {
      EXPECT_EQ(fp, base) << "workers=" << workers;
    }
  }
  ASSERT_NE(base.find("\"status\": \"ok\""), std::string::npos);
}

TEST(Cluster, WorkerKilledMidJobIsRedispatchedWithIdenticalOutput) {
  const std::vector<svc::JobSpec> trace = small_trace(6);

  // Uncrashed cluster reference.
  WorkerPool ref_pool(pool_config(2));
  svc::ServiceConfig ref_cfg = small_config();
  ref_cfg.remote = &ref_pool;
  svc::SortService ref_svc(ref_cfg);
  ASSERT_TRUE(ref_pool.start().ok());
  const std::string base = replay_fingerprint(ref_svc, trace);
  ref_pool.shutdown();

  // Same run, but the first worker to reach job seq 2 _exit()s inside a
  // phase — a real SIGKILL-grade mid-job death. The O_EXCL sentinel makes
  // exactly one worker die; the re-dispatched attempt runs to completion.
  const std::string sentinel =
      ::testing::TempDir() + "/dsm_cluster_killed_once";
  ::unlink(sentinel.c_str());
  PoolConfig pc = pool_config(2);
  pc.worker.crash_hook = [sentinel](const char* /*site*/,
                                    std::uint64_t seq) {
    if (seq != 2) return;
    const int fd =
        ::open(sentinel.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd >= 0) ::_exit(137);
  };
  WorkerPool pool(pc);
  svc::ServiceConfig cfg = small_config();
  cfg.remote = &pool;
  svc::SortService svc(cfg);
  ASSERT_TRUE(pool.start().ok());
  EXPECT_EQ(replay_fingerprint(svc, trace), base)
      << "crash re-dispatch perturbed deterministic output";
  const svc::Metrics::Cluster cl = svc.metrics().cluster();
  EXPECT_EQ(cl.worker_deaths, 1u);
  EXPECT_EQ(cl.redispatches, 1u);
  EXPECT_GE(cl.workers_respawned, 1u);
  EXPECT_EQ(pool.alive_workers(), 2);  // the dead worker was replaced
  pool.shutdown();
  ::unlink(sentinel.c_str());
}

TEST(Cluster, ExternalWorkersOverUnixSocketServeTheSameBytes) {
  const std::vector<svc::JobSpec> trace = small_trace(6);
  svc::SortService local(small_config());
  const std::string base = replay_fingerprint(local, trace);

  const std::string path = ::testing::TempDir() + "/dsm_cluster_test.sock";
  PoolConfig pc;
  pc.fork_workers = false;  // every worker joins through the socket
  pc.policy.max_workers = 2;
  WorkerPool pool(pc);
  ASSERT_TRUE(pool.serve(path).ok());

  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&path, i] {
      Result<Channel> ch = connect_unix(path);
      ASSERT_TRUE(ch.ok()) << ch.status().to_string();
      WorkerOptions opts;
      opts.label = "external-" + std::to_string(i);
      EXPECT_EQ(worker_main(std::move(*ch), opts), 0);
    });
  }

  svc::ServiceConfig cfg = small_config();
  cfg.remote = &pool;
  svc::SortService svc(cfg);
  EXPECT_EQ(replay_fingerprint(svc, trace), base);
  EXPECT_EQ(pool.total_spawned(), 2);
  pool.shutdown();
  for (std::thread& t : workers) t.join();
  ::unlink(path.c_str());
}

TEST(Cluster, LyingWorkerSurfacesTypedStatusAndNeverHangsTheMaster) {
  const std::string path = ::testing::TempDir() + "/dsm_cluster_liar.sock";
  PoolConfig pc;
  pc.fork_workers = false;
  pc.policy.max_workers = 1;
  pc.max_redispatch = 0;  // no other worker to fail over to
  WorkerPool pool(pc);
  ASSERT_TRUE(pool.serve(path).ok());

  // A worker that completes the handshake, accepts the task, then
  // answers with bytes that frame correctly but do not parse.
  std::thread liar([&path] {
    Result<Channel> ch = connect_unix(path);
    ASSERT_TRUE(ch.ok());
    WireMessage hello;
    hello.type = MsgType::kHello;
    hello.version = kProtocolVersion;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.label = "liar";
    ASSERT_TRUE(send_message(*ch, hello).ok());
    const Result<WireMessage> task = recv_message(*ch);
    ASSERT_TRUE(task.ok());
    ASSERT_TRUE(ch->send_frame("not a wire message at all").ok());
  });

  svc::RemoteAttempt attempt;
  attempt.job.id = 1;
  attempt.job.n = 4096;
  attempt.job.nprocs = 4;
  attempt.job.seed = 3;
  attempt.plan.algo = sort::Algo::kRadix;
  attempt.plan.model = sort::Model::kShmem;
  attempt.plan.radix_bits = 8;
  const svc::RemoteOutcome out = pool.run_attempt(attempt, nullptr, nullptr);
  EXPECT_FALSE(out.ran);
  EXPECT_EQ(out.failure.code(), StatusCode::kUnavailable);
  EXPECT_NE(out.failure.message().find("CORRUPT_FRAME"), std::string::npos)
      << out.failure.to_string();
  liar.join();
  pool.shutdown();
  ::unlink(path.c_str());
}

TEST(Cluster, ElasticPoolResizesOnlyAtBatchBoundaries) {
  svc::Metrics metrics;
  PoolConfig pc;
  pc.policy.min_workers = 1;
  pc.policy.max_workers = 3;
  pc.policy.elastic = true;
  pc.policy.target_ns_per_worker = 1e6;
  WorkerPool pool(pc);
  pool.bind_service(&metrics, svc::FaultConfig{}, 0);
  ASSERT_TRUE(pool.start().ok());
  EXPECT_EQ(pool.alive_workers(), 1);

  // A heavy batch grows the pool to its cap...
  pool.note_batch(4, 4e6, 8);
  EXPECT_EQ(pool.alive_workers(), 3);
  // ...and an idle boundary drains it back to the floor.
  pool.note_batch(0, 0, 0);
  EXPECT_EQ(pool.alive_workers(), 1);

  const svc::Metrics::Cluster cl = metrics.cluster();
  EXPECT_EQ(cl.workers_spawned, 3u);
  EXPECT_EQ(cl.workers_retired, 2u);
  EXPECT_EQ(cl.peak_alive, 3u);
  pool.shutdown();
}

TEST(Cluster, DurableClusterJournalsDispatchRecordsAndRecovers) {
  const std::string dir = ::testing::TempDir() + "/dsm_cluster_durable";
  std::ostringstream rm;
  rm << "rm -rf '" << dir << "'";
  ASSERT_EQ(std::system(rm.str().c_str()), 0);
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);

  const std::vector<svc::JobSpec> trace = small_trace(4);
  {
    WorkerPool pool(pool_config(1));
    svc::ServiceConfig cfg = small_config();
    cfg.remote = &pool;
    cfg.durability.dir = dir;
    cfg.durability.keep_all_segments = true;
    svc::SortService svc(cfg);
    ASSERT_TRUE(pool.start().ok());
    for (const svc::JobSpec& j : trace) {
      Status why;
      ASSERT_EQ(svc.submit(j, &why), svc::Admission::kAccepted)
          << why.to_string();
    }
    svc.drain();
    for (const svc::JobResult& r : svc.take_results()) {
      EXPECT_EQ(r.status, svc::JobStatus::kOk) << r.error;
    }
    pool.shutdown();
  }

  // The WAL must carry kDispatch records naming the worker...
  bool saw_dispatch = false;
  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    std::ifstream in(dir + "/" + name, std::ios::binary);
    std::ostringstream content;
    content << in.rdbuf();
    if (content.str().find("dispatch") != std::string::npos &&
        content.str().find("worker-") != std::string::npos) {
      saw_dispatch = true;
    }
  }
  ::closedir(d);
  EXPECT_TRUE(saw_dispatch) << "no dispatch record found in " << dir;

  // ...and a recovering service finds a complete history: nothing to
  // requeue, nothing quarantined, nothing lost (the clean drain's final
  // checkpoint covers every record, so nothing needs journal replay).
  svc::ServiceConfig cfg2 = small_config();
  cfg2.durability.dir = dir;
  svc::SortService recovered(cfg2);
  EXPECT_EQ(recovered.recovery_report().requeued, 0u);
  EXPECT_EQ(recovered.recovery_report().quarantined, 0u);
}

TEST(Cluster, UnacknowledgedDispatchIsRedrivenByRecovery) {
  // Hand-write the WAL a master that died mid-dispatch leaves behind:
  // an admitted job, its plan, a kDispatch naming the worker — and no
  // terminal. Recovery must treat the dispatch as attempt progress and
  // re-admit the job with its journaled plan: no lost job, and the
  // re-run executes the pre-crash plan (no calibration drift).
  const std::string dir = ::testing::TempDir() + "/dsm_cluster_redrive";
  std::ostringstream rm;
  rm << "rm -rf '" << dir << "'";
  ASSERT_EQ(std::system(rm.str().c_str()), 0);
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);

  svc::JobSpec job;
  job.id = 9;
  job.n = 4096;
  job.nprocs = 4;
  job.seed = 17;
  job.svc_seq = 0;
  svc::Plan plan;
  plan.algo = sort::Algo::kRadix;
  plan.model = sort::Model::kShmem;
  plan.radix_bits = 8;
  plan.predicted_ns = 1e6;
  {
    svc::JournalConfig jc;
    jc.dir = dir;
    svc::JournalWriter wal(jc, 0);
    svc::JournalRecord admit;
    admit.type = svc::RecordType::kAdmit;
    admit.seq = 0;
    admit.job = job;
    wal.append(admit);
    svc::JournalRecord planned;
    planned.type = svc::RecordType::kPlanned;
    planned.seq = 0;
    planned.plan = plan;
    wal.append(planned);
    svc::JournalRecord dispatch;
    dispatch.type = svc::RecordType::kDispatch;
    dispatch.seq = 0;
    dispatch.attempt = 0;
    dispatch.site = "worker-0";
    wal.append(dispatch);
  }

  svc::ServiceConfig cfg = small_config();
  cfg.durability.dir = dir;
  svc::SortService svc(cfg);
  EXPECT_EQ(svc.recovery_report().requeued, 1u);
  svc.drain();
  const std::vector<svc::JobResult> results = svc.take_results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].id, 9u);
  EXPECT_EQ(results[0].status, svc::JobStatus::kOk) << results[0].error;
  EXPECT_EQ(results[0].plan.radix_bits, 8);  // the journaled plan, kept
}

/// The attempt the gray-failure tests dispatch directly (no service).
svc::RemoteAttempt small_attempt() {
  svc::RemoteAttempt attempt;
  attempt.job.id = 1;
  attempt.job.n = 4096;
  attempt.job.nprocs = 4;
  attempt.job.seed = 3;
  attempt.plan.algo = sort::Algo::kRadix;
  attempt.plan.model = sort::Model::kShmem;
  attempt.plan.radix_bits = 8;
  return attempt;
}

/// Master-side integrity expectation: the same cached checksum the server
/// uses at dispatch time (svc/server.cpp expected_input_checksum).
sort::Checksum expect_for(const svc::JobSpec& job, int radix_bits) {
  return sort::input_checksum_cached(job.dist, job.n, job.nprocs, radix_bits,
                                     job.seed);
}

void wait_for_alive(WorkerPool& pool, int want) {
  for (int i = 0; i < 2000 && pool.alive_workers() < want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(pool.alive_workers(), want);
}

TEST(Cluster, SigstoppedPeerMidFrameSurfacesAsSilentPeerNotAHang) {
  // The rawest gray failure: a real child process writes half a frame,
  // then SIGSTOPs itself — fd open, no EOF, no more bytes. The timed
  // read must classify it as a retryable silent peer; the blocking read
  // of PR 7 would sit in recv(2) forever.
  Result<ChannelPair> pair = make_socketpair();
  ASSERT_TRUE(pair.ok());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    pair->parent.close();
    const std::string payload = "stalling mid-frame";
    char header[8];
    const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    const std::uint32_t crc = crc32(payload.data(), payload.size());
    for (int i = 0; i < 4; ++i) {
      header[i] = static_cast<char>((len >> (8 * i)) & 0xff);
      header[4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    (void)!::write(pair->child.fd(), header, 8);
    (void)!::write(pair->child.fd(), payload.data(), 5);  // torn payload
    ::raise(SIGSTOP);
    ::_exit(0);
  }
  pair->child.close();
  const Result<std::string> got =
      pair->parent.recv_frame(/*timeout_ms=*/100);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kPeerDead);
  EXPECT_TRUE(got.status().retryable());
  EXPECT_NE(got.status().message().find("silent peer"), std::string::npos)
      << got.status().to_string();
  ::kill(pid, SIGKILL);  // SIGKILL works on a stopped process
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
}

TEST(Cluster, StalledWorkerIsHedgedAndTheHedgeWins) {
  // A stooge connects first and gets the lease, accepts the task, then
  // goes silent (no heartbeats, no done — the SIGSTOP wire state). With
  // the health protocol armed the master must suspect it, hedge the
  // identical task to the healthy worker, accept the hedge's done, and
  // settle the stooge as either a cancelled hedge loser or a dead
  // worker — without ever hanging or double-acking.
  const std::string path = ::testing::TempDir() + "/dsm_cluster_hedge.sock";
  svc::Metrics metrics;
  PoolConfig pc;
  pc.fork_workers = false;
  pc.policy.max_workers = 2;
  pc.heartbeat_ms = 20;  // suspect past 40ms of silence, dead past 80ms
  pc.suspect_after = 2;
  WorkerPool pool(pc);
  pool.bind_service(&metrics, svc::FaultConfig{}, 0);
  ASSERT_TRUE(pool.serve(path).ok());

  std::thread stooge([&path] {
    Result<Channel> ch = connect_unix(path);
    ASSERT_TRUE(ch.ok());
    WireMessage hello;
    hello.type = MsgType::kHello;
    hello.version = kProtocolVersion;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.label = "stooge";
    ASSERT_TRUE(send_message(*ch, hello).ok());
    const Result<WireMessage> task = recv_message(*ch);
    ASSERT_TRUE(task.ok());
    EXPECT_EQ(task->type, MsgType::kTask);
    // Silence. The master reaps us (cancel or death); the channel close
    // is this thread's exit signal.
    const Result<WireMessage> next = recv_message(*ch);
    EXPECT_FALSE(next.ok());
  });
  wait_for_alive(pool, 1);  // the stooge holds slot 0 -> leased first

  std::thread honest([&path] {
    Result<Channel> ch = connect_unix(path);
    ASSERT_TRUE(ch.ok());
    WorkerOptions opts;
    opts.label = "honest";
    EXPECT_EQ(worker_main(std::move(*ch), opts), 0);
  });
  wait_for_alive(pool, 2);

  const svc::RemoteOutcome out =
      pool.run_attempt(small_attempt(), nullptr, nullptr);
  EXPECT_TRUE(out.ran) << out.failure.to_string();
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.verified);

  const svc::Metrics::Cluster cl = metrics.cluster();
  EXPECT_EQ(cl.dispatches, 2u);  // primary + hedge
  EXPECT_EQ(cl.acks, 1u);        // exactly one result counted
  EXPECT_EQ(cl.hedges_issued, 1u);
  EXPECT_EQ(cl.hedges_won, 1u);
  // The stooge is settled exactly once: cancelled loser or silent death,
  // depending on whether the hedge finished inside the dead window.
  EXPECT_EQ(cl.hedge_losers + cl.worker_deaths, 1u);
  EXPECT_EQ(cl.integrity_violations, 0u);
  EXPECT_EQ(pool.quarantined_workers(), 0);

  pool.shutdown();
  stooge.join();
  honest.join();
  ::unlink(path.c_str());
}

TEST(Cluster, LyingWorkerIsQuarantinedAndTheJobStillSucceeds) {
  // A worker whose reports are corrupted (bit-flipped input fingerprint)
  // completes the protocol flawlessly — only end-to-end integrity can
  // catch it. The master must discard the lying result, quarantine the
  // liar (strike threshold 1), re-dispatch to the honest worker, and ack
  // its verified result. Zero innocent bystanders.
  const std::string path = ::testing::TempDir() + "/dsm_cluster_quar.sock";
  svc::Metrics metrics;
  PoolConfig pc;
  pc.fork_workers = false;
  pc.policy.max_workers = 2;
  pc.max_redispatch = 1;
  pc.integrity_strikes = 1;
  WorkerPool pool(pc);
  pool.bind_service(&metrics, svc::FaultConfig{}, 0);
  ASSERT_TRUE(pool.serve(path).ok());

  std::thread liar([&path] {
    Result<Channel> ch = connect_unix(path);
    ASSERT_TRUE(ch.ok());
    WorkerOptions opts;
    opts.label = "liar";
    opts.lie = true;
    EXPECT_EQ(worker_main(std::move(*ch), opts), 0);
  });
  wait_for_alive(pool, 1);  // the liar holds slot 0 -> leased first

  std::thread honest([&path] {
    Result<Channel> ch = connect_unix(path);
    ASSERT_TRUE(ch.ok());
    WorkerOptions opts;
    opts.label = "honest";
    EXPECT_EQ(worker_main(std::move(*ch), opts), 0);
  });
  wait_for_alive(pool, 2);

  svc::RemoteAttempt attempt = small_attempt();
  attempt.check_integrity = true;
  attempt.expect = expect_for(attempt.job, attempt.plan.radix_bits);
  const svc::RemoteOutcome out = pool.run_attempt(attempt, nullptr, nullptr);
  EXPECT_TRUE(out.ran) << out.failure.to_string();
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.verified);

  const svc::Metrics::Cluster cl = metrics.cluster();
  EXPECT_EQ(cl.dispatches, 2u);
  EXPECT_EQ(cl.acks, 1u);
  EXPECT_EQ(cl.integrity_violations, 1u);
  EXPECT_EQ(cl.workers_quarantined, 1u);
  EXPECT_EQ(cl.redispatches, 1u);
  EXPECT_EQ(cl.worker_deaths, 0u);  // lying is not dying
  EXPECT_EQ(pool.quarantined_workers(), 1);  // the liar, nobody else

  pool.shutdown();
  liar.join();
  honest.join();
  ::unlink(path.c_str());
}

TEST(Cluster, RepeatOffenderAccumulatesStrikesOnTheSameIdentity) {
  // With the default two-strike policy the first lie releases the worker
  // (alive, responsive) but remembers the offence on its identity; the
  // re-dispatch leases the same front-of-pool worker, catches lie #2,
  // and quarantines it. The third dispatch reaches the honest worker and
  // the job still succeeds.
  const std::string path = ::testing::TempDir() + "/dsm_cluster_strk.sock";
  svc::Metrics metrics;
  PoolConfig pc;
  pc.fork_workers = false;
  pc.policy.max_workers = 2;
  pc.max_redispatch = 2;
  pc.integrity_strikes = 2;
  WorkerPool pool(pc);
  pool.bind_service(&metrics, svc::FaultConfig{}, 0);
  ASSERT_TRUE(pool.serve(path).ok());

  std::thread liar([&path] {
    Result<Channel> ch = connect_unix(path);
    ASSERT_TRUE(ch.ok());
    WorkerOptions opts;
    opts.label = "liar";
    opts.lie = true;
    EXPECT_EQ(worker_main(std::move(*ch), opts), 0);
  });
  wait_for_alive(pool, 1);
  std::thread honest([&path] {
    Result<Channel> ch = connect_unix(path);
    ASSERT_TRUE(ch.ok());
    EXPECT_EQ(worker_main(std::move(*ch), WorkerOptions{}), 0);
  });
  wait_for_alive(pool, 2);

  svc::RemoteAttempt attempt = small_attempt();
  attempt.check_integrity = true;
  attempt.expect = expect_for(attempt.job, attempt.plan.radix_bits);
  const svc::RemoteOutcome out = pool.run_attempt(attempt, nullptr, nullptr);
  EXPECT_TRUE(out.ran) << out.failure.to_string();
  EXPECT_TRUE(out.ok);
  const svc::Metrics::Cluster cl = metrics.cluster();
  EXPECT_EQ(cl.dispatches, 3u);  // liar, liar again, honest
  EXPECT_EQ(cl.acks, 1u);
  EXPECT_EQ(cl.integrity_violations, 2u);
  EXPECT_EQ(cl.workers_quarantined, 1u);
  EXPECT_EQ(pool.quarantined_workers(), 1);

  pool.shutdown();
  liar.join();
  honest.join();
  ::unlink(path.c_str());
}

TEST(Cluster, HeartbeatArmedReplayIsStillByteIdentical) {
  // The health protocol must not perturb the determinism contract: with
  // heartbeats armed (and integrity on by default) the clustered replay
  // still reproduces the single-process bytes, because heartbeats and
  // health metrics live outside the deterministic fingerprint.
  const std::vector<svc::JobSpec> trace = small_trace(8);
  svc::SortService local(small_config());
  const std::string base = replay_fingerprint(local, trace);

  PoolConfig pc = pool_config(2);
  pc.heartbeat_ms = 10;
  pc.suspect_after = 50;  // beats flow, but CI stalls cannot fake suspects
  WorkerPool pool(pc);
  svc::ServiceConfig cfg = small_config();
  cfg.remote = &pool;
  svc::SortService clustered(cfg);
  ASSERT_TRUE(pool.start().ok());
  EXPECT_EQ(replay_fingerprint(clustered, trace), base);
  const svc::Metrics::Cluster cl = clustered.metrics().cluster();
  EXPECT_EQ(cl.integrity_violations, 0u);
  EXPECT_EQ(cl.dispatches, cl.acks);  // hedges would break this identity
  EXPECT_GE(cl.acks, trace.size());
  pool.shutdown();
}

TEST(Cluster, FaultAndDeadlineReplayMatchesSingleProcessService) {
  // The same seeded attempts with every fault site armed and deadlines
  // tight enough to shed some jobs and abort others mid-run: the hook
  // order (mark, fault check, deadline abort), the failure texts and
  // the master-side serialize fault must come out identical whichever
  // process runs the attempt.
  svc::LoadMix mix;
  mix.sizes = {1u << 12, 1u << 13};
  mix.procs = {4, 8};
  mix.dists = {keys::Dist::kGauss, keys::Dist::kRandom, keys::Dist::kBucket};
  mix.deadlines_us = {0, 0, 300, 1400, 2200};
  mix.priorities = {0, 0, 0, svc::kCriticalPriority};
  const std::vector<svc::JobSpec> trace = svc::make_trace(4321, 32, mix);
  svc::ServiceConfig cfg = small_config();
  cfg.audit_every = 2;
  cfg.faults.seed = 99;
  cfg.faults.rate = 0.15;

  svc::SortService local(cfg);
  const std::string base = replay_fingerprint(local, trace);
  // Not vacuous: every attempt-level path fired in the reference run.
  const std::vector<std::uint64_t> fired = local.metrics().fault_counts();
  EXPECT_GT(fired[static_cast<std::size_t>(svc::FaultSite::kKeygen)], 0u);
  EXPECT_GT(fired[static_cast<std::size_t>(svc::FaultSite::kSortPhase)], 0u);
  EXPECT_GT(fired[static_cast<std::size_t>(svc::FaultSite::kSerialize)], 0u);
  const svc::Metrics::Counters c = local.metrics().counters();
  EXPECT_GT(c.shed, 0u);
  EXPECT_GT(c.deadline_miss, 0u);
  EXPECT_GT(c.audited, 0u);
  EXPECT_NE(base.find("virtual deadline exceeded at '"), std::string::npos)
      << "no job was aborted mid-run";

  WorkerPool pool(pool_config(2));
  cfg.remote = &pool;
  svc::SortService clustered(cfg);
  ASSERT_TRUE(pool.start().ok());
  EXPECT_EQ(replay_fingerprint(clustered, trace), base);
  pool.shutdown();
}

}  // namespace
}  // namespace dsm::cluster
