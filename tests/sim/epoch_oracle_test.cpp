// Oracle tests for the per-endpoint epoch engines. The two functions
// below are the single-global-queue engines the library used before it
// simulated each receiver (two-sided) and each source (gets) alone,
// copied verbatim apart from their names. Over seeded random patterns the
// library engines must return the same EpochResult bit for bit: team
// sizes 1 to 64, slot depths 1, 2 and effectively unbounded, silent ranks,
// equal entry times and equal message sizes (arrival ties).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>
#include <tuple>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "sim/epoch.hpp"

namespace dsm::sim {
namespace {

void check_entries(std::span<const double> entry_ns, int nprocs) {
  DSM_REQUIRE(static_cast<int>(entry_ns.size()) == nprocs,
              "entry times must cover every process");
  for (double e : entry_ns) DSM_REQUIRE(e >= 0, "entry times must be >= 0");
}

EpochResult oracle_two_sided(
    const machine::CostModel& cost,
    std::span<const std::vector<Transfer>* const> sends,
    std::span<const double> entry_ns, const TwoSidedConfig& cfg) {
  // Model: the irecv-all / isend-all / waitall idiom the paper's codes use.
  //  * Posting: each process pays its send overheads (and staging copies)
  //    back to back — the CPU does not block on slots.
  //  * Injection: each ordered pair is a FIFO mailbox of depth slot_depth;
  //    message k of a pair can enter the wire only once the receiver has
  //    consumed message k - depth of that pair (the paper's "the next
  //    message has to wait until the former one has been received").
  //  * Draining: after posting, a process consumes arrivals in arrival
  //    order, paying the receive overhead (and staging copy-out) each.
  //  * Completion (waitall): a process leaves when it has drained all
  //    expected messages AND all of its own sends have injected; residual
  //    wait is SYNC.
  const int p = cost.nprocs();
  DSM_REQUIRE(static_cast<int>(sends.size()) == p,
              "sends must cover every process");
  check_entries(entry_ns, p);
  DSM_REQUIRE(cfg.slot_depth >= 1, "slot depth must be >= 1");

  struct Msg {
    int src;
    int dst;
    std::uint64_t bytes;
    std::size_t pair_seq;   // index within its (src,dst) FIFO
    double ready_ns = 0;    // posted (sender-side) time
    double inject_ns = -1;  // entered the wire
    double consume_ns = -1; // receiver finished its recv processing
  };

  // Flatten and validate; compute posting timelines.
  std::vector<Msg> msgs;
  std::vector<double> post_end(static_cast<std::size_t>(p));
  std::vector<double> rmem(static_cast<std::size_t>(p), 0.0);
  std::vector<std::uint64_t> expected(static_cast<std::size_t>(p), 0);
  std::vector<std::vector<std::size_t>> pair_fifo(
      static_cast<std::size_t>(p) * static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    double t = entry_ns[static_cast<std::size_t>(r)];
    for (const Transfer& m : *sends[static_cast<std::size_t>(r)]) {
      DSM_REQUIRE(m.src == r, "transfer src must match the posting rank");
      DSM_REQUIRE(m.dst >= 0 && m.dst < p && m.dst != r,
                  "transfer dst must be a different valid rank");
      const double c = cfg.send_overhead_ns +
                       cfg.send_copy_ns_per_byte * static_cast<double>(m.bytes);
      t += c;
      rmem[static_cast<std::size_t>(r)] += c;
      Msg msg{m.src, m.dst, m.bytes, 0, t, -1, -1};
      const std::size_t pid = static_cast<std::size_t>(r) *
                                  static_cast<std::size_t>(p) +
                              static_cast<std::size_t>(m.dst);
      msg.pair_seq = pair_fifo[pid].size();
      pair_fifo[pid].push_back(msgs.size());
      msgs.push_back(msg);
      ++expected[static_cast<std::size_t>(m.dst)];
    }
    post_end[static_cast<std::size_t>(r)] = t;
  }

  // Receiver state: time the CPU becomes free to process the next arrival
  // and accumulated waiting (SYNC).
  std::vector<double> recv_free = post_end;
  std::vector<double> recv_sync(static_cast<std::size_t>(p), 0.0);
  std::vector<std::uint64_t> consumed(static_cast<std::size_t>(p), 0);

  // Event queue of arrivals: (arrival time, seq, msg index).
  using Arr = std::tuple<double, std::uint64_t, std::size_t>;
  std::priority_queue<Arr, std::vector<Arr>, std::greater<>> arrivals;
  std::uint64_t seq = 0;

  auto inject = [&](std::size_t mi, double when) {
    Msg& m = msgs[mi];
    m.inject_ns = std::max(m.ready_ns, when);
    // The payload movement is the initiator's copy (charged at post
    // time); only the descriptor/first-word latency remains in flight.
    const double arr = m.inject_ns + cost.line_rtt_ns(m.src, m.dst);
    arrivals.emplace(arr, seq++, mi);
  };

  // Seed: the first `depth` messages of every pair can inject immediately.
  for (const auto& fifo : pair_fifo) {
    for (std::size_t k = 0;
         k < fifo.size() && k < static_cast<std::size_t>(cfg.slot_depth); ++k) {
      inject(fifo[k], 0.0);
    }
  }

  // Receivers consume arrivals in global arrival order; consuming message
  // k of a pair frees the slot for message k + depth.
  while (!arrivals.empty()) {
    const auto [arr, s, mi] = arrivals.top();
    (void)s;
    arrivals.pop();
    Msg& m = msgs[mi];
    const auto d = static_cast<std::size_t>(m.dst);
    const double start = std::max(recv_free[d], arr);
    recv_sync[d] += std::max(0.0, arr - recv_free[d]);
    const double c = cfg.recv_overhead_ns +
                     cfg.recv_copy_ns_per_byte * static_cast<double>(m.bytes);
    m.consume_ns = start + c;
    recv_free[d] = m.consume_ns;
    rmem[d] += c;
    ++consumed[d];
    const std::size_t pid = static_cast<std::size_t>(m.src) *
                                static_cast<std::size_t>(p) +
                            d;
    const std::size_t next = m.pair_seq + static_cast<std::size_t>(cfg.slot_depth);
    if (next < pair_fifo[pid].size()) {
      inject(pair_fifo[pid][next], m.consume_ns);
    }
  }

  EpochResult res;
  res.procs.resize(static_cast<std::size_t>(p));
  std::vector<double> send_done(static_cast<std::size_t>(p), 0.0);
  for (const Msg& m : msgs) {
    DSM_CHECK(m.consume_ns >= 0, "message never consumed (model deadlock)");
    const auto srs = static_cast<std::size_t>(m.src);
    send_done[srs] = std::max(send_done[srs], m.inject_ns);
  }
  for (int r = 0; r < p; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    DSM_CHECK(consumed[rr] == expected[rr], "receiver missed messages");
    ProcOutcome& o = res.procs[rr];
    const double drained = recv_free[rr];
    o.end_ns = std::max(drained, send_done[rr]);
    o.rmem_ns = rmem[rr];
    // SYNC is every nanosecond of the phase not spent in messaging work:
    // waits between arrivals plus the final waitall residue.
    o.sync_ns = o.end_ns - entry_ns[rr] - o.rmem_ns;
    DSM_CHECK(o.sync_ns > -1e-3, "negative sync in two-sided epoch");
    o.sync_ns = std::max(0.0, o.sync_ns);
    res.quiescence_ns = std::max(res.quiescence_ns, o.end_ns);
  }
  return res;
}

EpochResult oracle_gets(const machine::CostModel& cost,
                          std::span<const std::vector<Transfer>* const> gets,
                          std::span<const double> entry_ns,
                          const OneSidedConfig& cfg) {
  // A batch get phase: the initiator issues its gets back to back (paying
  // the software overhead for each); transfers pipeline — outstanding gets
  // overlap — but every source serves requests through a FIFO memory/
  // directory server (occupancy + payload at link bandwidth), so many
  // getters hammering one source serialise there. The phase ends at the
  // last response.
  const int p = cost.nprocs();
  DSM_REQUIRE(static_cast<int>(gets.size()) == p, "gets must cover every process");
  check_entries(entry_ns, p);

  const auto& mp = cost.params();

  // Gather all requests with their issue times, then serve per source in
  // request-arrival order.
  struct Request {
    double arrive_ns;
    std::uint64_t seq;
    int getter;
    std::size_t idx;
  };
  std::vector<Request> requests;
  std::vector<double> issue_end(static_cast<std::size_t>(p));
  std::uint64_t seq = 0;
  for (int r = 0; r < p; ++r) {
    double t = entry_ns[static_cast<std::size_t>(r)];
    const auto& mine = *gets[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const Transfer& m = mine[i];
      DSM_REQUIRE(m.dst == r, "get dst must be the issuing rank");
      DSM_REQUIRE(m.src >= 0 && m.src < p && m.src != r,
                  "get src must be a different valid rank");
      t += cfg.overhead_ns;
      requests.push_back(
          Request{t + cost.line_rtt_ns(r, m.src) / 2.0, seq++, r, i});
    }
    issue_end[static_cast<std::size_t>(r)] = t;
  }
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) {
              return std::tie(a.arrive_ns, a.seq) < std::tie(b.arrive_ns, b.seq);
            });

  std::vector<double> server_free(static_cast<std::size_t>(p), 0.0);
  std::vector<double> last_response(static_cast<std::size_t>(p), 0.0);
  for (const Request& rq : requests) {
    const Transfer& m =
        (*gets[static_cast<std::size_t>(rq.getter)])[rq.idx];
    double& srv = server_free[static_cast<std::size_t>(m.src)];
    const double start = std::max(srv, rq.arrive_ns);
    srv = start + mp.mem.dir_occupancy_ns +
          static_cast<double>(m.bytes) / mp.mem.bulk_copy_bytes_per_ns;
    const double response = srv + cost.line_rtt_ns(rq.getter, m.src) / 2.0;
    auto& lr = last_response[static_cast<std::size_t>(rq.getter)];
    lr = std::max(lr, response);
  }

  EpochResult res;
  res.procs.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    ProcOutcome& o = res.procs[rr];
    o.end_ns = std::max(issue_end[rr], last_response[rr]);
    o.end_ns = std::max(o.end_ns, entry_ns[rr]);
    // The whole phase is remote-communication stall for the getter.
    o.rmem_ns = o.end_ns - entry_ns[rr];
    o.sync_ns = 0;
    res.quiescence_ns = std::max(res.quiescence_ns, o.end_ns);
  }
  return res;
}

/// The oracles take the engines' pointer-span form; borrow owned lists.
std::vector<const std::vector<Transfer>*> borrow(
    std::span<const std::vector<Transfer>> owned) {
  std::vector<const std::vector<Transfer>*> ptrs;
  for (const auto& v : owned) ptrs.push_back(&v);
  return ptrs;
}

EpochResult oracle_two_sided(const machine::CostModel& cost,
                             std::span<const std::vector<Transfer>> sends,
                             std::span<const double> entry_ns,
                             const TwoSidedConfig& cfg) {
  const auto ptrs = borrow(sends);
  return oracle_two_sided(
      cost, std::span<const std::vector<Transfer>* const>(ptrs), entry_ns,
      cfg);
}

EpochResult oracle_gets(const machine::CostModel& cost,
                        std::span<const std::vector<Transfer>> gets,
                        std::span<const double> entry_ns,
                        const OneSidedConfig& cfg) {
  const auto ptrs = borrow(gets);
  return oracle_gets(cost, std::span<const std::vector<Transfer>* const>(ptrs),
                     entry_ns, cfg);
}

struct Case {
  int p = 1;
  std::uint64_t seed = 0;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const int p : {1, 2, 3, 7, 16, 64}) {
    for (std::uint64_t seed = 1; seed <= (p >= 16 ? 6u : 24u); ++seed) {
      out.push_back(Case{p, seed * 1000003 + static_cast<std::uint64_t>(p)});
    }
  }
  return out;
}

/// Entry times: all equal, a few distinct values (ties across ranks), or
/// all distinct.
std::vector<double> random_entries(int p, SplitMix64& rng) {
  std::vector<double> entry(static_cast<std::size_t>(p), 0.0);
  const auto mode = rng.next_below(3);
  for (double& e : entry) {
    if (mode == 1) e = 1000.0 * static_cast<double>(rng.next_below(3));
    if (mode == 2) e = static_cast<double>(rng.next_below(1u << 20)) / 7.0;
  }
  return entry;
}

/// Per-rank transfer lists; a quarter of the ranks stay silent, and sizes
/// come from a short list so equal arrivals happen.
std::vector<std::vector<Transfer>> random_lists(int p, SplitMix64& rng,
                                                bool gets) {
  std::vector<std::vector<Transfer>> lists(static_cast<std::size_t>(p));
  if (p == 1) return lists;
  constexpr std::uint64_t kSizes[] = {0, 64, 64, 4096, 12345};
  for (int r = 0; r < p; ++r) {
    if (rng.next_below(4) == 0) continue;
    const auto count = rng.next_below(static_cast<std::uint64_t>(3 * p));
    for (std::uint64_t i = 0; i < count; ++i) {
      int peer = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(p - 1)));
      if (peer >= r) ++peer;
      const std::uint64_t bytes = kSizes[rng.next_below(5)];
      lists[static_cast<std::size_t>(r)].push_back(
          gets ? Transfer{peer, r, bytes} : Transfer{r, peer, bytes});
    }
  }
  return lists;
}

void expect_bitwise_equal(const EpochResult& want, const EpochResult& got,
                          const std::string& what) {
  ASSERT_EQ(want.procs.size(), got.procs.size()) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.quiescence_ns),
            std::bit_cast<std::uint64_t>(got.quiescence_ns))
      << what;
  for (std::size_t r = 0; r < want.procs.size(); ++r) {
    const ProcOutcome& a = want.procs[r];
    const ProcOutcome& b = got.procs[r];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.end_ns),
              std::bit_cast<std::uint64_t>(b.end_ns))
        << what << " rank " << r;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rmem_ns),
              std::bit_cast<std::uint64_t>(b.rmem_ns))
        << what << " rank " << r;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.sync_ns),
              std::bit_cast<std::uint64_t>(b.sync_ns))
        << what << " rank " << r;
  }
}

TEST(EpochOracle, TwoSidedMatchesGlobalQueueBitwise) {
  for (const Case& c : cases()) {
    SplitMix64 rng(c.seed);
    const machine::CostModel cost(machine::MachineParams::origin2000(), c.p);
    const auto sends = random_lists(c.p, rng, false);
    const auto entry = random_entries(c.p, rng);
    for (const int depth : {1, 2, 1 << 20}) {
      for (const bool staged : {false, true}) {
        TwoSidedConfig cfg;
        cfg.slot_depth = depth;
        // A zero receive overhead lets consumptions coincide with arrivals.
        cfg.send_overhead_ns = 5000;
        cfg.recv_overhead_ns = staged ? 4000 : 0;
        cfg.send_copy_ns_per_byte = staged ? 0.25 : 0;
        cfg.recv_copy_ns_per_byte = staged ? 0.5 : 0;
        const std::string what = "p=" + std::to_string(c.p) + " seed=" +
                                 std::to_string(c.seed) + " depth=" +
                                 std::to_string(depth) +
                                 (staged ? " staged" : "");
        expect_bitwise_equal(
            oracle_two_sided(cost, std::span<const std::vector<Transfer>>(sends),
                             entry, cfg),
            simulate_two_sided(cost,
                               std::span<const std::vector<Transfer>>(sends),
                               entry, cfg),
            what);
      }
    }
  }
}

TEST(EpochOracle, FanInTiesBreakInGlobalQueueOrder) {
  // Every rank sends the same messages to one receiver at the same
  // instants, so first arrivals tie across every source at equal latency.
  // The order the receiver consumes a tie sets when each source's next
  // message injects, and with it that source's completion time.
  for (const int p : {3, 7, 16, 64}) {
    const machine::CostModel cost(machine::MachineParams::origin2000(), p);
    for (const int sink : {0, p / 2}) {
      std::vector<std::vector<Transfer>> sends(static_cast<std::size_t>(p));
      for (int s = 0; s < p; ++s) {
        if (s == sink) continue;
        for (int k = 0; k < 3; ++k) {
          sends[static_cast<std::size_t>(s)].push_back(
              Transfer{s, sink, 4096});
        }
      }
      const std::vector<double> entry(static_cast<std::size_t>(p), 0.0);
      for (const int depth : {1, 2}) {
        TwoSidedConfig cfg;
        cfg.slot_depth = depth;
        cfg.send_overhead_ns = 5000;
        cfg.recv_overhead_ns = 4000;
        expect_bitwise_equal(
            oracle_two_sided(cost,
                             std::span<const std::vector<Transfer>>(sends),
                             entry, cfg),
            simulate_two_sided(cost,
                               std::span<const std::vector<Transfer>>(sends),
                               entry, cfg),
            "p=" + std::to_string(p) + " sink=" + std::to_string(sink) +
                " depth=" + std::to_string(depth));
      }
    }
  }
}

TEST(EpochOracle, GetsMatchGlobalSortBitwise) {
  for (const Case& c : cases()) {
    SplitMix64 rng(c.seed);
    const machine::CostModel cost(machine::MachineParams::origin2000(), c.p);
    const auto gets = random_lists(c.p, rng, true);
    const auto entry = random_entries(c.p, rng);
    // Zero overhead issues a getter's requests at one instant.
    for (const double overhead : {0.0, 4000.0}) {
      const std::string what = "p=" + std::to_string(c.p) + " seed=" +
                               std::to_string(c.seed) + " overhead=" +
                               std::to_string(overhead);
      expect_bitwise_equal(
          oracle_gets(cost, std::span<const std::vector<Transfer>>(gets),
                      entry, OneSidedConfig{overhead}),
          simulate_gets(cost, std::span<const std::vector<Transfer>>(gets),
                        entry, OneSidedConfig{overhead}),
          what);
    }
  }
}

}  // namespace
}  // namespace dsm::sim
