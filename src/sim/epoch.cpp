#include "sim/epoch.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/error.hpp"

namespace dsm::sim {
namespace {


void check_entries(std::span<const double> entry_ns, int nprocs) {
  DSM_REQUIRE(static_cast<int>(entry_ns.size()) == nprocs,
              "entry times must cover every process");
  for (double e : entry_ns) DSM_REQUIRE(e >= 0, "entry times must be >= 0");
}

/// Borrow each rank's vector of a span of owned vectors (the convenience
/// overloads used by tests; SimTeam calls the pointer-span engines
/// directly).
template <typename T>
std::vector<const std::vector<T>*> borrow(
    std::span<const std::vector<T>> owned) {
  std::vector<const std::vector<T>*> ptrs;
  ptrs.reserve(owned.size());
  for (const auto& v : owned) ptrs.push_back(&v);
  return ptrs;
}

}  // namespace

EpochResult simulate_two_sided(const machine::CostModel& cost,
                               std::span<const std::vector<Transfer>> sends,
                               std::span<const double> entry_ns,
                               const TwoSidedConfig& cfg) {
  const auto ptrs = borrow(sends);
  return simulate_two_sided(
      cost, std::span<const std::vector<Transfer>* const>(ptrs), entry_ns,
      cfg);
}

EpochResult simulate_two_sided(
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
  // A pair's slot frees only when that pair's own receiver consumes, so
  // receivers never interact: each is simulated alone, with its own
  // arrival queue (DESIGN.md §5.2).
  const int p = cost.nprocs();
  const auto pp = static_cast<std::size_t>(p);
  DSM_REQUIRE(static_cast<int>(sends.size()) == p,
              "sends must cover every process");
  check_entries(entry_ns, p);
  DSM_REQUIRE(cfg.slot_depth >= 1, "slot depth must be >= 1");
  const auto depth = static_cast<std::size_t>(cfg.slot_depth);

  // Validate and bucket the messages into one CSR keyed by (dst, src):
  // pair (s, d)'s FIFO is msgs[pair_begin[d * p + s], pair_begin[.. + 1])
  // in posting order.
  std::vector<std::size_t> pair_begin(pp * pp + 1, 0);
  for (int r = 0; r < p; ++r) {
    for (const Transfer& m : *sends[static_cast<std::size_t>(r)]) {
      DSM_REQUIRE(m.src == r, "transfer src must match the posting rank");
      DSM_REQUIRE(m.dst >= 0 && m.dst < p && m.dst != r,
                  "transfer dst must be a different valid rank");
      ++pair_begin[static_cast<std::size_t>(m.dst) * pp +
                   static_cast<std::size_t>(r) + 1];
    }
  }
  for (std::size_t i = 0; i < pp * pp; ++i) pair_begin[i + 1] += pair_begin[i];

  // Posting timelines: each message's ready (posted) time.
  struct Msg {
    double ready_ns;
    std::uint64_t bytes;
  };
  std::vector<Msg> msgs(pair_begin.back());
  std::vector<std::size_t> pair_fill(pair_begin.begin(), pair_begin.end() - 1);
  std::vector<double> post_end(pp);
  std::vector<double> rmem(pp, 0.0);
  for (int r = 0; r < p; ++r) {
    double t = entry_ns[static_cast<std::size_t>(r)];
    for (const Transfer& m : *sends[static_cast<std::size_t>(r)]) {
      const double c = cfg.send_overhead_ns +
                       cfg.send_copy_ns_per_byte * static_cast<double>(m.bytes);
      t += c;
      rmem[static_cast<std::size_t>(r)] += c;
      msgs[pair_fill[static_cast<std::size_t>(m.dst) * pp +
                     static_cast<std::size_t>(r)]++] = Msg{t, m.bytes};
    }
    post_end[static_cast<std::size_t>(r)] = t;
  }

  // Per receiver: consume arrivals in (arrival, seq) order, where seq
  // numbers the receiver's injections in the order a single global queue
  // would have made them (seeds by source, then one per consumption), so
  // every tie breaks as it always has. Consuming message k of a pair
  // frees the slot for message k + depth.
  struct Arrival {
    double arr_ns;
    std::uint64_t seq;
    std::size_t msg;
    int src;
  };
  const auto later = [](const Arrival& a, const Arrival& b) {
    return std::tie(a.arr_ns, a.seq) > std::tie(b.arr_ns, b.seq);
  };
  std::vector<Arrival> heap;
  std::vector<double> rtt_to_d(pp);  // line_rtt_ns(src, d) of the receiver
  std::vector<double> recv_free(pp);
  std::vector<double> send_done(pp, 0.0);
  for (int d = 0; d < p; ++d) {
    const auto dd = static_cast<std::size_t>(d);
    const std::size_t* const row = pair_begin.data() + dd * pp;
    for (int s = 0; s < p; ++s) {
      rtt_to_d[static_cast<std::size_t>(s)] = cost.line_rtt_ns(s, d);
    }
    std::uint64_t seq = 0;
    auto inject = [&](std::size_t mi, int src, double when) {
      // The payload movement is the initiator's copy (charged at post
      // time); only the descriptor/first-word latency remains in flight.
      const double inject_ns = std::max(msgs[mi].ready_ns, when);
      double& done = send_done[static_cast<std::size_t>(src)];
      done = std::max(done, inject_ns);
      heap.push_back(Arrival{
          inject_ns + rtt_to_d[static_cast<std::size_t>(src)], seq++, mi,
          src});
      std::push_heap(heap.begin(), heap.end(), later);
    };
    // Seed: the first `depth` messages of every pair inject immediately.
    for (int s = 0; s < p; ++s) {
      const auto ss = static_cast<std::size_t>(s);
      const std::size_t end = std::min(row[ss + 1], row[ss] + depth);
      for (std::size_t mi = row[ss]; mi < end; ++mi) inject(mi, s, 0.0);
    }
    double free_ns = post_end[dd];
    std::size_t consumed = 0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const Arrival a = heap.back();
      heap.pop_back();
      const double start = std::max(free_ns, a.arr_ns);
      const double c =
          cfg.recv_overhead_ns +
          cfg.recv_copy_ns_per_byte * static_cast<double>(msgs[a.msg].bytes);
      free_ns = start + c;
      rmem[dd] += c;
      ++consumed;
      const std::size_t next = a.msg + depth;
      if (next < row[static_cast<std::size_t>(a.src) + 1]) {
        inject(next, a.src, free_ns);
      }
    }
    DSM_CHECK(consumed == row[pp] - row[0], "receiver missed messages");
    recv_free[dd] = free_ns;
  }

  EpochResult res;
  res.procs.resize(pp);
  for (int r = 0; r < p; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    ProcOutcome& o = res.procs[rr];
    o.end_ns = std::max(recv_free[rr], send_done[rr]);
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

EpochResult simulate_gets(const machine::CostModel& cost,
                          std::span<const std::vector<Transfer>> gets,
                          std::span<const double> entry_ns,
                          const OneSidedConfig& cfg) {
  const auto ptrs = borrow(gets);
  return simulate_gets(cost,
                       std::span<const std::vector<Transfer>* const>(ptrs),
                       entry_ns, cfg);
}

EpochResult simulate_gets(const machine::CostModel& cost,
                          std::span<const std::vector<Transfer>* const> gets,
                          std::span<const double> entry_ns,
                          const OneSidedConfig& cfg) {
  // A batch get phase: the initiator issues its gets back to back (paying
  // the software overhead for each); transfers pipeline — outstanding gets
  // overlap — but every source serves requests through a FIFO memory/
  // directory server (occupancy + payload at link bandwidth), so many
  // getters hammering one source serialise there. The phase ends at the
  // last response. A server sees only its own requests, so each source's
  // queue is ordered and served alone (DESIGN.md §5.2).
  const int p = cost.nprocs();
  const auto pp = static_cast<std::size_t>(p);
  DSM_REQUIRE(p >= 1 && static_cast<int>(gets.size()) == p,
              "gets must cover every process");
  check_entries(entry_ns, p);

  const auto& mp = cost.params();

  // Validate and count the requests per source.
  std::vector<std::size_t> src_begin(pp + 1, 0);
  for (int r = 0; r < p; ++r) {
    for (const Transfer& m : *gets[static_cast<std::size_t>(r)]) {
      DSM_REQUIRE(m.dst == r, "get dst must be the issuing rank");
      DSM_REQUIRE(m.src >= 0 && m.src < p && m.src != r,
                  "get src must be a different valid rank");
      ++src_begin[static_cast<std::size_t>(m.src) + 1];
    }
  }
  for (std::size_t s = 0; s < pp; ++s) src_begin[s + 1] += src_begin[s];

  // Bucket every request by source with its arrival time at the server,
  // each source's slice in the global issue order (getter-major).
  struct Request {
    double arrive_ns;
    std::uint64_t bytes;
    int getter;
  };
  std::vector<Request> requests(src_begin.back());
  std::vector<std::size_t> src_fill(src_begin.begin(), src_begin.end() - 1);
  std::vector<double> issue_end(pp);
  // One-way latency between getter r and source s, [r * p + s].
  std::vector<double> half_rtt(pp * pp);
  for (int r = 0; r < p; ++r) {
    for (int s = 0; s < p; ++s) {
      half_rtt[static_cast<std::size_t>(r) * pp + static_cast<std::size_t>(s)] =
          cost.line_rtt_ns(r, s) / 2.0;
    }
  }
  for (int r = 0; r < p; ++r) {
    double t = entry_ns[static_cast<std::size_t>(r)];
    const double* const half_rtt_r =
        half_rtt.data() + static_cast<std::size_t>(r) * pp;
    for (const Transfer& m : *gets[static_cast<std::size_t>(r)]) {
      t += cfg.overhead_ns;
      requests[src_fill[static_cast<std::size_t>(m.src)]++] = Request{
          t + half_rtt_r[static_cast<std::size_t>(m.src)], m.bytes, r};
    }
    issue_end[static_cast<std::size_t>(r)] = t;
  }

  // Each source serves its requests in arrival order; equal arrivals keep
  // the issue order (the stable sort), as in one global (arrival, issue)
  // order.
  std::vector<double> last_response(pp, 0.0);
  for (int s = 0; s < p; ++s) {
    Request* const first =
        requests.data() + src_begin[static_cast<std::size_t>(s)];
    Request* const last =
        requests.data() + src_begin[static_cast<std::size_t>(s) + 1];
    std::stable_sort(first, last, [](const Request& a, const Request& b) {
      return a.arrive_ns < b.arrive_ns;
    });
    double srv = 0.0;
    for (const Request* it = first; it != last; ++it) {
      const double start = std::max(srv, it->arrive_ns);
      srv = start + mp.mem.dir_occupancy_ns +
            static_cast<double>(it->bytes) / mp.mem.bulk_copy_bytes_per_ns;
      const double response =
          srv + half_rtt[static_cast<std::size_t>(it->getter) * pp +
                         static_cast<std::size_t>(s)];
      auto& lr = last_response[static_cast<std::size_t>(it->getter)];
      lr = std::max(lr, response);
    }
  }

  EpochResult res;
  res.procs.resize(pp);
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

EpochResult simulate_puts(const machine::CostModel& cost,
                          std::span<const std::vector<Transfer>> puts,
                          std::span<const double> entry_ns,
                          const OneSidedConfig& cfg) {
  const auto ptrs = borrow(puts);
  return simulate_puts(cost,
                       std::span<const std::vector<Transfer>* const>(ptrs),
                       entry_ns, cfg);
}

EpochResult simulate_puts(const machine::CostModel& cost,
                          std::span<const std::vector<Transfer>* const> puts,
                          std::span<const double> entry_ns,
                          const OneSidedConfig& cfg) {
  const int p = cost.nprocs();
  DSM_REQUIRE(static_cast<int>(puts.size()) == p, "puts must cover every process");
  check_entries(entry_ns, p);

  const auto& mp = cost.params();
  EpochResult res;
  res.procs.resize(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    double t = entry_ns[static_cast<std::size_t>(r)];
    double rmem = 0;
    for (const Transfer& m : *puts[static_cast<std::size_t>(r)]) {
      DSM_REQUIRE(m.src == r, "put src must be the issuing rank");
      DSM_REQUIRE(m.dst >= 0 && m.dst < p && m.dst != r,
                  "put dst must be a different valid rank");
      // The initiator pays overhead plus injection at link bandwidth; the
      // flight time shows up only in the quiescence bound.
      const double c = cfg.overhead_ns +
                       static_cast<double>(m.bytes) / mp.mem.bulk_copy_bytes_per_ns;
      t += c;
      rmem += c;
      res.quiescence_ns =
          std::max(res.quiescence_ns, t + cost.line_rtt_ns(r, m.dst));
    }
    ProcOutcome& o = res.procs[static_cast<std::size_t>(r)];
    o.end_ns = t;
    o.rmem_ns = rmem;
    o.sync_ns = 0;
    res.quiescence_ns = std::max(res.quiescence_ns, t);
  }
  return res;
}

namespace {

/// Core of the scattered-write inflation; `for_each(fn)` must invoke
/// fn(const ScatteredTraffic&) for every traffic item in a stable order,
/// however the caller stores it (flat span or per-rank vectors in place).
template <typename ForEach>
std::vector<double> inflate_scattered_impl(const machine::CostModel& cost,
                                           int nprocs,
                                           std::span<const double> overlap_ns,
                                           ForEach&& for_each) {
  DSM_REQUIRE(nprocs >= 1, "need at least one process");
  DSM_REQUIRE(overlap_ns.empty() ||
                  static_cast<int>(overlap_ns.size()) == nprocs,
              "overlap must cover every process (or be empty)");
  std::vector<double> raw(static_cast<std::size_t>(nprocs), 0.0);
  std::vector<double> occupancy(static_cast<std::size_t>(nprocs), 0.0);
  for_each([&](const ScatteredTraffic& t) {
    DSM_REQUIRE(t.writer >= 0 && t.writer < nprocs, "writer out of range");
    DSM_REQUIRE(t.home >= 0 && t.home < nprocs, "home out of range");
    DSM_REQUIRE(t.writer != t.home,
                "locally-homed writes are LMEM, not scattered remote traffic");
    DSM_REQUIRE(t.per_line_ns >= 0 && t.transactions >= 0,
                "costs must be nonnegative");
    raw[static_cast<std::size_t>(t.writer)] +=
        static_cast<double>(t.lines) * t.per_line_ns;
    occupancy[static_cast<std::size_t>(t.home)] +=
        cost.home_occupancy_ns(1) * t.transactions;
  });
  // Phase span: slowest writer's overlapped computation plus its raw
  // write-issue time — the window the home directories must serve within.
  double span = 0;
  for (int w = 0; w < nprocs; ++w) {
    const double ov =
        overlap_ns.empty() ? 0.0 : overlap_ns[static_cast<std::size_t>(w)];
    span = std::max(span, ov + raw[static_cast<std::size_t>(w)]);
  }
  std::vector<double> out(static_cast<std::size_t>(nprocs), 0.0);
  if (span <= 0) return out;
  // Single-relaxation contention: if a home directory is busier than the
  // whole phase, every writer hitting it slows down proportionally.
  std::vector<double> factor(static_cast<std::size_t>(nprocs), 1.0);
  for (int h = 0; h < nprocs; ++h) {
    factor[static_cast<std::size_t>(h)] =
        std::max(1.0, occupancy[static_cast<std::size_t>(h)] / span);
  }
  for_each([&](const ScatteredTraffic& t) {
    out[static_cast<std::size_t>(t.writer)] +=
        static_cast<double>(t.lines) * t.per_line_ns *
        factor[static_cast<std::size_t>(t.home)];
  });
  return out;
}

}  // namespace

std::vector<double> inflate_scattered_writes(
    const machine::CostModel& cost, int nprocs,
    std::span<const ScatteredTraffic> traffic,
    std::span<const double> overlap_ns) {
  return inflate_scattered_impl(cost, nprocs, overlap_ns, [&](auto&& fn) {
    for (const ScatteredTraffic& t : traffic) fn(t);
  });
}

std::vector<double> inflate_scattered_writes(
    const machine::CostModel& cost, int nprocs,
    std::span<const std::vector<ScatteredTraffic>* const> traffic,
    std::span<const double> overlap_ns) {
  return inflate_scattered_impl(cost, nprocs, overlap_ns, [&](auto&& fn) {
    for (const auto* per_rank : traffic) {
      for (const ScatteredTraffic& t : *per_rank) fn(t);
    }
  });
}

}  // namespace dsm::sim
