#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sim/team.hpp"
#include "sort/sort_api.hpp"

namespace dsm::sim {
namespace {

machine::MachineParams origin() { return machine::MachineParams::origin2000(); }

TEST(Trace, DisabledByDefault) {
  SimTeam team(2, origin());
  team.run([](ProcContext& ctx) { ctx.barrier(); });
  EXPECT_TRUE(team.trace_of(0).empty());
}

TEST(Trace, RecordsBarriersAndEpochs) {
  SimTeam team(2, origin());
  team.enable_tracing();
  TwoSidedConfig cfg;
  cfg.send_overhead_ns = 100;
  cfg.recv_overhead_ns = 50;
  team.run([&](ProcContext& ctx) {
    ctx.barrier();
    std::vector<Transfer> sends;
    if (ctx.rank() == 0) sends.push_back(Transfer{0, 1, 4096});
    ctx.team().two_sided_epoch(ctx, std::move(sends), cfg);
    ctx.barrier();
  });
  const auto& ev0 = team.trace_of(0);
  ASSERT_EQ(ev0.size(), 3u);
  EXPECT_EQ(ev0[0].kind, TraceEvent::Kind::kBarrier);
  EXPECT_EQ(ev0[1].kind, TraceEvent::Kind::kTwoSided);
  EXPECT_EQ(ev0[1].transfers, 1u);
  EXPECT_EQ(ev0[1].bytes, 4096u);
  EXPECT_EQ(ev0[2].kind, TraceEvent::Kind::kBarrier);
  // Spans are ordered and non-negative.
  for (const auto& ev : ev0) {
    EXPECT_GE(ev.end_ns, ev.start_ns);
  }
  EXPECT_LE(ev0[0].end_ns, ev0[1].start_ns + 1e-9);
}

TEST(Trace, GetPutScatteredKindsRecorded) {
  SimTeam team(2, origin());
  team.enable_tracing();
  team.run([&](ProcContext& ctx) {
    std::vector<Transfer> gets;
    if (ctx.rank() == 1) gets.push_back(Transfer{0, 1, 128});
    ctx.team().get_epoch(ctx, std::move(gets), OneSidedConfig{100});
    std::vector<Transfer> puts;
    if (ctx.rank() == 0) puts.push_back(Transfer{0, 1, 256});
    ctx.team().put_epoch(ctx, std::move(puts), OneSidedConfig{100});
    std::vector<ScatteredTraffic> traffic;
    if (ctx.rank() == 0) traffic.push_back({0, 1, 10, 100.0, 10});
    ctx.team().scattered_write_epoch(ctx, std::move(traffic));
  });
  const auto& ev1 = team.trace_of(1);
  ASSERT_EQ(ev1.size(), 3u);
  EXPECT_EQ(ev1[0].kind, TraceEvent::Kind::kGet);
  EXPECT_EQ(ev1[0].bytes, 128u);
  const auto& ev0 = team.trace_of(0);
  EXPECT_EQ(ev0[1].kind, TraceEvent::Kind::kPut);
  EXPECT_EQ(ev0[2].kind, TraceEvent::Kind::kScatteredWrite);
  EXPECT_EQ(ev0[2].bytes, 10u * 128u);
}

TEST(Trace, JsonLinesWellFormed) {
  std::vector<TraceEvent> events{
      {TraceEvent::Kind::kTwoSided, 1000.0, 2500.0, 3, 4096},
  };
  const std::string json = trace_to_json(7, events);
  EXPECT_NE(json.find("\"rank\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"two_sided\""), std::string::npos);
  EXPECT_NE(json.find("\"start_us\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(Trace, ResetClearsEvents) {
  SimTeam team(2, origin());
  team.enable_tracing();
  team.run([](ProcContext& ctx) { ctx.barrier(); });
  EXPECT_FALSE(team.trace_of(0).empty());
  team.reset_clocks();
  EXPECT_TRUE(team.trace_of(0).empty());
}

TEST(Trace, RunSortWritesJsonTrace) {
  const std::string path = ::testing::TempDir() + "/dsmsort_trace.jsonl";
  sort::SortSpec spec;
  spec.algo = sort::Algo::kRadix;
  spec.model = sort::Model::kShmem;
  spec.nprocs = 4;
  spec.n = 1 << 12;
  spec.trace_json_path = path;
  const auto res = sort::try_run_sort(spec).value();
  EXPECT_TRUE(res.verified);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0, gets = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"kind\":\"get\"") != std::string::npos) ++gets;
  }
  EXPECT_GT(lines, 0u);
  // SHMEM radix: one get epoch per pass per rank.
  EXPECT_EQ(gets, 4u * 4u);
  std::remove(path.c_str());
}

TEST(Trace, KindNamesComplete) {
  EXPECT_STREQ(trace_kind_name(TraceEvent::Kind::kBarrier), "barrier");
  EXPECT_STREQ(trace_kind_name(TraceEvent::Kind::kGet), "get");
  EXPECT_STREQ(trace_kind_name(TraceEvent::Kind::kPut), "put");
  EXPECT_STREQ(trace_kind_name(TraceEvent::Kind::kScatteredWrite),
               "scattered_write");
}

}  // namespace
}  // namespace dsm::sim
