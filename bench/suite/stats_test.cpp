/// Tests for foresight_bench's statistics and span folding.
#include <gtest/gtest.h>

#include <algorithm>

#include "stats.hpp"

namespace fbench {
namespace {

TEST(BenchStats, SamplesBeyondCountsRanksAboveTheQuantile) {
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(samples_beyond(1333, 0.99), 13u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(5, 1.0), 0u);
}

TEST(BenchStats, TailIsTheHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_quantile(19), 0.0);  // not even the median
  EXPECT_EQ(highest_supported_quantile(20), 0.5);
  EXPECT_EQ(highest_supported_quantile(39), 0.5);
  EXPECT_EQ(highest_supported_quantile(40), 0.75);
  EXPECT_EQ(highest_supported_quantile(99), 0.75);
  EXPECT_EQ(highest_supported_quantile(100), 0.9);
  EXPECT_EQ(highest_supported_quantile(999), 0.95);
  EXPECT_EQ(highest_supported_quantile(1000), 0.99);
  EXPECT_EQ(highest_supported_quantile(10000), 0.999);
}

TEST(BenchStats, SummaryReportsSampleCountAndWhetherTheTailIsSupported) {
  std::vector<double> samples;
  for (int i = 1; i <= 200; ++i) samples.push_back(i);
  const Timing t = summarize(samples, 0.95);
  EXPECT_EQ(t.n, 200u);
  EXPECT_DOUBLE_EQ(t.p50, 100.5);
  EXPECT_NEAR(t.tail, 190.05, 1e-9);
  EXPECT_TRUE(t.tail_supported);  // 10 samples beyond p95
  EXPECT_FALSE(summarize(samples, 0.99).tail_supported);
}

TEST(BenchStats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
  const Quartiles a = quartiles({4, 1, 3, 2});
  EXPECT_DOUBLE_EQ(a.q1, 1.25);
  EXPECT_DOUBLE_EQ(a.median, 2.5);
  EXPECT_DOUBLE_EQ(a.q3, 3.75);
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles b = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(b.q1, 2.75);
  EXPECT_DOUBLE_EQ(b.median, 5.5);
  EXPECT_DOUBLE_EQ(b.q3, 8.25);
}

TEST(BenchStats, SelfTimeSubtractsSameThreadChildrenOnly) {
  // Thread 1: a [10,60) holds b [20,30); c [70,80) is a sibling of a.
  // Thread 2 runs d over the same window; it must not reduce a's self time.
  const std::vector<SpanRec> spans = {
      {"a", 1, 10, 60}, {"b", 1, 20, 30}, {"c", 1, 70, 80}, {"d", 2, 0, 100}};
  const auto totals = fold_spans(spans);
  EXPECT_NEAR(totals.at("a").busy_s, 50e-9, 1e-15);
  EXPECT_NEAR(totals.at("a").self_s, 40e-9, 1e-15);
  EXPECT_NEAR(totals.at("b").self_s, 10e-9, 1e-15);
  EXPECT_NEAR(totals.at("d").self_s, 100e-9, 1e-15);
  EXPECT_EQ(totals.at("a").count, 1u);
}

TEST(BenchStats, OpRowsSumToWallTimeWithUnattributedRemainder) {
  const SpanRec op{"op", 1, 0, 100};
  const std::vector<SpanRec> spans = {
      op, {"a", 1, 10, 60}, {"b", 1, 20, 30}, {"c", 1, 70, 80}, {"d", 2, 0, 100},
      {"e", 1, 100, 130}};  // e starts as the op ends: not part of it
  const auto rows = attribute_op(op, spans);
  EXPECT_NEAR(rows.at("a"), 40e-9, 1e-15);
  EXPECT_NEAR(rows.at("b"), 10e-9, 1e-15);
  EXPECT_NEAR(rows.at("c"), 10e-9, 1e-15);
  EXPECT_NEAR(rows.at("unattributed"), 40e-9, 1e-15);
  EXPECT_EQ(rows.count("d"), 0u);
  EXPECT_EQ(rows.count("e"), 0u);
  double sum = 0.0;
  for (const auto& [name, seconds] : rows) sum += seconds;
  EXPECT_NEAR(sum, 100e-9, 1e-15);
}

TEST(BenchStats, OpRowsFoldDeepNestingIntoSelfTimes) {
  // op > a > a1 > a2, then b: every level keeps only what its child leaves.
  const SpanRec op{"op", 1, 0, 100};
  const auto rows = attribute_op(
      op, {op, {"a", 1, 10, 60}, {"a1", 1, 20, 50}, {"a2", 1, 25, 35}, {"b", 1, 60, 90}});
  EXPECT_NEAR(rows.at("a"), 20e-9, 1e-15);
  EXPECT_NEAR(rows.at("a1"), 20e-9, 1e-15);
  EXPECT_NEAR(rows.at("a2"), 10e-9, 1e-15);
  EXPECT_NEAR(rows.at("b"), 30e-9, 1e-15);
  EXPECT_NEAR(rows.at("unattributed"), 20e-9, 1e-15);
}

TEST(BenchStats, OpenLoopLatencyCountsAStallForEveryRequestQueuedBehindIt) {
  // Requests are due every 10 ms and take 1 ms, except request 3, whose
  // reply stalls for 100 ms. The generator here cannot send past an
  // unanswered request, as a blocking client would.
  using std::chrono::milliseconds;
  std::vector<OpenLoopRequest> reqs(20);
  Clock::time_point free_at{};
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].due = Clock::time_point{} + milliseconds(10 * i);
    reqs[i].sent = std::max(reqs[i].due, free_at);
    reqs[i].done = reqs[i].sent + milliseconds(i == 3 ? 100 : 1);
    free_at = reqs[i].done;
  }
  // Timed from the send, the stall would hide in request 3 alone.
  EXPECT_EQ(reqs[4].done - reqs[4].sent, milliseconds(1));
  // Timed from the due time, every request queued behind it carries it.
  EXPECT_NEAR(reqs[4].latency(), 0.091, 1e-12);
  EXPECT_NEAR(reqs[4].generator_lag(), 0.090, 1e-12);
  // Request 3, then the ten sent late until the backlog drains (request 13
  // still waits for request 12; request 14 goes out on time).
  std::size_t delayed = 0;
  for (const auto& r : reqs) delayed += r.latency() > 0.005 ? 1 : 0;
  EXPECT_EQ(delayed, 11u);
  EXPECT_NEAR(reqs[14].latency(), 0.001, 1e-12);
  std::vector<double> lat;
  for (const auto& r : reqs) lat.push_back(r.latency());
  EXPECT_GT(quantile(lat, 0.9), 0.05);
}

}  // namespace
}  // namespace fbench
