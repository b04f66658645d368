// Tests of the benchmark's own measurement and checking code (perfbench/src/harness.h).
#include "harness.h"

#include <gtest/gtest.h>

#include <cmath>

#include "trace/attribution.h"
#include "trace/recorder.h"

namespace distserve::perfbench {
namespace {

metrics::RequestRecord Completed(workload::RequestId id, double arrival) {
  metrics::RequestRecord r;
  r.id = id;
  r.arrival = arrival;
  r.input_len = 8;
  r.output_len = 4;
  r.prefill_start = arrival + 0.01;
  r.first_token = arrival + 0.05;
  r.transfer_start = r.first_token;
  r.transfer_end = r.first_token;
  r.decode_start = r.first_token;
  r.completion = arrival + 0.2;
  return r;
}

metrics::Collector FourRequests() {
  metrics::Collector c;
  c.Record(Completed(0, 0.0));
  c.Record(Completed(1, 0.5));
  c.RecordLost(Completed(2, 1.0));
  c.RecordCancelled(Completed(3, 1.5));
  return c;
}

TEST(PercentileRuleTest, ReportsTheWantedPercentileWithTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(1000, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(1000000, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(100, 50.0), 50.0);
}

TEST(PercentileRuleTest, FallsBackToTheHighestSupportedPercentile) {
  EXPECT_DOUBLE_EQ(SupportedPercentile(500, 99.0), 98.0);   // 10 of 500 samples beyond p98
  EXPECT_DOUBLE_EQ(SupportedPercentile(999, 99.0), 100.0 * (1.0 - 10.0 / 999.0));
  EXPECT_DOUBLE_EQ(SupportedPercentile(20, 99.0), 50.0);
}

TEST(PercentileRuleTest, TooFewSamplesSupportNoPercentile) {
  EXPECT_EQ(SupportedPercentile(10, 50.0), 0.0);
  EXPECT_EQ(SupportedPercentile(0, 99.0), 0.0);
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildIntervals) {
  // parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] is clipped to the parent;
  // the grandchild [1.5, 2] is inside a child and must not be subtracted twice.
  const std::vector<HostSpan> spans = {
      {"core.plan", 0.0, 10.0, -1, 1},      {"placement.a", 1.0, 3.0, 0, 1},
      {"placement.b", 2.0, 5.0, 0, 1},      {"placement.c", 8.0, 12.0, 0, 1},
      {"model.eval", 1.5, 2.0, 1, 1},
  };
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 0), 10.0 - 4.0 - 2.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 1), 2.0 - 0.5);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 4), 0.5);
  const std::map<std::string, double> modules = ModuleSelfSeconds(spans);
  EXPECT_DOUBLE_EQ(modules.at("core"), 4.0);
  EXPECT_DOUBLE_EQ(modules.at("placement"), 1.5 + 3.0 + 4.0);
  EXPECT_DOUBLE_EQ(modules.at("model"), 0.5);
}

TEST(SpanTest, RecorderNestsSpansUnderTheInnermostOpenSpan) {
  SpanRecorder recorder(42);
  {
    ScopedSpan outer(&recorder, "bench.rep");
    { ScopedSpan inner(&recorder, "serving.run"); }
    { ScopedSpan inner(&recorder, "metrics.fold"); }
  }
  { ScopedSpan root(&recorder, "bench.layers"); }
  const std::vector<HostSpan>& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  for (const HostSpan& s : spans) {
    EXPECT_EQ(s.run_id, 42u);
    EXPECT_LE(s.start, s.end);
  }
}

TEST(CheckTest, ConservationHoldsWhenEveryRequestEndsOnce) {
  EXPECT_EQ(CheckConservation(FourRequests(), 4), "");
}

TEST(CheckTest, ConservationFiresOnADroppedRecord) {
  metrics::Collector c;
  c.Record(Completed(0, 0.0));
  c.RecordLost(Completed(2, 1.0));
  c.RecordCancelled(Completed(3, 1.5));
  EXPECT_NE(CheckConservation(c, 4), "");
}

TEST(CheckTest, PlanCheckFiresOnAPlanThatDoesNotFitOrPromisesNothing) {
  const cluster::ClusterSpec cluster = cluster::ClusterSpec::PaperTestbed();
  placement::PlacementPlan plan;
  plan.prefill_par = {2, 1};
  plan.decode_par = {2, 1};
  plan.prefill_goodput = 3.0;
  plan.decode_goodput = 4.0;
  EXPECT_EQ(CheckPlan(plan, cluster), "");

  placement::PlacementPlan too_big = plan;
  too_big.num_decode = cluster.total_gpus();
  EXPECT_NE(CheckPlan(too_big, cluster), "");

  placement::PlacementPlan no_goodput = plan;
  no_goodput.decode_goodput = 0.0;
  EXPECT_NE(CheckPlan(no_goodput, cluster), "");
}

TEST(CheckTest, SamePlanCheckFiresOnAOneBitGoodputChange) {
  placement::PlacementPlan a;
  a.prefill_goodput = 3.0;
  a.decode_goodput = 4.0;
  placement::PlacementPlan b = a;
  EXPECT_EQ(CheckSamePlan(a, b), "");
  b.decode_goodput = std::nextafter(4.0, 5.0);
  EXPECT_NE(CheckSamePlan(a, b), "");
}

TEST(CheckTest, BitIdentityFiresOnAChangedTimestampOrADroppedRecord) {
  const metrics::Collector a = FourRequests();
  EXPECT_EQ(CheckBitIdentical(a, FourRequests()), "");

  metrics::Collector shifted;
  metrics::RequestRecord late = Completed(0, 0.0);
  late.completion = std::nextafter(late.completion, 1.0);
  shifted.Record(late);
  shifted.Record(Completed(1, 0.5));
  shifted.RecordLost(Completed(2, 1.0));
  shifted.RecordCancelled(Completed(3, 1.5));
  EXPECT_NE(CheckBitIdentical(a, shifted), "");

  metrics::Collector dropped;
  dropped.Record(Completed(0, 0.0));
  dropped.RecordLost(Completed(2, 1.0));
  dropped.RecordCancelled(Completed(3, 1.5));
  EXPECT_NE(CheckBitIdentical(a, dropped), "");
}

TEST(CheckTest, SpanValidationFiresOnASecondTerminalOutcome) {
  trace::Recorder sound;
  sound.Transition(7, 0.0, trace::SpanKind::kPrefillQueue, 0, 0);
  sound.Finish(7, 1.0);
  EXPECT_EQ(trace::ValidateSpans(sound), "");

  trace::Recorder corrupted;
  corrupted.Transition(7, 0.0, trace::SpanKind::kPrefillQueue, 0, 0);
  corrupted.Finish(7, 1.0);
  corrupted.Drop(7, 2.0);
  EXPECT_NE(trace::ValidateSpans(corrupted), "");
}

TEST(DigestTest, CoversEveryRecordBitAndTheNeverCompletedIds) {
  Digest a;
  a.Add(FourRequests());
  Digest same;
  same.Add(FourRequests());
  EXPECT_EQ(a.value(), same.value());

  metrics::Collector timed_out = FourRequests();
  timed_out.RecordTimedOut(Completed(4, 2.0));
  Digest b;
  b.Add(timed_out);
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.Hex().size(), 16u);
}

TEST(LedgerTest, CountsFailedOperationsAgainstAttempted) {
  Ledger ledger;
  ledger.Record("plan", "");
  ledger.Record("run", "conservation: 3 != 4");
  ledger.Record("replan", "");
  EXPECT_EQ(ledger.attempted(), 3);
  EXPECT_EQ(ledger.failed(), 1);
}

TEST(MetricSetTest, PrintsEveryDigitOfEachValue) {
  MetricSet set;
  set.Set("wall_s", 0.1, "s");
  set.Set("sim_attainment", 1.0 / 3.0, "ratio");
  EXPECT_EQ(set.Json(),
            "{\"sim_attainment\": {\"value\": 0.33333333333333331, \"unit\": \"ratio\"}, "
            "\"wall_s\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}");
}

}  // namespace
}  // namespace distserve::perfbench
