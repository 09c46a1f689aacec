// Failure prediction substrate: trace shapes and predictor quality on
// the synthetic population (the paper's >=95%-accuracy premise).
#include "predict/predictor.h"
#include "predict/trace_generator.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"

namespace fastpr::predict {
namespace {

TraceConfig default_config() {
  TraceConfig cfg;
  cfg.num_disks = 400;
  cfg.failure_fraction = 0.08;
  cfg.horizon_days = 90;
  cfg.silent_failure_fraction = 0.0;  // most tests use symptomatic pop.
  return cfg;
}

TEST(TraceGenerator, PopulationCounts) {
  Rng rng(1);
  const auto cfg = default_config();
  const auto traces = generate_traces(cfg, rng);
  ASSERT_EQ(traces.size(), 400u);
  int failing = 0;
  for (const auto& t : traces) failing += t.will_fail ? 1 : 0;
  EXPECT_EQ(failing, 32);  // 8% of 400
}

TEST(TraceGenerator, HealthyDisksStayQuiet) {
  Rng rng(2);
  auto cfg = default_config();
  const auto traces = generate_traces(cfg, rng);
  for (const auto& t : traces) {
    if (t.will_fail) continue;
    const auto& last = t.samples.back();
    // Benign blips accumulate slowly; nowhere near a failing ramp.
    EXPECT_LT(last.values[kReallocatedSectors], 30.0);
    EXPECT_LT(last.values[kReportedUncorrectable], 5.0);
  }
}

TEST(TraceGenerator, FailingDisksRampBeforeFailure) {
  Rng rng(3);
  auto cfg = default_config();
  const auto traces = generate_traces(cfg, rng);
  for (const auto& t : traces) {
    if (!t.will_fail) continue;
    const auto& last = t.samples.back();
    EXPECT_GT(last.values[kReallocatedSectors], 25.0)
        << "disk " << t.disk_id << " failing at day " << t.failure_day;
    // Monotone error counters.
    double prev = -1;
    for (const auto& s : t.samples) {
      EXPECT_GE(s.values[kReallocatedSectors], prev);
      prev = s.values[kReallocatedSectors];
    }
  }
}

TEST(TraceGenerator, TraceEndsAtFailure) {
  Rng rng(4);
  auto cfg = default_config();
  const auto traces = generate_traces(cfg, rng);
  for (const auto& t : traces) {
    if (!t.will_fail) continue;
    EXPECT_LE(t.samples.back().day, t.failure_day);
  }
}

TEST(TraceGenerator, SilentFailuresShowNoSymptoms) {
  Rng rng(5);
  TraceConfig cfg = default_config();
  const auto t =
      generate_trace(0, /*will_fail=*/true, /*silent=*/true,
                     /*failure_day=*/60.0, cfg, rng);
  EXPECT_LT(t.samples.back().values[kReallocatedSectors], 30.0);
}

class PredictorQualityTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PredictorQualityTest, HighAccuracyOnSymptomaticPopulation) {
  Rng rng(6);
  const auto cfg = default_config();
  const auto traces = generate_traces(cfg, rng);

  std::unique_ptr<FailurePredictor> predictor;
  if (std::string(GetParam()) == "logistic") {
    predictor = std::make_unique<LogisticPredictor>();
  } else {
    predictor = std::make_unique<ThresholdPredictor>(50.0);
  }
  // Evaluate mid-trace with a lookahead covering the degradation lead.
  const auto result = evaluate(*predictor, traces, /*as_of_day=*/70.0,
                               /*lookahead_days=*/15.0);
  EXPECT_GE(result.accuracy(), 0.95) << GetParam();
  EXPECT_LE(result.false_alarm_rate(), 0.05) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Predictors, PredictorQualityTest,
                         ::testing::Values("logistic", "threshold"));

TEST(Predictor, NoPeekingPastAsOfDay) {
  Rng rng(7);
  auto cfg = default_config();
  const auto t = generate_trace(0, true, false, 80.0, cfg, rng);
  const LogisticPredictor p;
  // Long before onset the score must be low even though the trace
  // object contains the future ramp.
  EXPECT_LT(p.score(t, 10.0), p.decision_threshold());
  EXPECT_GE(p.score(t, 79.0), p.decision_threshold());
}

TEST(Predictor, SelectStfPicksDegradingDisk) {
  Rng rng(8);
  auto cfg = default_config();
  cfg.num_disks = 60;
  cfg.failure_fraction = 1.0 / 60.0;  // exactly one failing disk
  const auto traces = generate_traces(cfg, rng);
  int failing_id = -1;
  double failure_day = 0;
  for (const auto& t : traces) {
    if (t.will_fail) {
      failing_id = t.disk_id;
      failure_day = t.failure_day;
    }
  }
  ASSERT_NE(failing_id, -1);
  const LogisticPredictor p;
  EXPECT_EQ(select_stf_disk(p, traces, failure_day - 1.0), failing_id);
}

TEST(Predictor, SelectStfReturnsMinusOneWhenAllHealthy) {
  Rng rng(9);
  auto cfg = default_config();
  cfg.num_disks = 50;
  cfg.failure_fraction = 0.0;
  const auto traces = generate_traces(cfg, rng);
  const LogisticPredictor p;
  EXPECT_EQ(select_stf_disk(p, traces, 45.0), -1);
}

TEST(Predictor, EvalMetricsArithmetic) {
  EvalResult r;
  r.true_positives = 8;
  r.false_positives = 2;
  r.true_negatives = 88;
  r.false_negatives = 2;
  EXPECT_DOUBLE_EQ(r.precision(), 0.8);
  EXPECT_DOUBLE_EQ(r.recall(), 0.8);
  EXPECT_DOUBLE_EQ(r.false_alarm_rate(), 2.0 / 90.0);
  EXPECT_DOUBLE_EQ(r.accuracy(), 0.96);
}

TEST(Predictor, DeadDisksExcludedFromEvaluation) {
  Rng rng(10);
  auto cfg = default_config();
  cfg.num_disks = 100;
  cfg.failure_fraction = 0.5;
  const auto traces = generate_traces(cfg, rng);
  const LogisticPredictor p;
  // At the horizon every failing disk is already dead → only negatives
  // remain in the evaluation set.
  const auto result = evaluate(p, traces, cfg.horizon_days + 1.0, 10.0);
  EXPECT_EQ(result.true_positives + result.false_negatives, 0);
  EXPECT_GT(result.true_negatives + result.false_positives, 0);
}

}  // namespace
}  // namespace fastpr::predict
