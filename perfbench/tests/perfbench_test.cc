// The benchmark's own tests: a reduced slice of each workload runs every
// code path of the full day in seconds, each outcome check is shown to
// fail on a planted fault, and the slice's outcome is thread-invariant.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "day_run.h"
#include "day_workload.h"
#include "layer_probe.h"
#include "outcome_checks.h"
#include "span_totals.h"
#include "telemetry/session.h"

namespace perfbench {
namespace {

constexpr double kSliceShare = 0.05;  // ~14k orders, 150 drivers, 24 h
constexpr uint64_t kSeed = 3;

std::string OutDir() {
  const std::filesystem::path dir =
      std::filesystem::current_path() / "perfbench_test_out";
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::unique_ptr<BuiltDay> BuildSlice(const std::string& name,
                                     int threads = -1) {
  mrvd::StatusOr<WorkloadSpec> spec = FindWorkload(name);
  EXPECT_TRUE(spec.ok()) << spec.status();
  WorkloadSpec slice = Slice(*spec, kSliceShare);
  if (threads > 0) slice.num_threads = threads;
  mrvd::StatusOr<std::unique_ptr<BuiltDay>> day =
      BuildDay(slice, kSeed, OutDir());
  EXPECT_TRUE(day.ok()) << day.status();
  return std::move(day).value();
}

CheckReport Check(const PassResult& pass, const BuiltDay& day) {
  return CheckDay(pass.record, pass.result, day.workload,
                  day.simulation->travel_model(),
                  day.simulation->config().alpha);
}

class SliceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SliceTest, UntracedAndTracedPassesAgreeAndPassEveryCheck) {
  std::unique_ptr<BuiltDay> day = BuildSlice(GetParam());
  mrvd::StatusOr<PassResult> plain = RunPass(*day, nullptr, nullptr);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->record.batches, 17280);
  EXPECT_EQ(static_cast<int64_t>(plain->batch_seconds.size()), 17280);
  EXPECT_GT(plain->result.served_orders, 0);
  const CheckReport report = Check(*plain, *day);
  EXPECT_TRUE(report.day_ok());
  EXPECT_TRUE(report.failed_batches.empty());
  for (const std::string& m : report.messages) ADD_FAILURE() << m;

  mrvd::telemetry::TelemetrySession session;
  BatchSampler sampler(32);
  mrvd::StatusOr<PassResult> traced = RunPass(*day, &session, &sampler);
  session.Finish();
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_EQ(OutcomeOf(traced->result), OutcomeOf(plain->result));
  EXPECT_TRUE(Check(*traced, *day).day_ok());

  const std::string trace = OutDir() + "/" + GetParam() + ".json";
  ASSERT_TRUE(session.WriteChromeTrace(trace).ok());
  mrvd::StatusOr<SpanTotals> spans = ReadSpanTotals(trace);
  ASSERT_TRUE(spans.ok()) << spans.status();
  EXPECT_GT(spans->Main("batch"), 0.0);
  EXPECT_GT(spans->Main("dispatch"), 0.0);
  EXPECT_GE(spans->BatchSelfSeconds(), 0.0);

  const bool greedy = day->spec.dispatcher == "LS";
  const ProbeTotals probe =
      ReplaySample(sampler.captured(), day->simulation->config(), *day->grid,
                   day->simulation->travel_model(), greedy);
  EXPECT_EQ(probe.batches, 17280 / 32);
  EXPECT_GT(probe.pairs, 0);
  EXPECT_GT(probe.travel_calls, probe.pairs);
  EXPECT_GT(probe.assignments_checked, 0);
  EXPECT_TRUE(probe.invalid_batches.empty());
  EXPECT_EQ(probe.et_solves > 0, greedy);

  if (day->spec.rush) {
    EXPECT_GT(plain->scenario_events, 0);
    EXPECT_GT(plain->record.cancelled, 0);
    EXPECT_GT(day->times.trace_mb, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SliceTest,
                         ::testing::Values("day-ls", "day-ls-4t",
                                           "rush-near-4t"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SliceTest, OutcomeIsTheSameAtOneAndFourThreads) {
  for (const char* name : {"day-ls", "rush-near-4t"}) {
    std::unique_ptr<BuiltDay> serial = BuildSlice(name, 1);
    std::unique_ptr<BuiltDay> parallel = BuildSlice(name, 4);
    mrvd::StatusOr<PassResult> a = RunPass(*serial, nullptr, nullptr);
    mrvd::StatusOr<PassResult> b = RunPass(*parallel, nullptr, nullptr);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->result.total_revenue, b->result.total_revenue) << name;
    EXPECT_EQ(a->result.served_orders, b->result.served_orders) << name;
  }
}

/// One recorded slice day, shared by the planted-fault tests.
class PlantedFaultTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    day_ = BuildSlice("day-ls").release();
    mrvd::StatusOr<PassResult> pass = RunPass(*day_, nullptr, &sampler_);
    ASSERT_TRUE(pass.ok()) << pass.status();
    pass_ = new PassResult(std::move(pass).value());
    ASSERT_GT(pass_->record.assignments.size(), 100u);
  }
  static void TearDownTestSuite() {
    delete pass_;
    delete day_;
  }

  CheckReport CheckPlanted(const PassResult& pass) const {
    return Check(pass, *day_);
  }

  const mrvd::Order& OrderOf(const RecordedAssignment& a) const {
    for (const mrvd::Order& o : day_->workload.orders) {
      if (o.id == a.order_id) return o;
    }
    ADD_FAILURE() << "order " << a.order_id << " not generated";
    return day_->workload.orders.front();
  }

  static BuiltDay* day_;
  static PassResult* pass_;
  static BatchSampler sampler_;
};

BuiltDay* PlantedFaultTest::day_ = nullptr;
PassResult* PlantedFaultTest::pass_ = nullptr;
BatchSampler PlantedFaultTest::sampler_(32);

TEST_F(PlantedFaultTest, UnplantedDayIsClean) {
  const CheckReport report = CheckPlanted(*pass_);
  EXPECT_TRUE(report.day_ok());
  EXPECT_TRUE(report.failed_batches.empty());
}

TEST_F(PlantedFaultTest, AssignmentPastItsDeadlineFailsItsBatch) {
  PassResult pass = *pass_;
  RecordedAssignment& a = pass.record.assignments[50];
  a.now = OrderOf(a).pickup_deadline;  // any pickup travel now misses it
  const CheckReport report = CheckPlanted(pass);
  EXPECT_GE(report.late_pickups, 1);
  ASSERT_FALSE(report.failed_batches.empty());
  EXPECT_EQ(report.failed_batches.front(), a.batch);
}

TEST_F(PlantedFaultTest, OrderServedTwiceFailsItsBatch) {
  PassResult pass = *pass_;
  RecordedAssignment again = pass.record.assignments[50];
  again.batch = pass.record.batches - 1;
  again.now = 86395.0;
  pass.record.assignments.push_back(again);
  const CheckReport report = CheckPlanted(pass);
  EXPECT_EQ(report.double_served, 1);
  EXPECT_EQ(report.failed_batches.back(), again.batch);
}

TEST_F(PlantedFaultTest, DriverAssignedWhileBusyFailsItsBatch) {
  PassResult pass = *pass_;
  auto& as = pass.record.assignments;
  // Two assignments of one batch: hand the second one the first's driver.
  size_t k = 1;
  while (k < as.size() && as[k].batch != as[k - 1].batch) ++k;
  ASSERT_LT(k, as.size());
  as[k].driver_id = as[k - 1].driver_id;
  const CheckReport report = CheckPlanted(pass);
  EXPECT_GE(report.double_booked, 1);
  EXPECT_NE(std::find(report.failed_batches.begin(),
                      report.failed_batches.end(), as[k].batch),
            report.failed_batches.end());
}

TEST_F(PlantedFaultTest, RevenueOffByOneFareFailsTheDay) {
  PassResult pass = *pass_;
  const mrvd::Order& o = OrderOf(pass.record.assignments.front());
  pass.result.total_revenue +=
      day_->simulation->config().alpha *
      day_->simulation->travel_model().TravelSeconds(o.pickup, o.dropoff);
  const CheckReport report = CheckPlanted(pass);
  EXPECT_FALSE(report.revenue_ok);
  EXPECT_TRUE(report.conservation_ok);
}

TEST_F(PlantedFaultTest, DroppedOrderFailsConservation) {
  PassResult pass = *pass_;
  pass.record.assignments.erase(pass.record.assignments.begin() + 50);
  const CheckReport report = CheckPlanted(pass);
  EXPECT_FALSE(report.conservation_ok);
  EXPECT_FALSE(report.served_ok);
}

TEST_F(PlantedFaultTest, AssignmentOutsideTheValidPairsFailsTheReplay) {
  std::vector<CapturedBatch> sample = sampler_.captured();
  const mrvd::TravelCostModel& travel = day_->simulation->travel_model();
  // Re-point one assignment at a driver who cannot reach the pickup in time.
  bool planted = false;
  for (CapturedBatch& c : sample) {
    if (c.assignments.empty()) continue;
    mrvd::Assignment& a = c.assignments.front();
    const mrvd::WaitingRider& r = c.riders[static_cast<size_t>(a.rider_index)];
    for (size_t d = 0; d < c.drivers.size() && !planted; ++d) {
      if (c.now + travel.TravelSeconds(c.drivers[d].location, r.pickup) >
          r.pickup_deadline) {
        a.driver_index = static_cast<int>(d);
        planted = true;
      }
    }
    if (planted) {
      const ProbeTotals probe =
          ReplaySample(sample, day_->simulation->config(), *day_->grid,
                       travel, /*replay_greedy=*/false);
      ASSERT_EQ(probe.invalid_batches.size(), 1u);
      EXPECT_EQ(probe.invalid_batches.front(), c.batch);
      return;
    }
  }
  FAIL() << "no sampled batch to plant an invalid pair in";
}

TEST(SpanTotalsTest, FoldsStagesSelfTimeAndWorkerNesting) {
  const std::string path = OutDir() + "/hand.json";
  std::ofstream(path) << R"({"traceEvents": [
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "main"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 2, "args": {"name": "worker-0"}},
    {"name": "batch", "cat": "mrvd", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 1},
    {"name": "batch_build", "cat": "mrvd", "ph": "X", "ts": 0, "dur": 30, "pid": 1, "tid": 1},
    {"name": "dispatch", "cat": "mrvd", "ph": "X", "ts": 30, "dur": 50, "pid": 1, "tid": 1},
    {"name": "ls_propose", "cat": "mrvd", "ph": "X", "ts": 35, "dur": 10, "pid": 1, "tid": 1},
    {"name": "shard_prepare", "cat": "mrvd", "ph": "X", "ts": 31, "dur": 20, "pid": 1, "tid": 2},
    {"name": "ls_propose_chunk", "cat": "mrvd", "ph": "X", "ts": 32, "dur": 5, "pid": 1, "tid": 2},
    {"name": "ls_propose_chunk", "cat": "mrvd", "ph": "X", "ts": 60, "dur": 4, "pid": 1, "tid": 2}
  ]})";
  mrvd::StatusOr<SpanTotals> totals = ReadSpanTotals(path);
  ASSERT_TRUE(totals.ok()) << totals.status();
  EXPECT_EQ(totals->spans, 7);
  EXPECT_DOUBLE_EQ(totals->Main("dispatch"), 50e-6);
  EXPECT_DOUBLE_EQ(totals->BatchSelfSeconds(), 20e-6);  // 100 - 30 - 50
  EXPECT_DOUBLE_EQ(totals->All("shard_prepare"), 20e-6);
  EXPECT_DOUBLE_EQ(totals->worker_busy_seconds, 24e-6);  // 20 + 4, not 5
}

TEST(FastestOfTicksTest, IsTheMeanFastestOverEverySubsetOfDays) {
  // Three days: each tick's minimum.
  EXPECT_EQ(FastestOfTicks({{3, 1}, {1, 5}, {2, 4}}, 3),
            (std::vector<double>{1, 1}));
  // Four days, tick times 1..4 in any day order: the fastest of the four
  // 3-day subsets are 1, 1, 1 and 2, so 1.25.
  const std::vector<double> fastest =
      FastestOfTicks({{4, 1}, {2, 2}, {1, 3}, {3, 4}}, 3);
  ASSERT_EQ(fastest.size(), 2u);
  EXPECT_DOUBLE_EQ(fastest[0], 1.25);
  EXPECT_DOUBLE_EQ(fastest[1], 1.25);
  EXPECT_TRUE(FastestOfTicks({{1}, {2}}, 3).empty());
}

}  // namespace
}  // namespace perfbench
