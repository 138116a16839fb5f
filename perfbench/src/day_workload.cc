#include "day_workload.h"

#include <filesystem>
#include <utility>

#include "prediction/predictor.h"
#include "scenario/generator.h"
#include "util/stopwatch.h"
#include "workload/demand_history.h"
#include "workload/generator.h"
#include "workload/order_stream.h"

namespace perfbench {

namespace {

// The city (hotspot fields, destination kernel) comes from the library's
// default master seed; the benchmark seed picks which day of that city is
// drawn. Day indices 1, 8, 15, ... are the same weekday (day % 7 == 1, as
// the campaign catalog's "nyc"), independent Poisson draws around one
// intensity, so seeds move the inputs without moving the outcome's scale.
constexpr uint64_t kCitySeed = 20190417;
constexpr int kOracleSlots = 48;

// Rush reshaping: 70% of the 07:00-10:00 arrivals funnelled into grid rows
// 0-2, with a x2 surge over the same rows and window.
constexpr double kRushStart = 7.0 * 3600.0;
constexpr double kRushEnd = 10.0 * 3600.0;
constexpr double kRushShare = 0.7;
constexpr int kRushRowLo = 0;
constexpr int kRushRowHi = 2;
constexpr double kRushSurge = 2.0;
constexpr double kCancelProbability = 0.05;

int DayIndex(uint64_t bench_seed) {
  return 1 + 7 * static_cast<int>(bench_seed % 100000);
}

}  // namespace

mrvd::StatusOr<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "day-ls") {
    spec.dispatcher = "LS";
  } else if (name == "day-ls-4t") {
    spec.dispatcher = "LS";
    spec.num_threads = 4;
  } else if (name == "rush-near-4t") {
    spec.dispatcher = "NEAR";
    spec.num_threads = 4;
    spec.rush = true;
  } else {
    return mrvd::Status::InvalidArgument(
        "unknown workload '" + name +
        "' (known: day-ls, day-ls-4t, rush-near-4t)");
  }
  return spec;
}

WorkloadSpec Slice(WorkloadSpec spec, double share) {
  spec.orders_per_day = static_cast<int>(spec.orders_per_day * share);
  spec.drivers = static_cast<int>(spec.drivers * share);
  return spec;
}

mrvd::StatusOr<std::unique_ptr<BuiltDay>> BuildDay(const WorkloadSpec& spec,
                                                   uint64_t seed,
                                                   const std::string& out_dir) {
  auto day = std::make_unique<BuiltDay>();
  day->spec = spec;
  day->seed = seed;

  mrvd::GeneratorConfig gcfg;
  gcfg.grid_rows = spec.grid_rows;
  gcfg.grid_cols = spec.grid_cols;
  gcfg.orders_per_day = spec.orders_per_day;
  gcfg.seed = kCitySeed;

  mrvd::Stopwatch watch;
  mrvd::NycLikeGenerator generator(gcfg);
  day->grid = std::make_unique<mrvd::Grid>(generator.grid());
  day->workload = generator.GenerateDay(DayIndex(seed), spec.drivers);
  if (spec.rush) {
    day->workload = mrvd::SkewWorkloadRows(
        day->workload, *day->grid, kRushStart, kRushEnd, kRushShare,
        kRushRowLo, kRushRowHi, (kCitySeed ^ 0x5EEDULL) + seed);
    mrvd::ScenarioDayConfig scfg;
    scfg.two_shift_fleet = true;
    scfg.cancel_probability = kCancelProbability;
    scfg.surges.push_back(mrvd::RowBandSurge(*day->grid, kRushRowLo,
                                             kRushRowHi, kRushStart, kRushEnd,
                                             kRushSurge));
    scfg.seed = kCitySeed + seed;
    day->script = mrvd::BuildScenarioDay(day->workload, scfg);
  }
  day->times.generate_s = watch.ElapsedSeconds();

  // The oracle forecast reads the realized (reshaped) day, before any
  // trace is written: a streamed run cannot derive it at Build() time.
  watch.Restart();
  mrvd::DemandHistory realized(1, kOracleSlots, day->grid->num_regions());
  MRVD_RETURN_NOT_OK(realized.AccumulateDay(0, day->workload, *day->grid));
  std::unique_ptr<mrvd::DemandPredictor> oracle = mrvd::MakeOraclePredictor();
  mrvd::StatusOr<mrvd::DemandForecast> forecast =
      mrvd::DemandForecast::Build(*oracle, realized, /*eval_day=*/0);
  if (!forecast.ok()) return forecast.status();
  day->forecast =
      std::make_unique<mrvd::DemandForecast>(std::move(forecast).value());
  day->times.forecast_s = watch.ElapsedSeconds();

  if (spec.rush) {
    day->trace_path = out_dir + "/" + spec.name + ".trace";
    watch.Restart();
    MRVD_RETURN_NOT_OK(mrvd::WriteOrderTrace(day->trace_path, day->workload));
    day->times.trace_write_s = watch.ElapsedSeconds();
    day->times.trace_mb =
        static_cast<double>(std::filesystem::file_size(day->trace_path)) /
        (1024.0 * 1024.0);
  }

  watch.Restart();
  if (spec.rush) {
    day->builder.StreamTrace(day->trace_path, *day->grid)
        .BorrowScenario(*day->script);
  } else {
    day->builder.BorrowWorkload(day->workload, *day->grid);
  }
  day->builder.WithForecast(*day->forecast)
      .BatchInterval(spec.batch_interval)
      .HorizonSeconds(spec.horizon_seconds)
      .Threads(spec.num_threads);
  mrvd::StatusOr<mrvd::Simulation> sim = day->builder.Build();
  if (!sim.ok()) return sim.status();
  day->simulation.emplace(std::move(sim).value());
  day->times.build_s = watch.ElapsedSeconds();
  return day;
}

}  // namespace perfbench
