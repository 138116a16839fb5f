// The benchmark's three workloads and their set-up: a paper-scale
// NYC-like day (282,255 orders/day, 3,000 drivers, Δ = 5 s, 16x16 grid,
// 24 h) built through the public experiment API. Only num_threads and the
// dispatcher spec differ from the defaults, so a later change that drops
// an engine knob cannot break the benchmark.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/simulation_builder.h"
#include "geo/grid.h"
#include "prediction/forecast.h"
#include "scenario/script.h"
#include "util/status.h"
#include "workload/types.h"

namespace perfbench {

/// What one workload runs. `rush` selects the reshaped, scripted and
/// streamed variant of the generated day.
struct WorkloadSpec {
  std::string name;
  std::string dispatcher;  ///< DispatcherRegistry spec
  int num_threads = 1;
  bool rush = false;
  int orders_per_day = 282255;
  int drivers = 3000;
  double horizon_seconds = 86400.0;
  double batch_interval = 5.0;
  int grid_rows = 16;
  int grid_cols = 16;
};

/// The paper-scale spec of a named workload.
mrvd::StatusOr<WorkloadSpec> FindWorkload(const std::string& name);

/// The same workload with demand and fleet scaled by `share` (the tests'
/// reduced slice): every code path of the full day, in seconds.
WorkloadSpec Slice(WorkloadSpec spec, double share);

/// Wall time of each set-up step, timed around the public calls.
struct SetupTimes {
  double generate_s = 0.0;     ///< GenerateDay (+ reshaping on rush)
  double trace_write_s = 0.0;  ///< WriteOrderTrace (rush only)
  double trace_mb = 0.0;       ///< size of the written trace (rush only)
  double forecast_s = 0.0;     ///< AccumulateDay + oracle DemandForecast
  double build_s = 0.0;        ///< SimulationBuilder::Build
};

/// A built day: the simulation plus everything the checks need. The
/// builder borrows `workload`, `forecast` and `script`, so the object is
/// pinned in memory (hold it by unique_ptr).
struct BuiltDay {
  BuiltDay() = default;
  BuiltDay(const BuiltDay&) = delete;
  BuiltDay& operator=(const BuiltDay&) = delete;

  WorkloadSpec spec;
  uint64_t seed = 0;
  std::unique_ptr<mrvd::Grid> grid;
  /// The generated (on rush: reshaped) day — the reference the outcome
  /// checks read. On rush the simulation streams the same orders from
  /// `trace_path` instead.
  mrvd::Workload workload;
  std::unique_ptr<mrvd::DemandForecast> forecast;
  std::optional<mrvd::ScenarioScript> script;
  std::string trace_path;  ///< empty unless rush
  mrvd::SimulationBuilder builder;
  std::optional<mrvd::Simulation> simulation;
  SetupTimes times;
};

/// Generates, forecasts and builds the workload. The city is fixed (the
/// library's default master seed, 20190417); `seed` picks the day drawn
/// from it, day 1 + 7 * seed, always the same weekday. Rush writes its
/// order trace into `out_dir`, which must exist.
mrvd::StatusOr<std::unique_ptr<BuiltDay>> BuildDay(const WorkloadSpec& spec,
                                                   uint64_t seed,
                                                   const std::string& out_dir);

}  // namespace perfbench
