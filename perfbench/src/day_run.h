// One pass over a built day: the dispatcher behind a timing wrapper, an
// observer that records what the outcome checks and the latency metrics
// need, and optionally a telemetry session and a batch sampler.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "day_workload.h"
#include "layer_probe.h"
#include "outcome_checks.h"
#include "sim/metrics.h"
#include "telemetry/session.h"
#include "util/status.h"

namespace perfbench {

/// Everything one pass measured and recorded.
struct PassResult {
  mrvd::SimResult result;
  DayRecord record;
  double day_seconds = 0.0;  ///< wall time of the Simulation run
  /// Wall time of each engine tick: the gap between consecutive OnBatchEnd
  /// calls (the first from the start of the run).
  std::vector<double> batch_seconds;
  /// Wall time of each Dispatcher::Dispatch call, from the wrapper.
  std::vector<double> dispatch_seconds;
  // Dispatcher::counters() summed over the day.
  int64_t ls_sweeps = 0;
  int64_t ls_proposals = 0;
  int64_t ls_recomputed = 0;
  /// Sign-ons, sign-offs, cancellations and surge transitions.
  int64_t scenario_events = 0;
  double riders_per_batch = 0.0;   ///< mean context size
  double drivers_per_batch = 0.0;
};

/// Runs the day once. `session` (may be null) attaches telemetry through
/// SimulationBuilder::WithTelemetry; `sampler` (may be null) sees every
/// engine event after the benchmark's own recorder.
mrvd::StatusOr<PassResult> RunPass(BuiltDay& day,
                                   mrvd::telemetry::TelemetrySession* session,
                                   BatchSampler* sampler);

/// The outcome a correct run must repeat: telemetry on or off, any pass.
struct Outcome {
  double revenue = 0.0;
  int64_t served = 0;
  int64_t reneged = 0;
  int64_t cancelled = 0;

  bool operator==(const Outcome&) const = default;
};

Outcome OutcomeOf(const mrvd::SimResult& result);

/// The `q` quantile (0..1) of `values` by nearest rank; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Per tick, the expected fastest of `m` days drawn without replacement
/// from `days` (one vector of tick times per day; ticks past the shortest
/// day are dropped): with the tick's n >= m times sorted ascending, the
/// i-th (1-based) weighs C(n - i, m - 1) / C(n, m). Its mean does not
/// depend on n, so a faster program that fits more days into a run is not
/// flattered by a deeper minimum. Empty when fewer than `m` days are given.
std::vector<double> FastestOfTicks(const std::vector<std::vector<double>>& days,
                                   int m);

}  // namespace perfbench
