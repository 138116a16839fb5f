// Checks on a simulated day's outcome that do not reuse the engine's own
// arithmetic: every assignment is replayed against the benchmark's own
// copy of the orders and fleet (driver positions and busy times are
// tracked here, from the recorded assignments alone), and the day's totals
// are recomputed from the orders.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/travel.h"
#include "sim/metrics.h"
#include "workload/types.h"

namespace perfbench {

/// One applied assignment as the engine reported it.
struct RecordedAssignment {
  int64_t batch = 0;  ///< 0-based batch number within the day
  double now = 0.0;   ///< batch time
  mrvd::OrderId order_id = -1;
  mrvd::DriverId driver_id = -1;
  double pickup_seconds = 0.0;  ///< as reported by the engine
  double busy_until = 0.0;      ///< as reported by the engine
};

/// What one pass over the day recorded through observer hooks and the
/// Dispatch wrapper, independently of SimResult.
struct DayRecord {
  int64_t batches = 0;
  std::vector<RecordedAssignment> assignments;
  int64_t reneged = 0;           ///< OnRiderReneged calls
  int64_t never_dispatched = 0;  ///< OnRunEnd's remainder
  int64_t cancelled = 0;         ///< OnRiderCancelled calls
  int64_t wrapper_assignments = 0;  ///< pairs returned by Dispatch calls
};

/// Outcome of CheckDay. Per-assignment faults mark their batch failed;
/// the day-level checks make the whole run incorrect.
struct CheckReport {
  // Per-assignment faults.
  int64_t unknown_ids = 0;        ///< order or driver not in the input
  int64_t before_request = 0;     ///< assigned before the order was posted
  int64_t late_pickups = 0;       ///< now + pickup travel > deadline (Def. 3)
  int64_t double_served = 0;      ///< order assigned a second time
  int64_t double_booked = 0;      ///< driver assigned before busy_until
  int64_t misreported = 0;        ///< engine's pickup/busy_until disagree
  std::vector<int64_t> failed_batches;  ///< sorted, unique

  // Day-level checks.
  bool conservation_ok = true;  ///< served + reneged + cancelled = orders
  bool revenue_ok = true;       ///< SimResult revenue = recomputed revenue
  bool served_ok = true;        ///< SimResult served = distinct = wrapper
  int64_t served = 0;           ///< distinct orders served

  std::vector<std::string> messages;  ///< first few failures, readable

  bool day_ok() const { return conservation_ok && revenue_ok && served_ok; }
};

/// Relative tolerance of the recomputed revenue (summation order differs
/// from the engine's).
inline constexpr double kRevenueRelTolerance = 1e-9;

/// Checks `record` and `result` against the input day. `travel` is the
/// city's travel-cost model (the problem definition, not engine state) and
/// `alpha` the fare rate.
CheckReport CheckDay(const DayRecord& record, const mrvd::SimResult& result,
                     const mrvd::Workload& input,
                     const mrvd::TravelCostModel& travel, double alpha);

/// Merges batch indices into `report.failed_batches` (kept sorted, unique).
void AddFailedBatches(CheckReport* report, const std::vector<int64_t>& batches);

}  // namespace perfbench
