// The dispatch sub-stage probe. A sampler observer copies every Nth batch
// context of a day (and the assignments the dispatcher chose for it); after
// the day, outside every trace span, each copy is rebuilt over a counting
// travel model and replayed serially through the public dispatch layers:
// GenerateValidPairs (candidate generation) and RunGreedySelectionWithIdle
// driven by a counting, memoising ET oracle (greedy + queueing model).
// The replayed valid pairs double as an independent check that every
// assignment the dispatcher made was a valid pair.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "sim/observer.h"

namespace perfbench {

/// A copy of one batch context plus the dispatcher's choice for it.
struct CapturedBatch {
  int64_t batch = 0;
  double now = 0.0;
  std::vector<mrvd::WaitingRider> riders;
  std::vector<mrvd::AvailableDriver> drivers;
  std::vector<mrvd::RegionSnapshot> snapshots;
  std::vector<mrvd::Assignment> assignments;
};

/// Captures every `every`-th batch (batch 0, every, 2*every, ...).
class BatchSampler final : public mrvd::SimObserver {
 public:
  explicit BatchSampler(int every) : every_(every) {}

  void OnBatchBuilt(double now, double build_seconds,
                    const mrvd::BatchContext& ctx) override;
  void OnDispatchDone(double now, double dispatch_seconds,
                      const std::vector<mrvd::Assignment>& assignments) override;
  void OnBatchEnd(double now) override;

  const std::vector<CapturedBatch>& captured() const { return captured_; }

 private:
  int every_;
  int64_t batch_ = 0;
  bool capturing_ = false;
  std::vector<CapturedBatch> captured_;
};

/// Totals over the replayed sample.
struct ProbeTotals {
  int64_t batches = 0;
  double candidates_s = 0.0;     ///< GenerateValidPairs wall time
  int64_t pairs = 0;             ///< valid pairs generated
  int64_t travel_calls = 0;      ///< travel-model calls during generation
  double greedy_s = 0.0;         ///< greedy selection, ET solves excluded
  int64_t et_queries = 0;        ///< ET oracle calls made by the greedy
  int64_t et_solves = 0;         ///< oracle misses (queue-model solves)
  double et_solve_s = 0.0;       ///< time in ComputeIdleSeconds
  int64_t assignments_checked = 0;
  std::vector<int64_t> invalid_batches;  ///< an assignment not a valid pair
};

/// Replays `sample` serially. `replay_greedy` runs the IRG greedy stage
/// (the first stage of LS) after candidate generation; dispatchers that
/// never price idle time (NEAR) leave it off.
ProbeTotals ReplaySample(const std::vector<CapturedBatch>& sample,
                         const mrvd::SimConfig& config, const mrvd::Grid& grid,
                         const mrvd::TravelCostModel& travel,
                         bool replay_greedy);

}  // namespace perfbench
