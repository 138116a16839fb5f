#include "layer_probe.h"

#include <unordered_map>
#include <unordered_set>

#include "dispatch/candidates.h"
#include "dispatch/irg_core.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace {

/// Forwards to the simulation's model and counts the calls.
class CountingTravelModel final : public mrvd::TravelCostModel {
 public:
  explicit CountingTravelModel(const mrvd::TravelCostModel& base)
      : base_(base) {}

  double TravelSeconds(const mrvd::LatLon& from,
                       const mrvd::LatLon& to) const override {
    ++calls_;
    return base_.TravelSeconds(from, to);
  }
  double TravelMeters(const mrvd::LatLon& from,
                      const mrvd::LatLon& to) const override {
    ++calls_;
    return base_.TravelMeters(from, to);
  }
  double SpeedMps() const override { return base_.SpeedMps(); }

  int64_t calls() const { return calls_; }
  void Reset() { calls_ = 0; }

 private:
  const mrvd::TravelCostModel& base_;
  mutable int64_t calls_ = 0;
};

}  // namespace

void BatchSampler::OnBatchBuilt(double now, double /*build_seconds*/,
                                const mrvd::BatchContext& ctx) {
  capturing_ = batch_ % every_ == 0;
  if (!capturing_) return;
  CapturedBatch c;
  c.batch = batch_;
  c.now = now;
  c.riders = ctx.riders();
  c.drivers = ctx.drivers();
  c.snapshots = ctx.snapshots();
  captured_.push_back(std::move(c));
}

void BatchSampler::OnDispatchDone(
    double /*now*/, double /*dispatch_seconds*/,
    const std::vector<mrvd::Assignment>& assignments) {
  if (capturing_) captured_.back().assignments = assignments;
}

void BatchSampler::OnBatchEnd(double /*now*/) {
  ++batch_;
  capturing_ = false;
}

ProbeTotals ReplaySample(const std::vector<CapturedBatch>& sample,
                         const mrvd::SimConfig& config, const mrvd::Grid& grid,
                         const mrvd::TravelCostModel& travel,
                         bool replay_greedy) {
  ProbeTotals totals;
  CountingTravelModel counting(travel);
  for (const CapturedBatch& c : sample) {
    mrvd::BatchContext ctx(c.now, config.window_seconds, config.reneging_beta,
                           grid, counting, config.candidate_mode);
    ctx.SetRiders(c.riders);
    ctx.SetDrivers(c.drivers);
    ctx.SetSnapshots(c.snapshots);
    ++totals.batches;

    counting.Reset();
    mrvd::Stopwatch watch;
    const std::vector<mrvd::CandidatePair> pairs =
        mrvd::GenerateValidPairs(ctx);
    totals.candidates_s += watch.ElapsedSeconds();
    totals.travel_calls += counting.calls();
    totals.pairs += static_cast<int64_t>(pairs.size());

    std::unordered_set<int64_t> valid;
    valid.reserve(pairs.size());
    const auto key = [&](int rider, int driver) {
      return static_cast<int64_t>(rider) *
                 static_cast<int64_t>(c.drivers.size()) +
             driver;
    };
    for (const mrvd::CandidatePair& p : pairs) {
      valid.insert(key(p.rider_index, p.driver_index));
    }
    bool all_valid = true;
    for (const mrvd::Assignment& a : c.assignments) {
      ++totals.assignments_checked;
      all_valid = all_valid && valid.count(key(a.rider_index, a.driver_index));
    }
    if (!all_valid) totals.invalid_batches.push_back(c.batch);

    if (!replay_greedy) continue;
    // The memo mirrors BatchContext's own ET cache, so queries and solves
    // count what the dispatcher's greedy asks and what it would solve.
    std::unordered_map<int64_t, double> memo;
    double et_s = 0.0;
    const mrvd::IdleTimeFn idle = [&](mrvd::RegionId k, int extra) {
      ++totals.et_queries;
      const int64_t memo_key = mrvd::BatchContext::IdleCacheKey(k, extra);
      if (auto it = memo.find(memo_key); it != memo.end()) return it->second;
      ++totals.et_solves;
      mrvd::Stopwatch solve;
      const double et = ctx.ComputeIdleSeconds(k, extra);
      et_s += solve.ElapsedSeconds();
      memo.emplace(memo_key, et);
      return et;
    };
    watch.Restart();
    mrvd::RunGreedySelectionWithIdle(ctx, pairs,
                                     mrvd::GreedyObjective::kIdleRatio, idle);
    totals.greedy_s += watch.ElapsedSeconds() - et_s;
    totals.et_solve_s += et_s;
  }
  return totals;
}

}  // namespace perfbench
