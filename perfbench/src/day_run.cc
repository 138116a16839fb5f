#include "day_run.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "api/dispatcher_registry.h"
#include "util/stopwatch.h"

namespace perfbench {

namespace {

/// Times each Dispatch call and counts the pairs it returns; otherwise a
/// transparent forwarder.
class TimedDispatcher final : public mrvd::Dispatcher {
 public:
  TimedDispatcher(std::unique_ptr<mrvd::Dispatcher> inner, PassResult* out)
      : inner_(std::move(inner)), out_(out) {}

  std::string name() const override { return inner_->name(); }

  void Dispatch(const mrvd::BatchContext& ctx,
                std::vector<mrvd::Assignment>* out) override {
    const int64_t start = mrvd::Stopwatch::NowNanos();
    inner_->Dispatch(ctx, out);
    out_->dispatch_seconds.push_back(
        static_cast<double>(mrvd::Stopwatch::NowNanos() - start) * 1e-9);
    out_->record.wrapper_assignments += static_cast<int64_t>(out->size());
    if (const mrvd::DispatchCounters* c = inner_->counters()) {
      out_->ls_sweeps += c->sweeps;
      out_->ls_proposals += c->proposals;
      out_->ls_recomputed += c->proposals_recomputed;
    }
  }

  const mrvd::DispatchCounters* counters() const override {
    return inner_->counters();
  }

 private:
  std::unique_ptr<mrvd::Dispatcher> inner_;
  PassResult* out_;
};

/// Records assignments, reneges, cancellations, scenario events, context
/// sizes and tick times.
class Recorder final : public mrvd::SimObserver {
 public:
  Recorder(PassResult* out, int64_t start_ns)
      : out_(out), last_end_ns_(start_ns) {}

  void OnBatchBuilt(double /*now*/, double /*build_seconds*/,
                    const mrvd::BatchContext& ctx) override {
    riders_ += static_cast<double>(ctx.riders().size());
    drivers_ += static_cast<double>(ctx.drivers().size());
    ++built_;
  }
  void OnAssignmentApplied(double now,
                           const mrvd::AssignmentEvent& e) override {
    out_->record.assignments.push_back({out_->record.batches, now, e.order_id,
                                        e.driver_id, e.pickup_seconds,
                                        e.busy_until});
  }
  void OnRiderReneged(double /*now*/, const mrvd::Order& /*order*/) override {
    ++out_->record.reneged;
  }
  void OnRiderCancelled(double /*now*/, const mrvd::Order& /*order*/) override {
    ++out_->record.cancelled;
    ++out_->scenario_events;
  }
  void OnDriverShiftChange(double /*now*/, mrvd::DriverId /*id*/,
                           bool /*signed_on*/) override {
    ++out_->scenario_events;
  }
  void OnSurgeChange(double /*now*/, const mrvd::SurgeWindow& /*window*/,
                     bool /*active*/) override {
    ++out_->scenario_events;
  }
  void OnBatchEnd(double /*now*/) override {
    const int64_t end_ns = mrvd::Stopwatch::NowNanos();
    out_->batch_seconds.push_back(static_cast<double>(end_ns - last_end_ns_) *
                                  1e-9);
    last_end_ns_ = end_ns;
    ++out_->record.batches;
  }
  void OnRunEnd(double /*end_time*/, int64_t never_dispatched) override {
    out_->record.never_dispatched = never_dispatched;
    if (built_ > 0) {
      out_->riders_per_batch = riders_ / static_cast<double>(built_);
      out_->drivers_per_batch = drivers_ / static_cast<double>(built_);
    }
  }

 private:
  PassResult* out_;
  int64_t last_end_ns_;
  double riders_ = 0.0;
  double drivers_ = 0.0;
  int64_t built_ = 0;
};

}  // namespace

mrvd::StatusOr<PassResult> RunPass(BuiltDay& day,
                                   mrvd::telemetry::TelemetrySession* session,
                                   BatchSampler* sampler) {
  mrvd::StatusOr<std::unique_ptr<mrvd::Dispatcher>> inner =
      mrvd::DispatcherRegistry::Global().Create(day.spec.dispatcher);
  if (!inner.ok()) return inner.status();

  // The traced pass builds its own Simulation through WithTelemetry; the
  // builder borrows every input, so this costs no regeneration.
  std::optional<mrvd::Simulation> traced;
  if (session != nullptr) {
    mrvd::StatusOr<mrvd::Simulation> built =
        day.builder.WithTelemetry(session).Build();
    day.builder.WithTelemetry(nullptr);
    if (!built.ok()) return built.status();
    traced.emplace(std::move(built).value());
  }
  const mrvd::Simulation& sim = traced ? *traced : *day.simulation;

  PassResult pass;
  const auto batches = static_cast<size_t>(
      std::ceil(day.spec.horizon_seconds / day.spec.batch_interval));
  pass.batch_seconds.reserve(batches);
  pass.dispatch_seconds.reserve(batches);
  pass.record.assignments.reserve(
      static_cast<size_t>(day.workload.orders.size()));
  TimedDispatcher dispatcher(std::move(inner).value(), &pass);

  const int64_t start_ns = mrvd::Stopwatch::NowNanos();
  Recorder recorder(&pass, start_ns);
  mrvd::ObserverList observers;
  observers.Add(&recorder);
  observers.Add(sampler);
  mrvd::StatusOr<mrvd::SimResult> result =
      sim.RunWith(sim.config(), dispatcher, sim.scenario(), &observers);
  pass.day_seconds =
      static_cast<double>(mrvd::Stopwatch::NowNanos() - start_ns) * 1e-9;
  if (!result.ok()) return result.status();
  pass.result = std::move(result).value();
  return pass;
}

Outcome OutcomeOf(const mrvd::SimResult& result) {
  return {result.total_revenue, result.served_orders, result.reneged_orders,
          result.cancelled_orders};
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return values[index];
}

std::vector<double> FastestOfTicks(const std::vector<std::vector<double>>& days,
                                   int m) {
  const size_t n = days.size();
  if (m < 1 || n < static_cast<size_t>(m)) return {};
  // weight[i] = C(n - 1 - i, m - 1) / C(n, m) for the i-th fastest (0-based).
  auto choose = [](size_t a, size_t b) {
    if (a < b) return 0.0;
    double c = 1.0;
    for (size_t k = 1; k <= b; ++k) {
      c *= static_cast<double>(a - b + k) / static_cast<double>(k);
    }
    return c;
  };
  const auto mm = static_cast<size_t>(m);
  std::vector<double> weight(n);
  for (size_t i = 0; i < n; ++i) {
    weight[i] = choose(n - 1 - i, mm - 1) / choose(n, mm);
  }
  size_t ticks = days.front().size();
  for (const std::vector<double>& day : days) {
    ticks = std::min(ticks, day.size());
  }
  std::vector<double> fastest(ticks);
  std::vector<double> times(n);
  for (size_t t = 0; t < fastest.size(); ++t) {
    for (size_t d = 0; d < n; ++d) times[d] = days[d][t];
    std::sort(times.begin(), times.end());
    double v = 0.0;
    for (size_t i = 0; i + mm <= n; ++i) v += weight[i] * times[i];
    fastest[t] = v;
  }
  return fastest;
}

}  // namespace perfbench
