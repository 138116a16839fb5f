#include "outcome_checks.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr size_t kMaxMessages = 8;
// Slack on reported times: the engine sums the same terms, possibly in
// another order.
constexpr double kTimeTolerance = 1e-6;

void Note(CheckReport* report, const RecordedAssignment& a,
          const std::string& what) {
  if (report->messages.size() >= kMaxMessages) return;
  std::ostringstream os;
  os << "batch " << a.batch << " (t=" << a.now << "): order " << a.order_id
     << ", driver " << a.driver_id << ": " << what;
  report->messages.push_back(os.str());
}

}  // namespace

void AddFailedBatches(CheckReport* report,
                      const std::vector<int64_t>& batches) {
  std::vector<int64_t>& out = report->failed_batches;
  out.insert(out.end(), batches.begin(), batches.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

CheckReport CheckDay(const DayRecord& record, const mrvd::SimResult& result,
                     const mrvd::Workload& input,
                     const mrvd::TravelCostModel& travel, double alpha) {
  CheckReport report;

  std::unordered_map<mrvd::OrderId, size_t> order_index;
  order_index.reserve(input.orders.size());
  for (size_t i = 0; i < input.orders.size(); ++i) {
    order_index.emplace(input.orders[i].id, i);
  }
  std::unordered_map<mrvd::DriverId, size_t> driver_index;
  for (size_t j = 0; j < input.drivers.size(); ++j) {
    driver_index.emplace(input.drivers[j].id, j);
  }

  std::vector<char> served(input.orders.size(), 0);
  std::vector<mrvd::LatLon> position(input.drivers.size());
  std::vector<double> free_at(input.drivers.size());
  for (size_t j = 0; j < input.drivers.size(); ++j) {
    position[j] = input.drivers[j].origin;
    free_at[j] = input.drivers[j].join_time;
  }

  std::vector<int64_t> failed;
  double revenue = 0.0;
  for (const RecordedAssignment& a : record.assignments) {
    const auto oi = order_index.find(a.order_id);
    const auto di = driver_index.find(a.driver_id);
    if (oi == order_index.end() || di == driver_index.end()) {
      ++report.unknown_ids;
      Note(&report, a, "order or driver not in the input");
      failed.push_back(a.batch);
      continue;
    }
    const mrvd::Order& o = input.orders[oi->second];
    const size_t j = di->second;
    bool ok = true;
    if (a.now < o.request_time) {
      ++report.before_request;
      Note(&report, a, "assigned before the order was posted");
      ok = false;
    }
    if (served[oi->second]) {
      ++report.double_served;
      Note(&report, a, "order served twice");
      ok = false;
    }
    if (a.now < free_at[j]) {
      ++report.double_booked;
      Note(&report, a, "driver still busy until " + std::to_string(free_at[j]));
      ok = false;
    }
    const double pickup = travel.TravelSeconds(position[j], o.pickup);
    if (a.now + pickup > o.pickup_deadline) {
      ++report.late_pickups;
      Note(&report, a, "pickup at " + std::to_string(a.now + pickup) +
                           " misses deadline " +
                           std::to_string(o.pickup_deadline));
      ok = false;
    }
    const double trip = travel.TravelSeconds(o.pickup, o.dropoff);
    const double busy_until = a.now + pickup + trip;
    if (std::abs(a.pickup_seconds - pickup) > kTimeTolerance ||
        std::abs(a.busy_until - busy_until) > kTimeTolerance) {
      ++report.misreported;
      Note(&report, a, "reported pickup/busy_until disagree with the orders");
      ok = false;
    }
    if (!ok) failed.push_back(a.batch);
    if (!served[oi->second]) {
      served[oi->second] = 1;
      ++report.served;
      revenue += alpha * trip;
    }
    position[j] = o.dropoff;
    free_at[j] = busy_until;
  }
  AddFailedBatches(&report, failed);

  const int64_t total = static_cast<int64_t>(input.orders.size());
  const int64_t accounted = report.served + record.reneged +
                            record.never_dispatched + record.cancelled;
  if (accounted != total) {
    report.conservation_ok = false;
    report.messages.push_back(
        "conservation: served " + std::to_string(report.served) +
        " + reneged " + std::to_string(record.reneged + record.never_dispatched) +
        " + cancelled " + std::to_string(record.cancelled) + " != orders " +
        std::to_string(total));
  }
  if (std::abs(result.total_revenue - revenue) >
      kRevenueRelTolerance * std::max(1.0, std::abs(revenue))) {
    report.revenue_ok = false;
    std::ostringstream os;
    os.precision(17);
    os << "revenue: reported " << result.total_revenue << ", recomputed "
       << revenue;
    report.messages.push_back(os.str());
  }
  if (result.served_orders != report.served ||
      record.wrapper_assignments != report.served) {
    report.served_ok = false;
    report.messages.push_back(
        "served: reported " + std::to_string(result.served_orders) +
        ", distinct assigned " + std::to_string(report.served) +
        ", returned by Dispatch " +
        std::to_string(record.wrapper_assignments));
  }
  return report;
}

}  // namespace perfbench
