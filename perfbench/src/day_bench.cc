// day_bench: the paper-scale simulated day, timed end to end and
// attributed layer by layer from outside the library.
//
//   day_bench --workload day-ls --seed 0 --seconds 30 --trace 0
//
// Set-up (generation, oracle forecast, Build, and on rush the trace write)
// is timed once, cold, from the start of the process. Untraced days then
// run back to back until --seconds have passed (at least four), giving the
// end-to-end metrics. With --trace 1 one more day runs with a telemetry
// session attached and a batch sampler, and the per-layer metrics come
// from its spans, from the untraced days' Dispatch wrapper, and from a
// serial replay of the sampled batches. Every pass is checked against the
// generated orders. The last line of stdout is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "day_run.h"
#include "day_workload.h"
#include "layer_probe.h"
#include "outcome_checks.h"
#include "span_totals.h"
#include "telemetry/session.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

// Every 32nd batch is copied for the replay probe: 540 batches of a
// 17,280-batch day, spread evenly over it.
constexpr int kSampleEvery = 32;

// The tick-time metrics take each tick at the expected fastest of this many
// of the run's untraced days (see FastestOfTicks), and a run has at least
// this many days. Every day repeats the same ticks on the same inputs, so
// the spread between days at one tick is the host's, not the program's.
constexpr int kFastestOf = 4;

// The Dispatch wrapper runs inside the engine's "dispatch" span, so on the
// traced day the span total may exceed the wrapper's total only by the
// span's own bookkeeping.
constexpr double kSpanAgreementRel = 0.05;
constexpr double kSpanAgreementAbs = 0.010;  // seconds per day

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds >= 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

std::string Stamp() {
#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "none";
#endif
  return "nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " build=" PERFBENCH_BUILD_TYPE " sanitizer=" + sanitizer +
         " compiler=\"" PERFBENCH_COMPILER "\"";
}

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  return std::string(buf, end);
}

/// Metrics in print order, each with its unit.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  void PrintLines() const {
    for (const Entry& e : entries_) {
      std::cout << "metric " << e.name << " = " << Number(e.value) << " "
                << e.unit << "\n";
    }
  }

  /// The stamp line, then the JSON result line (the last line of stdout).
  void PrintResult(bool correct, int64_t attempted, int64_t failed) const {
    std::cout << "stamp " << Stamp() << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::cout << (i == 0 ? "" : ", ") << "\"" << e.name
                << "\": {\"value\": " << Number(e.value) << ", \"unit\": \""
                << e.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Runs the checks on one pass; returns false on a day-level failure.
bool CheckPass(const char* label, const PassResult& pass, const BuiltDay& day,
               const std::vector<int64_t>& extra_failed, int64_t* failed) {
  const mrvd::Simulation& sim = *day.simulation;
  CheckReport report = CheckDay(pass.record, pass.result, day.workload,
                                sim.travel_model(), sim.config().alpha);
  AddFailedBatches(&report, extra_failed);
  *failed += static_cast<int64_t>(report.failed_batches.size());
  for (const std::string& m : report.messages) {
    std::cerr << "check failed (" << label << "): " << m << "\n";
  }
  return report.day_ok();
}

int Main(int argc, char** argv, int64_t start_ns) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: day_bench --workload <day-ls|day-ls-4t|rush-near-4t>"
                 " --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
  }
  mrvd::StatusOr<WorkloadSpec> spec = FindWorkload(args.workload);
  if (!spec.ok()) {
    std::cerr << spec.status() << "\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << args.out_dir << ": " << ec.message()
              << "\n";
    return 2;
  }

  mrvd::StatusOr<std::unique_ptr<BuiltDay>> built =
      BuildDay(*spec, args.seed, args.out_dir);
  if (!built.ok()) {
    std::cerr << "set-up failed: " << built.status() << "\n";
    return 1;
  }
  BuiltDay& day = **built;
  const double setup_s =
      static_cast<double>(mrvd::Stopwatch::NowNanos() - start_ns) * 1e-9;

  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;

  // Untraced days, back to back, until the measuring time is spent and at
  // least kFastestOf days have run. Tick times are kept per day and folded
  // per tick, so a host episode that stalls some ticks of one day does not
  // move the end-to-end timings.
  std::vector<double> day_seconds;
  std::vector<std::vector<double>> day_ticks;
  std::vector<double> dispatch_p50;
  std::vector<double> dispatch_p99;
  std::vector<double> dispatch_totals;
  PassResult first;
  mrvd::Stopwatch measuring;
  do {
    mrvd::StatusOr<PassResult> pass = RunPass(day, nullptr, nullptr);
    if (!pass.ok()) {
      std::cerr << "run failed: " << pass.status() << "\n";
      return 1;
    }
    attempted += pass->record.batches;
    correct = CheckPass("untraced", *pass, day, {}, &failed) && correct;
    day_seconds.push_back(pass->day_seconds);
    dispatch_p50.push_back(Quantile(pass->dispatch_seconds, 0.50) * 1e3);
    dispatch_p99.push_back(Quantile(pass->dispatch_seconds, 0.99) * 1e3);
    dispatch_totals.push_back(Sum(pass->dispatch_seconds));
    std::cout << "day " << day_seconds.size() << ": " << pass->day_seconds
              << " s, batch p50 " << Quantile(pass->batch_seconds, 0.50) * 1e3
              << " ms, p99 " << Quantile(pass->batch_seconds, 0.99) * 1e3
              << " ms\n";
    day_ticks.push_back(std::move(pass->batch_seconds));
    if (day_seconds.size() == 1) {
      first = std::move(pass).value();
      first.record.assignments.clear();
      first.record.assignments.shrink_to_fit();
    } else if (!(OutcomeOf(pass->result) == OutcomeOf(first.result))) {
      std::cerr << "check failed: a repeated untraced day changed outcome\n";
      correct = false;
    }
  } while (measuring.ElapsedSeconds() < args.seconds ||
           day_seconds.size() < static_cast<size_t>(kFastestOf));
  const std::vector<double> ticks = FastestOfTicks(day_ticks, kFastestOf);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // End-to-end metrics are printed on every run; the result line carries
  // them with --trace 0 and the per-layer metrics with --trace 1.
  Report end_to_end;
  end_to_end.Add("setup_s", setup_s, "s");
  end_to_end.Add("day_s", Sum(ticks), "s");
  end_to_end.Add("batch_p50_ms", Quantile(ticks, 0.50) * 1e3, "ms");
  end_to_end.Add("batch_p99_ms", Quantile(ticks, 0.99) * 1e3, "ms");
  end_to_end.Add("peak_rss_mb", peak_rss_mb, "MB");
  end_to_end.Add("revenue", first.result.total_revenue, "fare");
  end_to_end.Add("served_orders",
                 static_cast<double>(first.result.served_orders), "count");
  end_to_end.PrintLines();
  if (!args.trace) {
    end_to_end.PrintResult(correct, attempted, failed);
    return correct ? 0 : 1;
  }

  // The traced day, then the replay probe outside every span.
  mrvd::telemetry::TelemetrySession session;
  BatchSampler sampler(kSampleEvery);
  mrvd::StatusOr<PassResult> traced = RunPass(day, &session, &sampler);
  session.Finish();
  if (!traced.ok()) {
    std::cerr << "traced run failed: " << traced.status() << "\n";
    return 1;
  }
  const std::string trace_json = args.out_dir + "/" + spec->name + ".json";
  if (mrvd::Status st = session.WriteChromeTrace(trace_json); !st.ok()) {
    std::cerr << "trace write failed: " << st << "\n";
    return 1;
  }
  mrvd::StatusOr<SpanTotals> spans = ReadSpanTotals(trace_json);
  if (!spans.ok()) {
    std::cerr << "trace read failed: " << spans.status() << "\n";
    return 1;
  }
  const mrvd::Simulation& sim = *day.simulation;
  const ProbeTotals probe =
      ReplaySample(sampler.captured(), sim.config(), *day.grid,
                   sim.travel_model(), spec->dispatcher == "LS");

  attempted += traced->record.batches;
  correct = CheckPass("traced", *traced, day, probe.invalid_batches, &failed) &&
            correct;
  if (!(OutcomeOf(traced->result) == OutcomeOf(first.result))) {
    std::cerr << "check failed: the traced day's outcome differs from the "
                 "untraced day's\n";
    correct = false;
  }
  const double wrapper_s = Sum(traced->dispatch_seconds);
  const double span_s = spans->Main("dispatch");
  if (span_s < wrapper_s ||
      span_s - wrapper_s > kSpanAgreementRel * span_s + kSpanAgreementAbs) {
    std::cerr << "check failed: dispatch span total " << span_s
              << " s vs Dispatch wrapper total " << wrapper_s << " s\n";
    correct = false;
  }

  const double n = probe.batches > 0 ? static_cast<double>(probe.batches) : 1.0;
  Report report;
  report.Add("workload.generate_s", day.times.generate_s, "s");
  report.Add("workload.trace_write_s", day.times.trace_write_s, "s");
  report.Add("workload.trace_mb", day.times.trace_mb, "MB");
  report.Add("prediction.forecast_s", day.times.forecast_s, "s");
  report.Add("api.build_s", day.times.build_s, "s");
  report.Add("sim.batch_span_s", spans->Main("batch"), "s");
  report.Add("sim.release_finished_s", spans->Main("release_finished"), "s");
  report.Add("sim.inject_arrivals_s", spans->Main("inject_arrivals"), "s");
  report.Add("sim.scenario_events_s", spans->Main("scenario_events"), "s");
  report.Add("sim.remove_expired_s", spans->Main("remove_expired"), "s");
  report.Add("sim.batch_build_s", spans->Main("batch_build"), "s");
  report.Add("sim.dispatch_span_s", span_s, "s");
  report.Add("sim.assignment_apply_s", spans->Main("assignment_apply"), "s");
  report.Add("sim.batch_self_s", spans->BatchSelfSeconds(), "s");
  report.Add("sim.riders_per_batch", first.riders_per_batch, "count");
  report.Add("sim.drivers_per_batch", first.drivers_per_batch, "count");
  report.Add("scenario.events", static_cast<double>(first.scenario_events),
             "count");
  report.Add("dispatch.total_s", Median(dispatch_totals), "s");
  report.Add("dispatch.p50_ms", Median(dispatch_p50), "ms");
  report.Add("dispatch.p99_ms", Median(dispatch_p99), "ms");
  report.Add("dispatch.span_over_untraced",
             span_s / std::max(Median(dispatch_totals), 1e-12), "ratio");
  report.Add("probe.batches", static_cast<double>(probe.batches), "count");
  report.Add("dispatch.candidates_us", probe.candidates_s * 1e6 / n,
             "us/batch");
  report.Add("dispatch.pairs", static_cast<double>(probe.pairs) / n,
             "count/batch");
  report.Add("geo.travel_calls", static_cast<double>(probe.travel_calls) / n,
             "count/batch");
  report.Add("dispatch.pair_yield",
             probe.travel_calls > 0 ? static_cast<double>(probe.pairs) /
                                          static_cast<double>(probe.travel_calls)
                                    : 0.0,
             "ratio");
  report.Add("dispatch.greedy_us", probe.greedy_s * 1e6 / n, "us/batch");
  report.Add("dispatch.ls_propose_s", spans->Main("ls_propose"), "s");
  report.Add("dispatch.ls_commit_s", spans->Main("ls_commit"), "s");
  report.Add("dispatch.ls_sweeps", static_cast<double>(first.ls_sweeps),
             "count");
  report.Add("dispatch.ls_proposals", static_cast<double>(first.ls_proposals),
             "count");
  report.Add("dispatch.ls_recomputed",
             static_cast<double>(first.ls_recomputed), "count");
  report.Add("pipeline.shard_prepare_s", spans->All("shard_prepare"), "s");
  report.Add("pipeline.worker_busy_s", spans->worker_busy_seconds, "s");
  report.Add("pipeline.shard_time_imbalance",
             first.result.shard_time_imbalance.mean(), "ratio");
  report.Add("queueing.et_queries", static_cast<double>(probe.et_queries) / n,
             "count/batch");
  report.Add("queueing.et_solves", static_cast<double>(probe.et_solves) / n,
             "count/batch");
  report.Add("queueing.et_solve_us", probe.et_solve_s * 1e6 / n, "us/batch");
  report.Add("telemetry.traced_day_s", traced->day_seconds, "s");
  report.Add("telemetry.spans", static_cast<double>(spans->spans), "count");
  report.Add("telemetry.overhead", traced->day_seconds / Median(day_seconds),
             "ratio");
  report.PrintLines();
  report.PrintResult(correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const int64_t start_ns = mrvd::Stopwatch::NowNanos();
  return perfbench::Main(argc, argv, start_ns);
}
