// Reads the program's own stage spans back from the Chrome trace a
// TelemetrySession writes, and folds them into per-name totals.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"

namespace perfbench {

struct SpanTotals {
  int64_t spans = 0;
  /// Sum of durations by span name, over the coordinating ("main") thread.
  std::map<std::string, double> main_seconds;
  /// Sum of durations by span name, over every thread.
  std::map<std::string, double> all_seconds;
  /// Busy time of the pool's worker threads: their outermost spans only,
  /// so a nested span is not counted twice.
  double worker_busy_seconds = 0.0;

  double Main(const std::string& name) const;
  double All(const std::string& name) const;

  /// The batch span minus its direct children, the engine's stage spans.
  double BatchSelfSeconds() const;
};

/// Parses the trace-event JSON TelemetrySession::WriteChromeTrace wrote.
mrvd::StatusOr<SpanTotals> ReadSpanTotals(const std::string& path);

}  // namespace perfbench
