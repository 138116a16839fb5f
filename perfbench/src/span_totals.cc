#include "span_totals.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

/// The engine's stage spans, the direct children of "batch", in order.
constexpr const char* kStageSpans[] = {
    "release_finished", "inject_arrivals", "scenario_events", "remove_expired",
    "batch_build",      "dispatch",        "assignment_apply"};

/// One trace-event object, reduced to the fields the totals need.
struct RawEvent {
  std::string name;
  std::string ph;
  std::string thread_name;  ///< args.name of a thread_name metadata event
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
};

/// A forward-only scanner over the writer's JSON: the trace holds hundreds
/// of thousands of events, so it is read event by event, never as a tree.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : s_(text) {}

  bool ok() const { return ok_; }

  void SkipSpace() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c) {
    if (!Consume(c)) ok_ = false;
  }

  std::string String() {
    SkipSpace();
    std::string out;
    if (pos_ >= s_.size() || s_[pos_] != '"') {
      ok_ = false;
      return out;
    }
    for (++pos_; pos_ < s_.size() && s_[pos_] != '"'; ++pos_) {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) ++pos_;
      out.push_back(s_[pos_]);
    }
    if (pos_ >= s_.size()) ok_ = false;
    ++pos_;
    return out;
  }

  double Number() {
    SkipSpace();
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) ok_ = false;
    pos_ += static_cast<size_t>(end - begin);
    return v;
  }

  /// Skips any value (used for fields the totals ignore).
  void SkipValue() {
    SkipSpace();
    if (pos_ >= s_.size()) {
      ok_ = false;
      return;
    }
    const char c = s_[pos_];
    if (c == '"') {
      String();
    } else if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      if (Consume(close)) return;
      do {
        if (close == '}') {
          String();
          Expect(':');
        }
        SkipValue();
      } while (ok_ && Consume(','));
      Expect(close);
    } else if (std::isalpha(static_cast<unsigned char>(c))) {
      while (pos_ < s_.size() && std::isalpha(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    } else {
      Number();
    }
  }

  RawEvent Event() {
    RawEvent e;
    Expect('{');
    if (Consume('}')) return e;
    do {
      const std::string key = String();
      Expect(':');
      if (key == "name") {
        e.name = String();
      } else if (key == "ph") {
        e.ph = String();
      } else if (key == "ts") {
        e.ts_us = Number();
      } else if (key == "dur") {
        e.dur_us = Number();
      } else if (key == "tid") {
        e.tid = static_cast<int>(Number());
      } else if (key == "args") {
        Expect('{');
        if (Consume('}')) continue;
        do {
          const std::string arg = String();
          Expect(':');
          if (arg == "name") {
            e.thread_name = String();
          } else {
            SkipValue();
          }
        } while (ok_ && Consume(','));
        Expect('}');
      } else {
        SkipValue();
      }
    } while (ok_ && Consume(','));
    Expect('}');
    return e;
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

double SpanTotals::Main(const std::string& name) const {
  auto it = main_seconds.find(name);
  return it == main_seconds.end() ? 0.0 : it->second;
}

double SpanTotals::All(const std::string& name) const {
  auto it = all_seconds.find(name);
  return it == all_seconds.end() ? 0.0 : it->second;
}

double SpanTotals::BatchSelfSeconds() const {
  double self = Main("batch");
  for (const char* stage : kStageSpans) self -= Main(stage);
  return self;
}

mrvd::StatusOr<SpanTotals> ReadSpanTotals(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return mrvd::Status::IoError("cannot read trace '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();

  Scanner scan(text);
  std::vector<RawEvent> spans;
  std::vector<std::pair<int, std::string>> thread_names;
  scan.Expect('{');
  const std::string key = scan.String();
  scan.Expect(':');
  scan.Expect('[');
  if (key != "traceEvents") return mrvd::Status::InvalidArgument(path + ": no traceEvents");
  if (!scan.Consume(']')) {
    do {
      RawEvent e = scan.Event();
      if (e.ph == "M" && e.name == "thread_name") {
        thread_names.emplace_back(e.tid, e.thread_name);
      } else if (e.ph == "X") {
        spans.push_back(std::move(e));
      }
    } while (scan.ok() && scan.Consume(','));
    scan.Expect(']');
  }
  if (!scan.ok()) {
    return mrvd::Status::InvalidArgument(path + ": malformed trace JSON");
  }

  std::vector<int> main_tids;
  for (const auto& [tid, name] : thread_names) {
    if (name == "main") main_tids.push_back(tid);
  }
  const auto is_main = [&](int tid) {
    return std::find(main_tids.begin(), main_tids.end(), tid) !=
           main_tids.end();
  };

  SpanTotals totals;
  totals.spans = static_cast<int64_t>(spans.size());
  // The writer sorts by (tid, start, -duration): on each thread a span that
  // starts before the current outermost one ends is nested inside it.
  int tid = -1;
  double outer_end_us = 0.0;
  for (const RawEvent& e : spans) {
    const double seconds = e.dur_us * 1e-6;
    totals.all_seconds[e.name] += seconds;
    if (is_main(e.tid)) {
      totals.main_seconds[e.name] += seconds;
      continue;
    }
    if (e.tid != tid || e.ts_us >= outer_end_us) {
      tid = e.tid;
      outer_end_us = e.ts_us + e.dur_us;
      totals.worker_busy_seconds += seconds;
    }
  }
  return totals;
}

}  // namespace perfbench
