// Shared plumbing of the benchmark binary: the metric catalogue, timing
// and percentile helpers, the in-memory span tracer and the result record
// each workload fills in.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "search/search.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t0) {
  return MsBetween(t0, Clock::now());
}

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// `num / den`, or 0 when nothing was counted.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Process peak resident set size in MB (getrusage ru_maxrss).
double PeakRssMb();

/// One metric of the catalogue: its name and unit, as BENCHMARK.json
/// lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics every untraced run prints, whatever the workload. Each
/// workload defines them over its own unit of work (README.md, "Metric
/// map").
const std::vector<MetricSpec>& EndToEndMetrics();
/// Metrics every traced run prints. A layer the workload does not reach
/// reads 0 there: that is the "flat on" prediction, measured.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Command-line arguments shared by all workloads.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Generator seed of the generated task pools; 0 keeps each workload's
  /// fixed pool. Set it only for a held-out check (README.md, "Seeds").
  uint64_t pool_seed = 0;
  /// Scratch directory for inputs, outputs and the trace file.
  std::string workdir = ".bench_work";
  /// Tiny inputs and one short pass: the self-test mode.
  bool tiny = false;
};

/// What a workload run reports. `values` maps metric names of the
/// catalogue (end-to-end or per-layer, depending on Args::trace) to
/// measured values; names missing from it are an error main() reports
/// before printing a result.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Human-readable reasons for `correct == false`.
  std::vector<std::string> errors;
  /// Extra run facts printed on the meta line (rep counts, sizes, ...).
  std::map<std::string, std::string> meta;

  void Fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

/// In-memory span recorder. A span has a name, start/end, the index of
/// the span that caused it (-1 for a root) and the id of the task or
/// request it belongs to. Spans are kept in memory and written out once
/// when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    int64_t id = -1;
  };

  int Begin(const std::string& name, int parent, int64_t id);
  void End(int span);
  /// Records an already-measured interval.
  int Add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, int64_t id);
  void Count(const std::string& name, double amount) { counts_[name] += amount; }

  /// Duration of one span, in ms.
  double SpanMs(int span) const;
  /// Sum of the durations of every span called `name`, in ms.
  double BusyMs(const std::string& name) const;
  /// Writes spans and counts as JSON to `path`.
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

/// Adds the work counters of one search to `sum`.
void AddSearchStats(const foofah::SearchStats& stats, foofah::SearchStats* sum);
/// Sets the `search.*` counts and ratios and `heuristic.cache_hit_ratio`
/// from summed search counters.
void FillSearchMetrics(const foofah::SearchStats& sum, Report* report);

/// Sets every per-layer metric to 0; a traced run then fills in the
/// layers it reaches.
void ZeroPerLayerMetrics(Report* report);

/// Reconciles a layer's replayed busy time `layers_ms` with `span_ms`,
/// the spans of the calls they replay; `self_ms` is the span not covered
/// by the replayed layers. Fails the run when the self time is below
/// `-tolerance` of the span (the replay claims more time than the calls
/// took), or when the span differs from `wall_ms`, a separate clock
/// around the same calls, by more than `tolerance` of it (1 ms floor).
/// Records the outcome on `report`.
void Reconcile(const std::string& what, double layers_ms, double self_ms,
               double span_ms, double wall_ms, double tolerance, Report* report);

Report RunSynth(const Args& args);
Report RunApply(const Args& args, bool spill_group);
Report RunServe(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
