#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Also inf == inf, and no inf * 0 when `hi` holds an inf.
  if (frac == 0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"p50_ms", "ms"},       {"tail_ms", "ms"},     {"work_per_s", "1/s"},
      {"ok_ratio", "ratio"},  {"setup_s", "s"},      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"search.fixed_cost_us", "us"},
      {"search.expansions", "count"},
      {"search.candidates", "count"},
      {"search.generated", "count"},
      {"search.useful_ratio", "ratio"},
      {"search.prune_ratio", "ratio"},
      {"search.duplicate_ratio", "ratio"},
      {"search.prune_ms", "ms"},
      {"search.self_ms", "ms"},
      {"ops.enumerate_ms", "ms"},
      {"ops.apply_ms", "ms"},
      {"ops.apply_fail_ratio", "ratio"},
      {"table.hash_ms", "ms"},
      {"heuristic.estimate_ms", "ms"},
      {"heuristic.estimates", "count"},
      {"heuristic.cache_hit_ratio", "ratio"},
      {"learn.partition_ms", "ms"},
      {"learn.deferred_ratio", "ratio"},
      {"learn.guided_win_ratio", "ratio"},
      {"learn.fallback_ratio", "ratio"},
      {"learn.snapshot_load_ms", "ms"},
      {"server.queue_p50_ms", "ms"},
      {"server.queue_p99_ms", "ms"},
      {"server.run_p50_ms", "ms"},
      {"server.run_p99_ms", "ms"},
      {"server.rung0_ms", "ms"},
      {"server.rung1_ms", "ms"},
      {"server.rung2_ms", "ms"},
      {"server.degraded_ratio", "ratio"},
      {"server.shed_ratio", "ratio"},
      {"server.anytime_ratio", "ratio"},
      {"server.cache_served_ratio", "ratio"},
      {"bench.gen_lag_p99_ms", "ms"},
      {"bench.trace_overhead_pct", "%"},
      {"table.csv_read_ms", "ms"},
      {"table.csv_write_ms", "ms"},
      {"exec.kernel_ms", "ms"},
      {"exec.spill_write_ms", "ms"},
      {"exec.spill_read_ms", "ms"},
      {"exec.passes", "count"},
      {"exec.spill_bytes", "bytes"},
      {"exec.peak_tracked_mb", "MB"},
      {"exec.self_ms", "ms"},
      {"util.commit_ms", "ms"},
  };
  return kMetrics;
}

int Tracer::Begin(const std::string& name, int parent, int64_t id) {
  Clock::time_point now = Clock::now();
  return Add(name, now, now, parent, id);
}

void Tracer::End(int span) { spans_[static_cast<size_t>(span)].end = Clock::now(); }

int Tracer::Add(const std::string& name, Clock::time_point start,
                Clock::time_point end, int parent, int64_t id) {
  spans_.push_back(Span{name, start, end, parent, id});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::SpanMs(int span) const {
  const Span& s = spans_[static_cast<size_t>(span)];
  return MsBetween(s.start, s.end);
}

double Tracer::BusyMs(const std::string& name) const {
  double total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += MsBetween(span.start, span.end);
  }
  return total;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %d, \"id\": %lld}%s\n",
                 span.name.c_str(), MsBetween(origin_, span.start) * 1e3,
                 MsBetween(origin_, span.end) * 1e3, span.parent,
                 static_cast<long long>(span.id),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(file, "],\n\"counts\": {");
  bool first = true;
  for (const auto& [name, value] : counts_) {
    std::fprintf(file, "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(file, "\n}}\n");
  return std::fclose(file) == 0;
}

void AddSearchStats(const foofah::SearchStats& stats, foofah::SearchStats* sum) {
  sum->nodes_expanded += stats.nodes_expanded;
  sum->nodes_generated += stats.nodes_generated;
  sum->candidates_tried += stats.candidates_tried;
  sum->duplicates_skipped += stats.duplicates_skipped;
  sum->heuristic_cache_hits += stats.heuristic_cache_hits;
  sum->heuristic_cache_misses += stats.heuristic_cache_misses;
  sum->guidance_deferred += stats.guidance_deferred;
  for (int r = 0; r < foofah::kNumPruneReasons; ++r) {
    sum->pruned_by_reason[r] += stats.pruned_by_reason[r];
  }
}

void FillSearchMetrics(const foofah::SearchStats& sum, Report* report) {
  const double candidates = static_cast<double>(sum.candidates_tried);
  auto& v = report->values;
  v["search.expansions"] = static_cast<double>(sum.nodes_expanded);
  v["search.candidates"] = candidates;
  v["search.generated"] = static_cast<double>(sum.nodes_generated);
  v["search.useful_ratio"] = Ratio(static_cast<double>(sum.nodes_generated), candidates);
  v["search.prune_ratio"] = Ratio(static_cast<double>(sum.total_pruned()), candidates);
  v["search.duplicate_ratio"] =
      Ratio(static_cast<double>(sum.duplicates_skipped), candidates);
  v["heuristic.cache_hit_ratio"] =
      Ratio(static_cast<double>(sum.heuristic_cache_hits),
            static_cast<double>(sum.heuristic_cache_hits + sum.heuristic_cache_misses));
}

void ZeroPerLayerMetrics(Report* report) {
  for (const MetricSpec& spec : PerLayerMetrics()) report->values[spec.name] = 0;
}

void Reconcile(const std::string& what, double layers_ms, double self_ms,
               double span_ms, double wall_ms, double tolerance, Report* report) {
  const double gap = std::fabs(span_ms - wall_ms);
  const double allowed = std::max(1.0, tolerance * wall_ms);
  char line[256];
  std::snprintf(line, sizeof(line),
                "layers %.3f, self %.3f, span %.3f, wall %.3f ms (span-wall "
                "gap %.3f, allowed %.3f)",
                layers_ms, self_ms, span_ms, wall_ms, gap, allowed);
  report->meta["reconcile." + what] = line;
  // The replayed layers are serial busy time for work the measured calls
  // did on one thread, so they cannot take longer than those calls: a
  // replay that does more (or other) work than the calls shows here.
  if (self_ms < -tolerance * span_ms) {
    report->Fail("reconciliation failed for " + what +
                 ": replayed layer time exceeds the measured time: " + line);
  }
  if (gap > allowed) report->Fail("reconciliation failed for " + what + ": " + line);
}

}  // namespace perfbench
