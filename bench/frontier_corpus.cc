// Search-parallelism corpus benchmark with machine-readable emission.
//
// Measures every corpus scenario's 2-record example pair under two
// engine configurations —
//   t1  threads=1   the classic serial A* loop (baseline)
//   t8  threads=8   parallel candidate evaluation per expansion
// — and writes the results (per-scenario ns/op, solved flags, heap
// allocations, peak RSS, slowest-quartile aggregates and speedup) to
// BENCH_search.json so the perf trajectory is tracked across PRs. The
// two configurations return bit-identical programs and stats (see
// tests/parallel_search_test.cc); only wall-clock may differ.
//
// Usage:
//   frontier_corpus [--out <path>] [--reps N]   full sweep, writes JSON
//   frontier_corpus --smoke                     one quick measurement of
//                                               the BM_SynthesizeParallel
//                                               workload (contacts example,
//                                               threads=8); prints
//                                               `smoke_ms=<x>` for the
//                                               scripts/check.sh stage-6
//                                               regression gate.
//
// Budgets come from bench_common.h (FOOFAH_BENCH_TIMEOUT_MS /
// FOOFAH_BENCH_EXPANSIONS); timing is best-of-`reps` (FOOFAH_BENCH_REPS,
// default 3) to damp scheduler noise.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "fuzz/generator.h"
#include "learn/guidance.h"
#include "learn/stats.h"
#include "scenarios/corpus.h"
#include "scenarios/generated.h"
#include "search/search.h"

namespace foofah::bench {
namespace {

struct Config {
  const char* name;
  int threads;
};

constexpr Config kConfigs[] = {
    {"t1", 1},
    {"t8", 8},
};
constexpr size_t kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);

struct ScenarioRow {
  std::string name;
  double ms[kNumConfigs] = {0, 0};
  bool solved[kNumConfigs] = {false, false};
};

SearchOptions OptionsFor(const Config& config) {
  SearchOptions options = BudgetedOptions();
  options.num_threads = config.threads;
  return options;
}

/// Best-of-`reps` wall-clock of one synthesis run, in milliseconds.
double TimeOne(const Table& input, const Table& output,
               const SearchOptions& options, int reps, bool* solved) {
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    SearchResult result = SynthesizeProgram(input, output, options);
    auto end = std::chrono::steady_clock::now();
    double ms = std::chrono::duration<double, std::milli>(end - start).count();
    if (rep == 0 || ms < best) best = ms;
    if (solved != nullptr) *solved = result.found;
  }
  return best;
}

/// The stage-6 smoke workload: the motivating contacts example at
/// threads=8 — the same workload micro_core's
/// BM_SynthesizeParallel/threads:8 runs. Must stay in
/// sync with the `smoke_ms` field the full sweep writes, since
/// scripts/check.sh compares the two.
double SmokeMs(int reps) {
  const Scenario* scenario = FindScenario("wrangler3_contacts");
  if (scenario == nullptr) return -1;
  Result<ExamplePair> example =
      scenario->MakeExample(std::min(2, scenario->total_records()));
  if (!example.ok()) return -1;
  SearchOptions options = OptionsFor(kConfigs[1]);
  bool solved = false;
  double ms = TimeOne(example->input, example->output, options, reps, &solved);
  return solved ? ms : -1;
}

int RunSmoke(int reps) {
  double ms = SmokeMs(reps);
  if (ms < 0) {
    std::fprintf(stderr, "smoke workload failed to synthesize\n");
    return 1;
  }
  std::printf("smoke_ms=%.3f\n", ms);
  return 0;
}

// --- Guided-vs-exact comparison (--guidance) ----------------------------

struct GuidanceRow {
  std::string name;
  uint64_t exact_expanded = 0;   // Frontier pops.
  uint64_t guided_expanded = 0;
  uint64_t exact_generated = 0;  // Children created = candidate expansions.
  uint64_t guided_generated = 0;
  double exact_ms = 0;
  double guided_ms = 0;
  bool guided_win = false;
};

struct GuidanceReport {
  std::vector<GuidanceRow> rows;
  uint64_t median_exact_generated = 0;
  uint64_t median_guided_generated = 0;
  uint64_t median_exact_expanded = 0;
  uint64_t median_guided_expanded = 0;
  double total_exact_ms = 0;
  double total_guided_ms = 0;
  int guided_wins = 0;
  int fallbacks = 0;
};

uint64_t MedianU64(std::vector<uint64_t> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// The guided-vs-exact comparison runs wall-clock-free (node budgets, the
/// same profile the differential/ladder/soak suites share) on FULL example
/// pairs — the §5.2 full-raw-data workload — so the recorded counters are
/// machine-independent and the searches do nontrivial work (2-record
/// examples solve in a couple of pops, which makes every median
/// degenerate).
SearchOptions GuidanceComparisonOptions() {
  SearchOptions options;
  options.node_budget = 1'500;
  options.max_generated = 20'000;
  return options;
}

/// The standard mining recipe (same as `foofah_learn mine` and the
/// differential suite): corpus + seed-1 generated truth programs, then the
/// exact search's own winners over the tables the comparison below
/// actually runs — the solver-winner pass is what lets the evidence floor
/// keep guided wins byte-identical to the exact search.
GuidancePolicy MinePolicy(const std::vector<Scenario>& sweep) {
  GuidanceModel model = MineScenarios(Corpus());
  fuzz::ScenarioGenerator generator{fuzz::GeneratorOptions{}};
  for (int index = 0; index < 60; ++index) {
    fuzz::GeneratedScenario g = generator.Generate(index);
    MineProgram(g.input, g.output, g.program, &model);
  }
  for (const Scenario& scenario : sweep) {
    Result<ExamplePair> example =
        scenario.MakeExample(scenario.total_records());
    if (!example.ok()) continue;
    MineSolved(example->input, example->output, GuidanceComparisonOptions(),
               &model);
  }
  return GuidancePolicy(std::move(model));
}

/// Serial exact vs. serial staged-guided over `sweep`: per-scenario
/// counters (for the staged run: guided phase + fallback combined) and
/// best-of-`reps` latency. Two medians are recorded: nodes GENERATED is
/// the acceptance metric — candidate expansions of the frontier, the
/// enumeration-and-estimation cost guidance defers — while nodes
/// EXPANDED (pops) is pinned near the program length by the TED
/// heuristic on this corpus and is reported to show guidance does not
/// regress it.
GuidanceReport RunGuidanceComparison(const std::vector<Scenario>& sweep,
                                     const GuidancePolicy& policy, int reps) {
  GuidanceReport report;
  std::vector<uint64_t> exact_gen, guided_gen, exact_pop, guided_pop;
  for (const Scenario& scenario : sweep) {
    Result<ExamplePair> example =
        scenario.MakeExample(scenario.total_records());
    if (!example.ok()) continue;
    GuidanceRow row;
    row.name = scenario.name();

    SearchOptions exact_options = GuidanceComparisonOptions();
    SearchOptions guided_options = exact_options;
    guided_options.guidance = &policy;

    SearchResult exact =
        SynthesizeProgram(example->input, example->output, exact_options);
    row.exact_expanded = exact.stats.nodes_expanded;
    row.exact_generated = exact.stats.nodes_generated;
    row.exact_ms =
        TimeOne(example->input, example->output, exact_options, reps, nullptr);

    SearchResult guided =
        SynthesizeProgram(example->input, example->output, guided_options);
    row.guided_expanded = guided.stats.nodes_expanded;
    row.guided_generated = guided.stats.nodes_generated;
    row.guided_win = guided.stats.guided_win;
    row.guided_ms =
        TimeOne(example->input, example->output, guided_options, reps, nullptr);

    exact_gen.push_back(row.exact_generated);
    guided_gen.push_back(row.guided_generated);
    exact_pop.push_back(row.exact_expanded);
    guided_pop.push_back(row.guided_expanded);
    report.total_exact_ms += row.exact_ms;
    report.total_guided_ms += row.guided_ms;
    if (guided.stats.guided_win) ++report.guided_wins;
    if (guided.stats.guidance_fallbacks > 0) ++report.fallbacks;
    report.rows.push_back(std::move(row));
  }
  report.median_exact_generated = MedianU64(std::move(exact_gen));
  report.median_guided_generated = MedianU64(std::move(guided_gen));
  report.median_exact_expanded = MedianU64(std::move(exact_pop));
  report.median_guided_expanded = MedianU64(std::move(guided_pop));
  return report;
}

void WriteGuidanceJson(std::FILE* out, const GuidanceReport& report) {
  std::fprintf(out, "  \"guidance\": {\n");
  std::fprintf(out,
               "    \"workload\": \"full-record corpus examples, "
               "node_budget=1500, max_generated=20000\",\n");
  std::fprintf(out,
               "    \"expansion_metric\": \"generated = candidate expansions "
               "of the frontier (the enumeration cost guidance defers); "
               "expanded = frontier pops, pinned near program length by the "
               "TED heuristic\",\n");
  std::fprintf(out, "    \"scenarios\": [\n");
  for (size_t i = 0; i < report.rows.size(); ++i) {
    const GuidanceRow& row = report.rows[i];
    std::fprintf(out,
                 "      {\"name\": \"%s\", \"exact_generated\": %llu, "
                 "\"guided_generated\": %llu, \"exact_expanded\": %llu, "
                 "\"guided_expanded\": %llu, \"exact_ms\": %.3f, "
                 "\"guided_ms\": %.3f, \"guided_win\": %s}%s\n",
                 row.name.c_str(),
                 static_cast<unsigned long long>(row.exact_generated),
                 static_cast<unsigned long long>(row.guided_generated),
                 static_cast<unsigned long long>(row.exact_expanded),
                 static_cast<unsigned long long>(row.guided_expanded),
                 row.exact_ms, row.guided_ms, row.guided_win ? "true" : "false",
                 i + 1 == report.rows.size() ? "" : ",");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"median_exact_expansions\": %llu,\n",
               static_cast<unsigned long long>(report.median_exact_generated));
  std::fprintf(out, "    \"median_guided_expansions\": %llu,\n",
               static_cast<unsigned long long>(report.median_guided_generated));
  std::fprintf(out, "    \"median_exact_expanded\": %llu,\n",
               static_cast<unsigned long long>(report.median_exact_expanded));
  std::fprintf(out, "    \"median_guided_expanded\": %llu,\n",
               static_cast<unsigned long long>(report.median_guided_expanded));
  std::fprintf(out, "    \"total_exact_ms\": %.1f,\n", report.total_exact_ms);
  std::fprintf(out, "    \"total_guided_ms\": %.1f,\n", report.total_guided_ms);
  std::fprintf(out, "    \"guided_wins\": %d,\n", report.guided_wins);
  std::fprintf(out, "    \"fallbacks\": %d\n", report.fallbacks);
  std::fprintf(out, "  },\n");
}

void WriteJson(const char* path, const std::vector<ScenarioRow>& rows,
               const std::vector<size_t>& quartile, int reps,
               const AllocCounters& alloc_delta, double smoke_ms,
               const GuidanceReport* guidance) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  SearchOptions budget = BudgetedOptions();
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"frontier_corpus\",\n");
  // Speedups are only meaningful relative to this: a single-core host
  // measures pure fan-out overhead, not parallel speedup.
  std::fprintf(out, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out,
               "  \"budget\": {\"timeout_ms\": %lld, \"max_expansions\": "
               "%llu, \"reps\": %d},\n",
               static_cast<long long>(budget.timeout_ms),
               static_cast<unsigned long long>(budget.max_expansions), reps);
  std::fprintf(out, "  \"configs\": [");
  for (size_t c = 0; c < kNumConfigs; ++c) {
    std::fprintf(out, "%s\"%s\"", c == 0 ? "" : ", ", kConfigs[c].name);
  }
  std::fprintf(out, "],\n");

  std::fprintf(out, "  \"scenarios\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScenarioRow& row = rows[i];
    std::fprintf(out, "    {\"name\": \"%s\"", row.name.c_str());
    for (size_t c = 0; c < kNumConfigs; ++c) {
      std::fprintf(out, ", \"%s_ns_per_op\": %.0f, \"%s_solved\": %s",
                   kConfigs[c].name, row.ms[c] * 1e6, kConfigs[c].name,
                   row.solved[c] ? "true" : "false");
    }
    std::fprintf(out, "}%s\n", i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(out, "  ],\n");

  double quartile_total[kNumConfigs] = {0, 0};
  for (size_t index : quartile) {
    for (size_t c = 0; c < kNumConfigs; ++c) {
      quartile_total[c] += rows[index].ms[c];
    }
  }
  std::fprintf(out, "  \"slowest_quartile\": {\n");
  std::fprintf(out, "    \"count\": %zu,\n", quartile.size());
  std::fprintf(out, "    \"names\": [");
  for (size_t i = 0; i < quartile.size(); ++i) {
    std::fprintf(out, "%s\"%s\"", i == 0 ? "" : ", ",
                 rows[quartile[i]].name.c_str());
  }
  std::fprintf(out, "],\n");
  for (size_t c = 0; c < kNumConfigs; ++c) {
    std::fprintf(out, "    \"total_ms_%s\": %.1f,\n", kConfigs[c].name,
                 quartile_total[c]);
  }
  std::fprintf(out, "    \"speedup_t8_vs_t1\": %.2f\n",
               quartile_total[1] > 0 ? quartile_total[0] / quartile_total[1]
                                     : 0.0);
  std::fprintf(out, "  },\n");

  if (guidance != nullptr) WriteGuidanceJson(out, *guidance);

  std::fprintf(out,
               "  \"alloc\": {\"allocations\": %llu, \"mb\": %.1f},\n",
               static_cast<unsigned long long>(alloc_delta.allocations),
               static_cast<double>(alloc_delta.bytes) / (1024.0 * 1024.0));
  std::fprintf(out, "  \"peak_rss_mb\": %.1f,\n",
               static_cast<double>(PeakRssKb()) / 1024.0);
  std::fprintf(out, "  \"smoke_ms\": %.3f\n", smoke_ms);
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path);
}

int RunSweep(const char* out_path, int reps, const char* corpus_dir,
             bool guidance) {
  // Default sweep is the built-in 50; --corpus swaps in a fuzzer-generated
  // bundle directory so perf can be tracked on synthetic reshapes too.
  std::vector<Scenario> generated;
  if (corpus_dir != nullptr) {
    Result<std::vector<Scenario>> loaded = LoadGeneratedCorpus(corpus_dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "--corpus %s failed to load: %s\n", corpus_dir,
                   loaded.status().ToString().c_str());
      return 2;
    }
    generated = std::move(loaded).value();
  }
  const std::vector<Scenario>& sweep =
      corpus_dir != nullptr ? generated : Corpus();

  std::vector<ScenarioRow> rows;
  AllocCounters before = AllocSnapshot();
  for (const Scenario& scenario : sweep) {
    int records = std::min(2, scenario.total_records());
    Result<ExamplePair> example = scenario.MakeExample(records);
    if (!example.ok()) continue;
    ScenarioRow row;
    row.name = scenario.name();
    for (size_t c = 0; c < kNumConfigs; ++c) {
      row.ms[c] = TimeOne(example->input, example->output,
                          OptionsFor(kConfigs[c]), reps, &row.solved[c]);
    }
    std::printf("%-28s t1=%8.1fms  t8=%8.1fms%s\n", row.name.c_str(),
                row.ms[0], row.ms[1], row.solved[0] ? "" : "  (unsolved)");
    rows.push_back(std::move(row));
  }
  AllocCounters delta = AllocSnapshot() - before;

  // Slowest quartile by the serial baseline: the scenarios with enough
  // candidates per expansion for the thread fan-out to pay off.
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return rows[a].ms[0] > rows[b].ms[0];
  });
  size_t quartile_count = std::max<size_t>(1, rows.size() / 4);
  std::vector<size_t> quartile(order.begin(),
                               order.begin() + static_cast<long>(quartile_count));

  double totals[kNumConfigs] = {0, 0};
  for (size_t index : quartile) {
    for (size_t c = 0; c < kNumConfigs; ++c) totals[c] += rows[index].ms[c];
  }
  std::printf(
      "slowest quartile (%zu scenarios): t1=%.1fms t8=%.1fms  "
      "speedup(t8 vs t1)=%.2fx\n",
      quartile.size(), totals[0], totals[1],
      totals[1] > 0 ? totals[0] / totals[1] : 0.0);

  GuidanceReport guidance_report;
  if (guidance) {
    GuidancePolicy policy = MinePolicy(sweep);
    guidance_report = RunGuidanceComparison(sweep, policy, reps);
    std::printf(
        "guidance: median generated %llu -> %llu (popped %llu -> %llu), "
        "wins=%d fallbacks=%d, total ms %.1f -> %.1f\n",
        static_cast<unsigned long long>(
            guidance_report.median_exact_generated),
        static_cast<unsigned long long>(
            guidance_report.median_guided_generated),
        static_cast<unsigned long long>(guidance_report.median_exact_expanded),
        static_cast<unsigned long long>(
            guidance_report.median_guided_expanded),
        guidance_report.guided_wins, guidance_report.fallbacks,
        guidance_report.total_exact_ms, guidance_report.total_guided_ms);
  }

  double smoke_ms = SmokeMs(reps);
  WriteJson(out_path, rows, quartile, reps, delta, smoke_ms,
            guidance ? &guidance_report : nullptr);
  return 0;
}

}  // namespace
}  // namespace foofah::bench

int main(int argc, char** argv) {
  const char* out_path = "BENCH_search.json";
  const char* corpus_dir = nullptr;
  int reps = static_cast<int>(foofah::bench::EnvInt("FOOFAH_BENCH_REPS", 3));
  bool smoke = false;
  bool guidance = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--guidance") == 0) {
      guidance = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--corpus") == 0 && i + 1 < argc) {
      corpus_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--guidance] [--out <path>] [--reps N] "
                   "[--corpus <dir>]\n",
                   argv[0]);
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  if (smoke) return foofah::bench::RunSmoke(reps);
  return foofah::bench::RunSweep(out_path, reps, corpus_dir, guidance);
}
