// The `synth` workload: a closed loop with one client calling
// SynthesizeProgram at foofah_cli's defaults (A*, TED Batch, full
// pruning) but on one search thread, over the 50 built-in corpus
// scenarios at the §5.3 two-record example plus a generated draw.
// Searches stop on node/expansion budgets; the 60 s wall-clock timeout is
// only a safety net.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "fuzz/generator.h"
#include "heuristic/heuristic.h"
#include "ops/enumerate.h"
#include "ops/operators.h"
#include "ops/registry.h"
#include "scenarios/corpus.h"
#include "search/pruning.h"
#include "search/search.h"
#include "search/trace.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using foofah::Operation;
using foofah::SearchOptions;
using foofah::SearchResult;
using foofah::Table;

// The generated tasks come from one fixed generator seed. A draw that
// changes with the workload seed moves the whole task-set time by about
// ±20% from seed to seed (budget-bound tasks are heavy-tailed), far more
// than any useful regression bound; the workload seed orders the tasks and
// draws the fixed-cost probe instead; --pool-seed overrides the pool for
// held-out checks (README.md, "Seeds").
constexpr uint64_t kGeneratedPoolSeed = 1;
constexpr int kGeneratedTasks = 60;
constexpr int kSetupReps = 15;
constexpr double kQuickTaskMs = 5;
constexpr int kQuickReps = 5;

struct Task {
  std::string name;
  Table input;
  Table output;
  bool generated = false;
};

// Corpus scenarios run at a budget that solves every solvable one (the
// largest needs ~73k generated states); the small generated tasks get a
// tight budget so a budget-bound one costs a bounded, similar amount.
//
// One search thread, not the CLI's num_threads = 0: on a 4-vCPU host with
// shared cores, the task-set time at 4 threads moved 2.7x between runs of
// the same build (each expansion waits for its slowest thread, and the
// host preempts vCPUs), while single-threaded work moved about 5%. The
// per-search thread-pool cost stays measured by search.fixed_cost_us,
// which runs at the CLI defaults.
SearchOptions OptionsFor(const Task& task) {
  SearchOptions options;
  options.num_threads = 1;
  if (task.generated) {
    options.node_budget = 200;
    options.max_generated = 4'000;
  } else {
    options.node_budget = 2'000;
    options.max_generated = 100'000;
  }
  return options;
}

std::vector<Task> BuildTasks(uint64_t seed, uint64_t pool_seed, bool tiny) {
  std::vector<Task> tasks;
  for (const foofah::Scenario& scenario : foofah::Corpus()) {
    auto example = scenario.MakeExample(std::min(2, scenario.total_records()));
    if (!example.ok()) continue;
    tasks.push_back(Task{scenario.name(), example->input, example->output, false});
    if (tiny && tasks.size() >= 6) break;
  }
  static const foofah::OperatorRegistry kRegistry =
      foofah::OperatorRegistry::Default();
  foofah::fuzz::GeneratorOptions options;
  options.seed = pool_seed != 0 ? pool_seed : kGeneratedPoolSeed;
  options.registry = &kRegistry;  // The library the search uses.
  foofah::fuzz::ScenarioGenerator generator(options);
  const int generated = tiny ? 4 : kGeneratedTasks;
  for (int i = 0; i < generated; ++i) {
    foofah::fuzz::GeneratedScenario scenario = generator.Generate(i);
    tasks.push_back(Task{scenario.name, std::move(scenario.input),
                         std::move(scenario.output), true});
  }
  foofah::Lcg rng(seed);
  for (size_t i = tasks.size(); i > 1; --i) {
    std::swap(tasks[i - 1], tasks[rng.Next(static_cast<uint32_t>(i))]);
  }
  return tasks;
}

// A one-operation task (drop one column of a seeded 3x3 table): the
// search's fixed per-call cost dominates its time.
Task BuildFixedCostTask(uint64_t seed) {
  foofah::Lcg rng(seed ^ 0x5eedf00dULL);
  foofah::fuzz::GeneratorOptions options;
  options.min_rows = options.max_rows = 3;
  options.min_cols = options.max_cols = 3;
  options.ragged_percent = 0;
  options.hole_percent = 0;
  for (;;) {
    Table input = foofah::fuzz::RandomTypedTable(&rng, options);
    auto output = foofah::Program({foofah::Drop(1)}).Execute(input);
    if (output.ok() && !output->ContentEquals(input)) {
      return Task{"fixed_cost_drop", input, *output, false};
    }
  }
}

struct Outcome {
  bool found = false;
  std::string script;
};

// Runs one task and checks the returned program against its example.
// `*start` and `*ms` receive the start and duration of the search alone.
Outcome RunTask(const Task& task, SearchOptions options, double* ms,
                foofah::SearchStats* stats, Report* report,
                Clock::time_point* start = nullptr) {
  const Clock::time_point started = Clock::now();
  SearchResult result = foofah::SynthesizeProgram(task.input, task.output, options);
  const Clock::time_point finished = Clock::now();
  *ms = MsBetween(started, finished);
  if (start != nullptr) *start = started;
  ++report->attempted;
  if (stats != nullptr) *stats = result.stats;
  Outcome outcome{result.found, result.found ? result.program.ToScript() : ""};
  if (result.found) {
    auto replay = result.program.Execute(task.input);
    if (!replay.ok() || !replay->ContentEquals(task.output)) {
      ++report->failed;
      report->Fail("program for " + task.name + " does not replay: " +
                   outcome.script);
    }
  }
  return outcome;
}

// Records what the search explored, for the per-layer replay.
class ExplorationRecorder : public foofah::SearchObserver {
 public:
  struct Expansion {
    int node;
    Table state;
  };
  void OnExpand(int node, const Table& state, uint32_t depth) override {
    (void)depth;
    expansions.push_back(Expansion{node, state});
  }
  void OnGenerate(int node, int parent, const Operation& operation,
                  double heuristic, bool is_goal) override {
    (void)node;
    (void)heuristic;
    (void)is_goal;
    kept[parent].push_back(operation);
  }
  std::vector<Expansion> expansions;
  std::map<int, std::vector<Operation>> kept;
};

struct LayerTotals {
  double enumerate_ms = 0, apply_ms = 0, prune_ms = 0, hash_ms = 0,
         estimate_ms = 0;
  double candidates = 0, apply_failures = 0, estimates = 0;
  double busy() const {
    return enumerate_ms + apply_ms + prune_ms + hash_ms + estimate_ms;
  }
};

// Re-runs, serially and outside the timed search, each layer's public
// function on exactly the states the search expanded: enumeration per
// expanded state, prune/apply/hash per candidate, TED Batch on the kept
// children.
void ReplayLayers(const Task& task, const ExplorationRecorder& recorder,
                  const foofah::OperatorRegistry& registry,
                  const foofah::Heuristic& heuristic, Tracer* tracer,
                  int parent_span, int64_t id, LayerTotals* totals) {
  const foofah::PruningConfig config = foofah::PruningConfig::Full();
  Clock::time_point t0 = Clock::now();
  const foofah::GoalCharSets goal_chars = foofah::GoalCharSets::From(task.output);
  totals->prune_ms += MsSince(t0);
  for (const auto& expansion : recorder.expansions) {
    const int span = tracer->Begin("replay.expansion", parent_span, id);
    const Table& state = expansion.state;
    t0 = Clock::now();
    std::vector<Operation> candidates =
        foofah::EnumerateCandidates(state, task.output, registry);
    Clock::time_point t1 = Clock::now();
    totals->enumerate_ms += MsBetween(t0, t1);
    const foofah::ParentContext context = foofah::ParentContext::From(state);
    totals->prune_ms += MsSince(t1);
    auto kept_it = recorder.kept.find(expansion.node);
    for (const Operation& op : candidates) {
      totals->candidates += 1;
      t0 = Clock::now();
      foofah::PruneReason before = foofah::PruneBeforeApply(state, op, config);
      t1 = Clock::now();
      totals->prune_ms += MsBetween(t0, t1);
      if (before != foofah::PruneReason::kKept) continue;
      foofah::Result<Table> child = foofah::ApplyOperation(state, op);
      Clock::time_point t2 = Clock::now();
      totals->apply_ms += MsBetween(t1, t2);
      if (!child.ok()) {
        totals->apply_failures += 1;
        continue;
      }
      foofah::PruneReason after =
          foofah::PruneAfterApply(context, *child, op, goal_chars, config);
      Clock::time_point t3 = Clock::now();
      totals->prune_ms += MsBetween(t2, t3);
      if (after != foofah::PruneReason::kKept) continue;
      volatile uint64_t hash = child->Hash();
      (void)hash;
      Clock::time_point t4 = Clock::now();
      totals->hash_ms += MsBetween(t3, t4);
      if (kept_it == recorder.kept.end() ||
          std::find(kept_it->second.begin(), kept_it->second.end(), op) ==
              kept_it->second.end()) {
        continue;
      }
      volatile double h = heuristic.Estimate(*child, task.output);
      (void)h;
      totals->estimate_ms += MsSince(t4);
      totals->estimates += 1;
    }
    tracer->End(span);
  }
}

Report RunTraced(const Args& args, const std::vector<Task>& tasks,
                 const Task& fixed_cost_task, double setup_s) {
  Report report;
  ZeroPerLayerMetrics(&report);
  report.meta["setup_s"] = std::to_string(setup_s);
  // Warm-up, then one untraced pass: the baseline for the overhead.
  double untraced_ms = 0;
  std::vector<Outcome> baseline(tasks.size());
  for (int pass = 0; pass < 2; ++pass) {
    untraced_ms = 0;
    for (size_t i = 0; i < tasks.size(); ++i) {
      double ms = 0;
      baseline[i] = RunTask(tasks[i], OptionsFor(tasks[i]), &ms, nullptr, &report);
      untraced_ms += ms;
    }
  }

  Tracer tracer;
  const foofah::OperatorRegistry registry = foofah::OperatorRegistry::Default();
  std::unique_ptr<foofah::Heuristic> heuristic =
      foofah::MakeHeuristic(foofah::HeuristicKind::kTedBatch);
  LayerTotals totals;
  foofah::SearchStats sum;
  double traced_ms = 0, replay_wall_ms = 0;
  Clock::time_point pass_start = Clock::now();
  for (size_t i = 0; i < tasks.size(); ++i) {
    const int64_t id = static_cast<int64_t>(i);
    ExplorationRecorder recorder;
    SearchOptions options = OptionsFor(tasks[i]);
    options.observer = &recorder;
    double ms = 0;
    foofah::SearchStats stats;
    Clock::time_point started;
    Outcome outcome = RunTask(tasks[i], options, &ms, &stats, &report, &started);
    tracer.Add("search.synthesize", started,
               started + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(ms)),
               -1, id);
    traced_ms += ms;
    if (outcome.found != baseline[i].found ||
        outcome.script != baseline[i].script) {
      ++report.failed;
      report.Fail("observed search of " + tasks[i].name +
                  " returned a different result");
    }
    AddSearchStats(stats, &sum);
    Clock::time_point replay_start = Clock::now();
    int replay = tracer.Begin("synth.replay", -1, id);
    ReplayLayers(tasks[i], recorder, registry, *heuristic, &tracer, replay, id,
                 &totals);
    tracer.End(replay);
    replay_wall_ms += MsSince(replay_start);
  }
  const double pass_wall_ms = MsSince(pass_start) - replay_wall_ms;

  std::vector<double> fixed_us;
  const int fixed_reps = args.tiny ? 20 : 300;
  for (int rep = 0; rep < fixed_reps; ++rep) {
    double ms = 0;
    RunTask(fixed_cost_task, SearchOptions{}, &ms, nullptr, &report);
    fixed_us.push_back(ms * 1e3);
  }

  const double search_span_ms = tracer.BusyMs("search.synthesize");
  const double self_ms = search_span_ms - totals.busy();
  Reconcile("search", totals.busy(), self_ms, search_span_ms, pass_wall_ms, 0.02,
            &report);
  FillSearchMetrics(sum, &report);
  auto& v = report.values;
  v["search.fixed_cost_us"] = Median(fixed_us);
  v["search.prune_ms"] = totals.prune_ms;
  v["search.self_ms"] = self_ms;
  v["ops.enumerate_ms"] = totals.enumerate_ms;
  v["ops.apply_ms"] = totals.apply_ms;
  v["ops.apply_fail_ratio"] = Ratio(totals.apply_failures, totals.candidates);
  v["table.hash_ms"] = totals.hash_ms;
  v["heuristic.estimate_ms"] = totals.estimate_ms;
  v["heuristic.estimates"] = totals.estimates;
  v["bench.trace_overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms;
  report.meta["replayed_candidates"] = std::to_string(totals.candidates);
  report.meta["untraced_pass_ms"] = std::to_string(untraced_ms);
  report.meta["traced_pass_ms"] = std::to_string(traced_ms);
  tracer.Count("replay.candidates", totals.candidates);
  tracer.Count("replay.apply_failures", totals.apply_failures);
  tracer.Count("replay.estimates", totals.estimates);
  if (!tracer.WriteJson(args.workdir + "/trace.json")) {
    report.Fail("cannot write the trace file");
  }
  return report;
}

}  // namespace

Report RunSynth(const Args& args) {
  std::vector<double> setup_s;
  std::vector<Task> tasks;
  Task fixed_cost_task;
  for (int rep = 0; rep < (args.tiny ? 1 : kSetupReps); ++rep) {
    Clock::time_point start = Clock::now();
    tasks = BuildTasks(args.seed, args.pool_seed, args.tiny);
    fixed_cost_task = BuildFixedCostTask(args.seed);
    setup_s.push_back(MsSince(start) / 1e3);
  }
  if (args.trace) return RunTraced(args, tasks, fixed_cost_task, Median(setup_s));

  Report report;
  const size_t n = tasks.size();
  std::vector<std::vector<double>> task_ms(n);
  std::vector<Outcome> first(n);
  std::vector<double> pass_s;
  const double budget_ms = args.seconds * 1e3;
  Clock::time_point start = Clock::now();
  // Pass 0 warms caches and the allocator and is not timed; timed passes
  // follow while the next one fits in the measuring window. A task that
  // took under kQuickTaskMs in pass 0 runs kQuickReps times back to back
  // per timed pass: a sub-millisecond search otherwise reads up to 25%
  // slower or faster depending on which task ran before it.
  std::vector<int> reps(n, 1);
  for (int pass = 0;; ++pass) {
    if (pass >= 2) {
      const double elapsed = MsSince(start);
      if (elapsed + pass_s.back() * 1e3 > budget_ms) break;
    }
    Clock::time_point pass_start = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      for (int rep = 0; rep < reps[i]; ++rep) {
        double ms = 0;
        Outcome outcome = RunTask(tasks[i], OptionsFor(tasks[i]), &ms, nullptr, &report);
        if (pass == 0) {
          first[i] = outcome;
          if (ms < kQuickTaskMs && !args.tiny) reps[i] = kQuickReps;
          continue;
        }
        task_ms[i].push_back(ms);
        if (outcome.found != first[i].found || outcome.script != first[i].script) {
          ++report.failed;
          report.Fail("task " + tasks[i].name + " changed its result between passes");
        }
      }
    }
    if (pass > 0) pass_s.push_back(MsSince(pass_start) / 1e3);
    if (args.tiny && pass >= 1) break;
  }

  // The task-set time is the sum of the per-task medians: one sweep with
  // the repeats and the benchmark's own loop taken out.
  std::vector<double> per_task;
  double task_set_ms = 0;
  int solved = 0;
  for (size_t i = 0; i < n; ++i) {
    per_task.push_back(Median(task_ms[i]));
    task_set_ms += per_task.back();
    solved += first[i].found ? 1 : 0;
  }
  report.values["p50_ms"] = Median(per_task);
  report.values["tail_ms"] = Percentile(per_task, 0.9);
  report.values["work_per_s"] = static_cast<double>(n) / (task_set_ms / 1e3);
  report.values["ok_ratio"] = static_cast<double>(solved) / static_cast<double>(n);
  report.values["setup_s"] = Median(setup_s);
  report.values["peak_rss_mb"] = PeakRssMb();
  report.meta["tasks"] = std::to_string(n);
  report.meta["timed_passes"] = std::to_string(pass_s.size());
  report.meta["setup_reps"] = std::to_string(setup_s.size());
  report.meta["tail_percentile"] = "p90";
  report.meta["task_set_s"] = std::to_string(task_set_ms / 1e3);
  report.meta["solved"] = std::to_string(solved);
  return report;
}

}  // namespace perfbench
