// The `apply` and `apply_spill` workloads: seeded columnar CSV files go
// file-to-file through exec::ApplyProgramToCsvFile.
//
//   apply        the stream group at default options: a streaming program
//                (Split + Drop), a windowed one (WrapEvery) and a
//                measuring one (Delete, three passes over the input).
//   apply_spill  the spill group: Transpose, a blocking suffix, under a
//                memory budget that forces the spill path.
//
// Every output is checked: row and byte counts of each full-size call
// against what the generator predicts, and, on a verification-size input
// from the same generator outside the timed window, the output bytes
// against ToCsv(Program::Execute(ParseCsv(...))).
#include <sys/stat.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "exec/kernels.h"
#include "exec/plan.h"
#include "exec/runner.h"
#include "exec/spill.h"
#include "program/program.h"
#include "table/csv.h"
#include "table/csv_stream.h"
#include "util/cancellation.h"
#include "util/rng.h"
#include "util/tempfile.h"

namespace perfbench {
namespace {

using foofah::Program;
using foofah::exec::ApplyOptions;
using foofah::exec::ApplyStats;

constexpr int kSetupReps = 15;
constexpr size_t kColumns = 6;
// Rows of the full-size inputs (~4 MB and ~1.3 MB): small enough that a
// run makes more than a hundred calls, so the p90 has ten samples beyond it.
constexpr uint64_t kStreamRows = 96 * 1024;
constexpr uint64_t kSpillRows = 32 * 1024;
constexpr uint64_t kVerifyRows = 3'000;
// Transpose must materialize the whole input; half of this budget is the
// spill threshold, well under the materialized size of the spill input.
constexpr uint64_t kSpillMemoryBudget = 2u << 20;
constexpr int kDeleteColumn = 5;
constexpr int kTracedRounds = 15;
// Reconciliation tolerance, a share of the apply time. The replayed
// layers are timed in separate calls from the apply they stand for, and
// their per-program medians still differ from the apply's by a few
// percent from run to run.
constexpr double kReconcileTolerance = 0.05;

struct Workload {
  std::string name;
  Program program;
};

std::vector<Workload> Programs(bool spill_group) {
  if (spill_group) return {{"transpose", Program({foofah::Transpose()})}};
  return {
      {"split_drop", Program({foofah::Split(3, ":"), foofah::Drop(0)})},
      {"wrap_every", Program({foofah::WrapEvery(2)})},
      {"delete", Program({foofah::DeleteRows(kDeleteColumn)})},
  };
}

ApplyOptions OptionsFor(bool spill_group) {
  ApplyOptions options;
  if (spill_group) options.memory_budget_bytes = kSpillMemoryBudget;
  return options;
}

/// Output rows and bytes the generator predicts for each program.
struct Prediction {
  uint64_t rows = 0;
  uint64_t bytes = 0;
};

struct Input {
  std::string path;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  std::vector<Prediction> predicted;  // Parallel to Programs().
};

const char* const kNames[] = {"ana", "bo", "carla", "dmitri", "eve", "farid",
                              "gia", "hugo", "ines", "jun", "kofi", "lena",
                              "mateo", "nadia", "omar", "priya"};
const char* const kCities[] = {"austin", "bern", "cairo", "delhi", "essen",
                               "fargo", "genoa", "hanoi", "izmir", "jaipur",
                               "kyoto", "lima"};
const char* const kKeys[] = {"sku", "ref", "lot", "bin", "tag", "zone", "row",
                             "cell"};

/// Writes `rows` seeded records `id,name,city,key:value,amount,note` (no
/// cell needs quoting; about 12% of notes are empty) and predicts each
/// program's output size from the cells it wrote.
bool GenerateInput(const std::string& path, uint64_t seed, uint64_t rows,
                   bool spill_group, Input* input) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  foofah::Lcg rng(seed);
  std::vector<char> buffer(1 << 20);
  std::setvbuf(file, buffer.data(), _IOFBF, buffer.size());
  Prediction split_drop, wrap_every, deleted, transpose;
  uint64_t cell_bytes = 0;
  char row[256];
  for (uint64_t i = 0; i < rows; ++i) {
    char id[24];
    const int id_len = std::snprintf(id, sizeof(id), "%" PRIu64, i);
    const bool empty_note = rng.Chance(12);
    const char* note = empty_note ? "" : kNames[rng.Next(16)];
    const unsigned amount = rng.Next(1'000'000);
    const int len = std::snprintf(
        row, sizeof(row), "%s,%s,%s,%s:%u,%u.%02u,%s\n", id, kNames[rng.Next(16)],
        kCities[rng.Next(12)], kKeys[rng.Next(8)], rng.Next(100'000),
        amount / 100, amount % 100, note);
    std::fwrite(row, 1, static_cast<size_t>(len), file);
    input->bytes += static_cast<uint64_t>(len);
    // Split turns ':' into a cell boundary; Drop removes "id,".
    split_drop.bytes += static_cast<uint64_t>(len - id_len - 1);
    if (!empty_note) {
      deleted.rows += 1;
      deleted.bytes += static_cast<uint64_t>(len);
    }
    // Five commas and the newline separate the six cells.
    cell_bytes += static_cast<uint64_t>(len) - kColumns;
  }
  input->rows = rows;
  split_drop.rows = rows;
  wrap_every.rows = rows / 2;  // rows is even: every pair joins into one.
  wrap_every.bytes = input->bytes;
  transpose.rows = kColumns;
  transpose.bytes = cell_bytes + kColumns * (rows - 1) + kColumns;
  input->path = path;
  if (spill_group) {
    input->predicted = {transpose};
  } else {
    input->predicted = {split_drop, wrap_every, deleted};
  }
  return std::fclose(file) == 0;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  out->clear();
  char chunk[1 << 16];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) out->append(chunk, n);
  std::fclose(file);
  return true;
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// Checks one full-size call against the generator's prediction.
void CheckCall(const Workload& workload, const Prediction& predicted,
               const foofah::Result<ApplyStats>& stats,
               const std::string& out_path, bool spill_group, Report* report) {
  if (!stats.ok()) {
    ++report->failed;
    report->Fail(workload.name + " failed: " + stats.status().ToString());
    return;
  }
  const uint64_t on_disk = FileSize(out_path);
  if (stats->rows_out != predicted.rows || stats->bytes_out != predicted.bytes ||
      on_disk != predicted.bytes) {
    ++report->failed;
    report->Fail(workload.name + ": output rows/bytes " +
                 std::to_string(stats->rows_out) + "/" +
                 std::to_string(on_disk) + " differ from the predicted " +
                 std::to_string(predicted.rows) + "/" +
                 std::to_string(predicted.bytes));
  }
  if (spill_group && stats->spill_runs == 0) {
    ++report->failed;
    report->Fail(workload.name + " did not take the spill path");
  }
}

// Outside the timed window: applies every program to a verification-size
// input and compares the bytes with the Table executor's.
void VerifySmall(const std::vector<Workload>& programs, const Args& args,
                 bool spill_group, Report* report) {
  Input small;
  const std::string path = args.workdir + "/verify_in.csv";
  if (!GenerateInput(path, args.seed, kVerifyRows, spill_group, &small)) {
    report->Fail("cannot write the verification input");
    return;
  }
  std::string text;
  ReadFile(path, &text);
  auto table = foofah::ParseCsv(text);
  if (!table.ok()) {
    report->Fail("verification input does not parse");
    return;
  }
  for (size_t p = 0; p < programs.size(); ++p) {
    ApplyOptions options = OptionsFor(spill_group);
    // At this size only a zero threshold reaches the spill path.
    if (spill_group) options.spill_threshold_bytes = 0;
    const std::string out_path = args.workdir + "/verify_out.csv";
    auto stats = foofah::exec::ApplyProgramToCsvFile(programs[p].program, path,
                                                     out_path, options);
    ++report->attempted;
    auto expected_table = programs[p].program.Execute(*table);
    std::string got;
    if (!stats.ok() || !expected_table.ok() || !ReadFile(out_path, &got) ||
        got != foofah::ToCsv(*expected_table)) {
      ++report->failed;
      report->Fail(programs[p].name +
                   ": streaming output differs from the Table executor");
      continue;
    }
    CheckCall(programs[p], small.predicted[p], stats, out_path, spill_group,
              report);
  }
}

struct LayerTimes {
  double read_ms = 0, kernel_ms = 0, write_ms = 0, commit_ms = 0,
         spill_write_ms = 0, spill_read_ms = 0;
  double busy() const {
    return read_ms + kernel_ms + write_ms + commit_ms + spill_write_ms +
           spill_read_ms;
  }
};

// Times one drain of the input through CsvChunkReader.
double DrainMs(const Input& input, bool intern_cells, Report* report) {
  const ApplyOptions defaults;
  foofah::CsvChunkReader reader(input.path, defaults.csv, intern_cells);
  foofah::CsvChunk chunk;
  Clock::time_point t0 = Clock::now();
  for (;;) {
    auto more = reader.ReadChunk(defaults.chunk_rows, &chunk);
    if (!more.ok()) {
      report->Fail("CsvChunkReader: " + more.status().ToString());
      break;
    }
    if (!*more) break;
  }
  return MsSince(t0);
}

// Drains the input once through CsvChunkReader, pushing each chunk's rows
// through the program's streaming kernels (ending in a MeasureSink) and,
// for the spill group, into a spill run. Returns false on error.
bool ReplayRead(const Program& program, const Input& input, bool spill_group,
                const std::string& run_path, LayerTimes* times,
                double* read_ms, Report* report) {
  const ApplyOptions defaults;
  foofah::CsvChunkReader reader(input.path, defaults.csv, defaults.intern_cells);
  foofah::exec::MeasureSink measure;
  std::vector<std::unique_ptr<foofah::exec::RowSink>> kernels;
  const size_t prefix = foofah::exec::StreamingPrefixLength(program);
  std::vector<foofah::exec::Shape> shapes{{input.rows, kColumns}};
  for (size_t i = 0; i + 1 < prefix; ++i) {
    auto next = foofah::exec::PropagateShape(program.operation(i), shapes.back());
    if (!next) return false;
    shapes.push_back(*next);
  }
  foofah::exec::RowSink* head = &measure;
  for (size_t i = prefix; i-- > 0;) {
    auto kernel = foofah::exec::MakeKernel(program.operation(i), shapes[i], head);
    if (!kernel.ok()) {
      report->Fail("MakeKernel: " + kernel.status().ToString());
      return false;
    }
    head = kernel->get();
    kernels.push_back(std::move(*kernel));
  }
  foofah::CancellationToken token;
  foofah::exec::DiskGauge gauge(&token);
  std::unique_ptr<foofah::exec::SpillRunWriter> run;
  if (spill_group) run = std::make_unique<foofah::exec::SpillRunWriter>(run_path, &gauge);

  foofah::CsvChunk chunk;
  for (;;) {
    Clock::time_point t0 = Clock::now();
    auto more = reader.ReadChunk(defaults.chunk_rows, &chunk);
    Clock::time_point t1 = Clock::now();
    *read_ms += MsBetween(t0, t1);
    if (!more.ok()) {
      report->Fail("CsvChunkReader: " + more.status().ToString());
      return false;
    }
    if (!*more) break;
    if (prefix > 0) {
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        auto row = chunk.row(r);
        if (!head->Push(row.cells, row.num_cells).ok()) return false;
      }
      times->kernel_ms += MsSince(t1);
    }
    if (run) {
      Clock::time_point t2 = Clock::now();
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        auto row = chunk.row(r);
        if (!run->AppendRow(row.cells, row.num_cells).ok()) return false;
      }
      times->spill_write_ms += MsSince(t2);
    }
  }
  if (prefix > 0) {
    Clock::time_point t3 = Clock::now();
    if (!head->Finish().ok()) return false;
    times->kernel_ms += MsSince(t3);
  }
  if (run) {
    Clock::time_point t4 = Clock::now();
    if (!run->Finish().ok()) return false;
    times->spill_write_ms += MsSince(t4);
    foofah::exec::SpillRunReader scan(run_path);
    const std::string_view* cells = nullptr;
    size_t num_cells = 0;
    Clock::time_point t5 = Clock::now();
    for (;;) {
      auto next = scan.NextRow(&cells, &num_cells);
      if (!next.ok()) return false;
      if (!*next) break;
    }
    times->spill_read_ms += MsSince(t5);
    std::remove(run_path.c_str());
  }
  return true;
}

// Rewrites the real output through CsvChunkWriter into a temp file and
// commits it with CommitFileDurably, timing both.
bool ReplayWriteAndCommit(const std::string& out_path, const std::string& dir,
                          LayerTimes* times, Report* report) {
  const std::string tmp = dir + "/replay_out.tmp";
  const std::string final_path = dir + "/replay_out.csv";
  foofah::CsvChunkReader reader(out_path, foofah::CsvOptions{}, false);
  foofah::CsvChunkWriter writer(tmp);
  foofah::CsvChunk chunk;
  for (;;) {
    auto more = reader.ReadChunk(64, &chunk);
    if (!more.ok()) {
      report->Fail("reading output: " + more.status().ToString());
      return false;
    }
    if (!*more) break;
    Clock::time_point t0 = Clock::now();
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      if (!writer.WriteRow(chunk.row(r)).ok()) return false;
    }
    times->write_ms += MsSince(t0);
  }
  Clock::time_point t1 = Clock::now();
  if (!writer.Close().ok()) return false;
  Clock::time_point t2 = Clock::now();
  times->write_ms += MsBetween(t1, t2);
  if (!foofah::CommitFileDurably(tmp, final_path).ok()) return false;
  times->commit_ms += MsSince(t2);
  std::remove(final_path.c_str());
  return true;
}

// The per-field median of `rounds`.
LayerTimes MedianTimes(const std::vector<LayerTimes>& rounds) {
  auto median_of = [&](double LayerTimes::*field) {
    std::vector<double> values;
    for (const LayerTimes& round : rounds) values.push_back(round.*field);
    return Median(values);
  };
  LayerTimes out;
  for (double LayerTimes::*field :
       {&LayerTimes::read_ms, &LayerTimes::kernel_ms, &LayerTimes::write_ms,
        &LayerTimes::commit_ms, &LayerTimes::spill_write_ms,
        &LayerTimes::spill_read_ms}) {
    out.*field = median_of(field);
  }
  return out;
}

// Each program runs kTracedRounds rounds of an untraced call, a traced
// call and a replay of its layers. The reported times are per-program
// medians over the rounds, summed over the programs: a single call or
// replay can read 40% high when an fsync or the host stalls. The self
// time is the median of each round's span minus its own replay, so that
// a host slowing down between rounds does not move it.
Report RunTraced(const Args& args, bool spill_group,
                 const std::vector<Workload>& programs, const Input& input,
                 double setup_s) {
  Report report;
  ZeroPerLayerMetrics(&report);
  report.meta["setup_s"] = std::to_string(setup_s);
  const ApplyOptions options = OptionsFor(spill_group);
  const int rounds = args.tiny ? 1 : kTracedRounds;
  Tracer tracer;
  LayerTimes times;
  double untraced_ms = 0, apply_ms = 0, wall_ms = 0, self_ms = 0, passes = 0;
  uint64_t spill_bytes = 0, peak_tracked = 0;
  for (size_t p = 0; p < programs.size(); ++p) {
    const std::string out_path = args.workdir + "/out_" + programs[p].name + ".csv";
    const int64_t id = static_cast<int64_t>(p);
    std::vector<double> untraced, spans, walls, selfs;
    std::vector<LayerTimes> replays;
    // The first call warms the page cache and is not timed.
    for (int round = -1; round < rounds; ++round) {
      Clock::time_point t0 = Clock::now();
      auto stats = foofah::exec::ApplyProgramToCsvFile(programs[p].program,
                                                       input.path, out_path, options);
      if (round >= 0) untraced.push_back(MsSince(t0));
      ++report.attempted;
      CheckCall(programs[p], input.predicted[p], stats, out_path, spill_group, &report);
      if (round < 0) continue;

      Clock::time_point w0 = Clock::now();
      int span = tracer.Begin("exec.apply", -1, id);
      stats = foofah::exec::ApplyProgramToCsvFile(programs[p].program, input.path,
                                                  out_path, options);
      tracer.End(span);
      walls.push_back(MsSince(w0));
      spans.push_back(tracer.SpanMs(span));
      ++report.attempted;
      CheckCall(programs[p], input.predicted[p], stats, out_path, spill_group, &report);
      if (!stats.ok()) break;
      if (round == 0) {
        passes += stats->passes;
        spill_bytes += stats->spill_bytes_written;
        peak_tracked = std::max(peak_tracked, stats->peak_tracked_bytes);
        tracer.Count("exec.passes." + programs[p].name, stats->passes);
      }

      int replay = tracer.Begin("apply.replay", -1, id);
      LayerTimes one;
      double read_once_ms = 0;
      if (!ReplayRead(programs[p].program, input, spill_group,
                      args.workdir + "/replay.run", &one, &read_once_ms, &report) ||
          !ReplayWriteAndCommit(out_path, args.workdir, &one, &report)) {
        report.Fail("layer replay failed for " + programs[p].name);
      }
      // Every pass tokenizes the whole input (the profile and measuring
      // passes without the interner, the final pass with it); every pass
      // after the profile pass runs the streaming kernels.
      one.read_ms = read_once_ms;
      for (int pass = 1; pass < stats->passes; ++pass) {
        one.read_ms += DrainMs(input, false, &report);
      }
      one.kernel_ms *= std::max(0, stats->passes - 1);
      tracer.End(replay);
      replays.push_back(one);
      selfs.push_back(spans.back() - one.busy());
    }
    if (replays.empty()) continue;
    const LayerTimes one = MedianTimes(replays);
    tracer.Count("table.csv_read_ms", one.read_ms);
    tracer.Count("exec.kernel_ms", one.kernel_ms);
    tracer.Count("table.csv_write_ms", one.write_ms);
    tracer.Count("util.commit_ms", one.commit_ms);
    tracer.Count("exec.spill_write_ms", one.spill_write_ms);
    tracer.Count("exec.spill_read_ms", one.spill_read_ms);
    times.read_ms += one.read_ms;
    times.kernel_ms += one.kernel_ms;
    times.write_ms += one.write_ms;
    times.commit_ms += one.commit_ms;
    times.spill_write_ms += one.spill_write_ms;
    times.spill_read_ms += one.spill_read_ms;
    untraced_ms += Median(untraced);
    apply_ms += Median(spans);
    wall_ms += Median(walls);
    self_ms += Median(selfs);
  }
  Reconcile("exec", times.busy(), self_ms, apply_ms, wall_ms, kReconcileTolerance,
            &report);
  auto& v = report.values;
  v["table.csv_read_ms"] = times.read_ms;
  v["table.csv_write_ms"] = times.write_ms;
  v["exec.kernel_ms"] = times.kernel_ms;
  v["exec.spill_write_ms"] = times.spill_write_ms;
  v["exec.spill_read_ms"] = times.spill_read_ms;
  v["exec.passes"] = passes;
  v["exec.spill_bytes"] = static_cast<double>(spill_bytes);
  v["exec.peak_tracked_mb"] = static_cast<double>(peak_tracked) / 1e6;
  v["exec.self_ms"] = self_ms;
  v["util.commit_ms"] = times.commit_ms;
  v["bench.trace_overhead_pct"] = 100.0 * (apply_ms - untraced_ms) / untraced_ms;
  report.meta["untraced_apply_ms"] = std::to_string(untraced_ms);
  report.meta["traced_apply_ms"] = std::to_string(apply_ms);
  report.meta["interner"] =
      "not used: ApplyStats::interner is read after the per-chunk Reset()";
  if (!tracer.WriteJson(args.workdir + "/trace.json")) {
    report.Fail("cannot write the trace file");
  }
  return report;
}

}  // namespace

Report RunApply(const Args& args, bool spill_group) {
  const std::vector<Workload> programs = Programs(spill_group);
  uint64_t rows = spill_group ? kSpillRows : kStreamRows;
  if (args.tiny) rows = 4'096;
  Input input;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.tiny ? 1 : kSetupReps); ++rep) {
    Clock::time_point start = Clock::now();
    input = Input{};
    if (!GenerateInput(args.workdir + "/input.csv", args.seed, rows,
                       spill_group, &input)) {
      Report report;
      report.Fail("cannot write the input file");
      return report;
    }
    setup_s.push_back(MsSince(start) / 1e3);
  }

  Report verify;
  VerifySmall(programs, args, spill_group, &verify);
  Report report;
  if (args.trace) {
    report = RunTraced(args, spill_group, programs, input, Median(setup_s));
  } else {
    const ApplyOptions options = OptionsFor(spill_group);
    std::vector<double> call_ms;
    double total_ms = 0, total_mb = 0;
    const double input_mb = static_cast<double>(input.bytes) / 1e6;
    const double budget_ms = args.seconds * 1e3;
    Clock::time_point start = Clock::now();
    // The first round over the programs warms the page cache and is not
    // timed; then programs rotate until the window is spent.
    for (size_t call = 0;; ++call) {
      const size_t p = call % programs.size();
      if (call >= programs.size() && p == 0 && MsSince(start) >= budget_ms) break;
      if (args.tiny && call >= 2 * programs.size()) break;
      const std::string out_path = args.workdir + "/out_" + programs[p].name + ".csv";
      Clock::time_point t0 = Clock::now();
      auto stats = foofah::exec::ApplyProgramToCsvFile(programs[p].program,
                                                       input.path, out_path, options);
      const double ms = MsSince(t0);
      ++report.attempted;
      CheckCall(programs[p], input.predicted[p], stats, out_path, spill_group, &report);
      if (call < programs.size()) continue;
      call_ms.push_back(ms);
      total_ms += ms;
      total_mb += input_mb;
    }
    report.values["p50_ms"] = Median(call_ms);
    report.values["tail_ms"] = Percentile(call_ms, 0.9);
    report.values["work_per_s"] = total_mb / (total_ms / 1e3);
    report.values["ok_ratio"] =
        static_cast<double>(report.attempted - report.failed) /
        static_cast<double>(report.attempted);
    report.values["setup_s"] = Median(setup_s);
    report.values["peak_rss_mb"] = PeakRssMb();
    report.meta["timed_calls"] = std::to_string(call_ms.size());
    report.meta["input_mb"] = std::to_string(input_mb);
    report.meta["input_rows"] = std::to_string(input.rows);
    report.meta["mb_processed"] = std::to_string(total_mb);
    report.meta["setup_reps"] = std::to_string(setup_s.size());
    report.meta["tail_percentile"] = "p90";
  }
  report.attempted += verify.attempted;
  report.failed += verify.failed;
  for (const std::string& error : verify.errors) report.Fail(error);
  return report;
}

}  // namespace perfbench
