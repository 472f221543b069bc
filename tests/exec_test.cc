#include "exec/runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "ops/operation.h"
#include "program/program.h"
#include "table/csv.h"
#include "table/table.h"
#include "util/cancellation.h"

namespace foofah {
namespace exec {
namespace {

// Reference output: what the Table executor produces for the same
// program and input. The streaming executor must match byte for byte.
std::string Reference(const Program& program, std::string_view input) {
  Result<Table> parsed = ParseCsv(input);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  Result<Table> out = program.Execute(*parsed);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return ToCsv(*out);
}

// Applies at several chunk sizes and checks byte-identity each time.
void ExpectByteIdentical(const Program& program, std::string_view input) {
  const std::string expected = Reference(program, input);
  for (size_t chunk_rows : {1u, 2u, 3u, 7u, 4096u}) {
    SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
    ApplyOptions options;
    options.chunk_rows = chunk_rows;
    std::string output;
    Result<ApplyStats> stats =
        ApplyProgramToCsvText(program, input, &output, options);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(output, expected);
  }
}

const char kInput[] =
    "alice,math,90\n"
    "bob,physics,85\n"
    "carol,chemistry,78\n"
    "dave,biology,91\n"
    "erin,history,66\n";

TEST(ApplyTextTest, EmptyProgramNormalizesLikeToCsv) {
  ExpectByteIdentical(Program(), kInput);
  // Quoted input: the output is ToCsv's canonical quoting, not the raw
  // input bytes.
  ExpectByteIdentical(Program(), "\"a,b\",c\n\"say \"\"hi\"\"\",d\n");
}

TEST(ApplyTextTest, StreamingProgramsMatchTableExecutor) {
  ExpectByteIdentical(Program({Drop(1)}), kInput);
  ExpectByteIdentical(Program({Move(2, 0)}), kInput);
  ExpectByteIdentical(Program({Copy(0), Merge(0, 1, " ")}), kInput);
  ExpectByteIdentical(Program({Split(1, "i")}), kInput);
  ExpectByteIdentical(Program({Extract(2, "[0-9]+")}), kInput);
  ExpectByteIdentical(Program({Divide(2, DividePredicate::kAllDigits)}),
                      kInput);
}

TEST(ApplyTextTest, RaggedRowsKeepStoredWidths) {
  // Fill preserves raggedness; the CSV must print the stored cells only.
  const char ragged[] = "a,b,c\nd\n,e\nf,g\n";
  ExpectByteIdentical(Program(), ragged);
  ExpectByteIdentical(Program({Fill(0)}), ragged);
  ExpectByteIdentical(Program({Fill(2)}), ragged);
}

TEST(ApplyTextTest, WindowedOperatorsStraddleChunkBoundaries) {
  ExpectByteIdentical(Program({Fold(1)}), kInput);
  ExpectByteIdentical(Program({Fold(1, /*with_header=*/true)}), kInput);
  // Groups of 2 and 3 over 5 rows: the last group is short, and with
  // chunk_rows in {1,2,3,7} groups straddle every boundary choice.
  ExpectByteIdentical(Program({WrapEvery(2)}), kInput);
  ExpectByteIdentical(Program({WrapEvery(3)}), kInput);
}

TEST(ApplyTextTest, WidthDynamicOperatorsUseMeasuringPasses) {
  const char holes[] = "a,1\nb,\nc,3\nd,\ne,5\n";
  ExpectByteIdentical(Program({DeleteRows(1)}), holes);
  ExpectByteIdentical(Program({DeleteRow(0)}), kInput);
  // The widest-row case: deleting the only wide row must narrow the
  // relation for downstream validation.
  ExpectByteIdentical(Program({DeleteRow(0), Drop(1)}), "x,y,z\na,b\nc,d\n");

  ApplyOptions options;
  std::string output;
  Result<ApplyStats> stats =
      ApplyProgramToCsvText(Program({DeleteRows(1)}), holes, &output, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->passes, 3);  // profile + 1 measuring + final.
  EXPECT_EQ(stats->streaming_steps, 1u);
  EXPECT_EQ(stats->blocking_steps, 0u);
}

TEST(ApplyTextTest, BlockingSuffixRunsOnMaterializedTable) {
  ExpectByteIdentical(Program({Transpose()}), kInput);
  ExpectByteIdentical(Program({Drop(1), Transpose(), Fill(0)}), kInput);
  ExpectByteIdentical(Program({WrapAll()}), kInput);
  ExpectByteIdentical(Program({WrapColumn(0)}), "k,1\nk,2\nj,3\n");
  ExpectByteIdentical(
      Program({Unfold(1, 2)}),
      "alice,math,90\nalice,physics,85\nbob,math,70\nbob,physics,99\n");

  ApplyOptions options;
  std::string output;
  Result<ApplyStats> stats = ApplyProgramToCsvText(
      Program({Drop(1), Transpose(), Fill(0)}), kInput, &output, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->streaming_steps, 1u);
  EXPECT_EQ(stats->blocking_steps, 2u);
}

TEST(ApplyTextTest, DeepPipelinesCompose) {
  ExpectByteIdentical(
      Program({Copy(1), Split(3, "i"), Merge(0, 2, "-"), Drop(0), Fill(1)}),
      kInput);
}

TEST(ApplyTextTest, StatsReportIo) {
  ApplyOptions options;
  std::string output;
  Result<ApplyStats> stats =
      ApplyProgramToCsvText(Program({Drop(1)}), kInput, &output, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_in, 5u);
  EXPECT_EQ(stats->rows_out, 5u);
  EXPECT_EQ(stats->bytes_in, sizeof(kInput) - 1);
  EXPECT_EQ(stats->bytes_out, output.size());
  EXPECT_EQ(stats->passes, 2);  // profile + final, no width-dynamic ops.
  EXPECT_GT(stats->peak_tracked_bytes, 0u);
  // A pure streaming run never touches the spill path.
  EXPECT_EQ(stats->spill_runs, 0u);
  EXPECT_EQ(stats->spill_bytes_written, 0u);
  EXPECT_EQ(stats->peak_disk_bytes, 0u);
}

TEST(ApplyTextTest, StatsReportSpillActivity) {
  ApplyOptions options;
  options.spill_threshold_bytes = 0;  // Spill every blocking relation.
  std::string output;
  Result<ApplyStats> stats = ApplyProgramToCsvText(
      Program({Transpose()}), kInput, &output, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(output, Reference(Program({Transpose()}), kInput));
  EXPECT_GE(stats->spill_runs, 1u);
  EXPECT_GT(stats->spill_bytes_written, 0u);
  EXPECT_GT(stats->peak_disk_bytes, 0u);
  EXPECT_LE(stats->peak_disk_bytes, stats->spill_bytes_written);
}

TEST(ApplyTextTest, InvalidProgramFailsWithTableExecutorMessage) {
  Result<Table> parsed = ParseCsv(kInput);
  ASSERT_TRUE(parsed.ok());
  for (const Program& bad :
       {Program({Drop(7)}), Program({Move(1, 1)}), Program({Split(0, "")}),
        Program({Drop(0), Drop(0), Drop(0), Drop(7)})}) {
    Result<Table> reference = bad.Execute(*parsed);
    ASSERT_FALSE(reference.ok());
    std::string output = "sentinel";
    Result<ApplyStats> stats =
        ApplyProgramToCsvText(bad, kInput, &output, {});
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), reference.status().code());
    EXPECT_EQ(stats.status().message(), reference.status().message());
    EXPECT_EQ(output, "sentinel");  // No partial output on failure.
  }
}

TEST(ApplyTextTest, ParseErrorsKeepPositionalDiagnostics) {
  std::string bad_csv = "a,b\nc,\"unclosed\nrest";
  Result<Table> reference = ParseCsv(bad_csv);
  ASSERT_FALSE(reference.ok());
  std::string output;
  Result<ApplyStats> stats =
      ApplyProgramToCsvText(Program({Drop(0)}), bad_csv, &output, {});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), reference.status().code());
  EXPECT_EQ(stats.status().message(), reference.status().message());
  EXPECT_TRUE(output.empty());
}

TEST(ApplyTextTest, MemoryBudgetMapsToResourceExhausted) {
  // A blocking operator must materialize the relation; an absurdly small
  // budget cannot hold it.
  std::string input;
  for (int i = 0; i < 2000; ++i) {
    input += "row" + std::to_string(i) + ",payload-payload-payload\n";
  }
  ApplyOptions options;
  options.memory_budget_bytes = 4096;
  std::string output;
  Result<ApplyStats> stats =
      ApplyProgramToCsvText(Program({Transpose()}), input, &output, options);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted)
      << stats.status().ToString();
  EXPECT_TRUE(output.empty());

  // A sane budget admits the same job.
  options.memory_budget_bytes = 64u << 20;
  stats = ApplyProgramToCsvText(Program({Transpose()}), input, &output, options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

TEST(ApplyTextTest, ExternalCancellationStopsTheRun) {
  CancellationToken token;
  token.RequestCancel();
  ApplyOptions options;
  options.cancel = &token;
  std::string output;
  Result<ApplyStats> stats =
      ApplyProgramToCsvText(Program({Drop(0)}), kInput, &output, options);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCancelled)
      << stats.status().ToString();
  EXPECT_TRUE(output.empty());
}

TEST(ApplyTextTest, ProgressReportsMonotonicPasses) {
  std::vector<ApplyProgress> seen;
  ApplyOptions options;
  options.progress = [&](const ApplyProgress& p) { seen.push_back(p); };
  options.progress_every_rows = 1;
  std::string output;
  Result<ApplyStats> stats = ApplyProgramToCsvText(Program({DeleteRows(0)}),
                                                   kInput, &output, options);
  ASSERT_TRUE(stats.ok());
  ASSERT_FALSE(seen.empty());
  int last_pass = 0;
  for (const ApplyProgress& p : seen) {
    EXPECT_GE(p.pass, last_pass);
    EXPECT_EQ(p.total_passes, 3);
    last_pass = p.pass;
  }
  EXPECT_EQ(last_pass, 3);
  EXPECT_EQ(seen.back().rows_out, stats->rows_out);
}

TEST(ApplyFileTest, WritesOutputFile) {
  std::string dir = ::testing::TempDir();
  std::string in_path = dir + "/exec_test_in.csv";
  std::string out_path = dir + "/exec_test_out.csv";
  {
    std::ofstream f(in_path);
    f << kInput;
  }
  Result<ApplyStats> stats =
      ApplyProgramToCsvFile(Program({Drop(2)}), in_path, out_path, {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  std::ifstream f(out_path);
  std::string written((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(written, Reference(Program({Drop(2)}), kInput));
  EXPECT_EQ(stats->bytes_out, written.size());
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(ApplyFileTest, MissingInputIsNotFoundAndLeavesNoOutput) {
  std::string out_path = ::testing::TempDir() + "/exec_test_ghost.csv";
  Result<ApplyStats> stats = ApplyProgramToCsvFile(
      Program({Drop(0)}), "/nonexistent/input.csv", out_path, {});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
  std::ifstream probe(out_path);
  EXPECT_FALSE(probe.good());  // Partial output removed.
}

TEST(ApplyFileTest, FailedRunRemovesPartialOutput) {
  std::string dir = ::testing::TempDir();
  std::string in_path = dir + "/exec_test_bad_in.csv";
  std::string out_path = dir + "/exec_test_bad_out.csv";
  {
    std::ofstream f(in_path);
    f << "a,b\nc,\"unclosed\n";
  }
  Result<ApplyStats> stats =
      ApplyProgramToCsvFile(Program(), in_path, out_path, {});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kParseError);
  std::ifstream probe(out_path);
  EXPECT_FALSE(probe.good());
  std::remove(in_path.c_str());
}

}  // namespace
}  // namespace exec
}  // namespace foofah
