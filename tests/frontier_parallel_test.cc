// Determinism of a truncated frontier across thread counts. When the
// search stops early — a node budget or a wall-clock deadline — the
// frontier it leaves behind and the anytime result salvaged from it must
// not depend on how many threads evaluated the expansions. A node budget
// is a counter, so every thread count must stop on the same node and
// salvage the bit-identical anytime result; a deadline is a race against
// the scheduler, so there the contract is typed validity. Whole-run
// determinism (solved and budget-exhausted scenarios) is covered by
// parallel_search_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "scenarios/corpus.h"
#include "search/search.h"
#include "testing/search_outcome.h"

namespace foofah {
namespace {

using testing::DeterministicOptions;
using testing::ExpectIdenticalOutcome;

// Deterministic truncation: a node budget stops every thread count at the
// same generated node, so the salvaged anytime result must be identical —
// program, h, and produced table — at 1, 2 and 8 threads.
TEST(FrontierParallelTest, NodeBudgetAnytimeResultsAgree) {
  int checked = 0;
  for (const Scenario& scenario : Corpus()) {
    Result<ExamplePair> example = scenario.MakeExample(1);
    ASSERT_TRUE(example.ok()) << scenario.name();

    SearchOptions options = DeterministicOptions(1);
    options.node_budget = 500;
    SearchResult serial =
        SynthesizeProgram(example->input, example->output, options);
    for (int threads : {2, 8}) {
      options.num_threads = threads;
      SearchResult parallel =
          SynthesizeProgram(example->input, example->output, options);
      ExpectIdenticalOutcome(
          serial, parallel,
          scenario.name() + " budget threads=" + std::to_string(threads));
    }
    if (++checked == 10) break;  // Ten scenarios bound the sweep's runtime.
  }
  EXPECT_EQ(checked, 10);
}

// Wall-clock deadlines are inherently racy — which expansion observes the
// expiry depends on the scheduler — so under a 5 ms deadline the contract
// is typed validity, not bit-equality: every thread count must return a
// well-formed result, and any anytime partial must honor its invariants
// (strict progress, non-empty program, program reproduces the table).
// When no run hit the deadline the runs were deterministic after all, and
// the full bit-identical contract applies.
TEST(FrontierParallelTest, FiveMillisecondDeadlineStaysTypedAndValid) {
  const Scenario* scenario = FindScenario("wrangler3_contacts");
  ASSERT_NE(scenario, nullptr);
  Result<ExamplePair> example =
      scenario->MakeExample(std::min(2, scenario->total_records()));
  ASSERT_TRUE(example.ok());

  std::vector<SearchResult> results;
  bool any_timed_out = false;
  for (int threads : {1, 2, 8}) {
    SearchOptions options = DeterministicOptions(threads);
    options.timeout_ms = 5;
    SearchResult r =
        SynthesizeProgram(example->input, example->output, options);
    any_timed_out |= r.stats.timed_out;
    if (r.found) {
      Result<Table> replayed = r.program.Execute(example->input);
      ASSERT_TRUE(replayed.ok());
      EXPECT_TRUE(replayed->ContentEquals(example->output));
    } else if (r.anytime.available) {
      EXPECT_LT(r.anytime.h, r.anytime.input_h);
      EXPECT_FALSE(r.anytime.program.empty());
      Result<Table> partial = r.anytime.program.Execute(example->input);
      ASSERT_TRUE(partial.ok());
      EXPECT_TRUE(partial->ContentEquals(r.anytime.table));
    }
    results.push_back(std::move(r));
  }
  if (!any_timed_out) {
    for (size_t i = 1; i < results.size(); ++i) {
      ExpectIdenticalOutcome(results[0], results[i],
                             "deadline run " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace foofah
