#ifndef FOOFAH_CORE_DRIVER_H_
#define FOOFAH_CORE_DRIVER_H_

#include <functional>
#include <utility>
#include <vector>

#include "core/synthesizer.h"
#include "program/program.h"
#include "search/search.h"
#include "table/table.h"
#include "util/status.h"

namespace foofah {

/// An input-output example pair E = (e_i, e_o).
struct ExamplePair {
  Table input;
  Table output;
};

/// Builds the example pair containing the first `records` raw-data records
/// (§5.2: "a new input-output example that included one more data record").
using ExampleBuilder = std::function<Result<ExamplePair>(int records)>;

/// Configuration of the §5.2 experimental protocol.
struct DriverOptions {
  /// Synthesis configuration for each interaction round. Carries the
  /// engine's `num_threads` unchanged into every round — results are
  /// bit-identical at any setting, so the protocol's record-growth
  /// decisions are too.
  SearchOptions search;
  /// Largest example (in records) to try before giving up. The paper's
  /// experiments never needed more than 3; Fig 11a buckets 1 / 2 / failed.
  int max_records = 3;
  /// Wall-clock budget for the WHOLE protocol (all rounds together), in
  /// milliseconds; 0 disables. Implemented by tightening one shared
  /// CancellationToken threaded through every round's search, so the
  /// protocol deadline interrupts a round mid-evaluation — it composes
  /// with (and never loosens) the per-round `search.timeout_ms`.
  int64_t total_timeout_ms = 0;
  /// Optional externally owned token shared across rounds (not owned,
  /// must outlive the call): lets a UI abort the whole protocol and lets
  /// callers impose node/memory budgets spanning rounds. When null and
  /// total_timeout_ms > 0 the driver creates a private one.
  CancellationToken* cancel = nullptr;
};

/// One interaction round of the protocol.
struct DriverRound {
  int records = 0;
  SearchResult search;
  /// True when this round's program transformed the full raw data exactly.
  bool perfect = false;
};

/// Outcome of the incremental example-growing loop.
struct DriverResult {
  /// A perfect program was found (§5.2: transforms the entire raw dataset
  /// as expected).
  bool perfect = false;
  /// Records in the example that produced the perfect program (0 if none).
  int records_used = 0;
  Program program;
  std::vector<DriverRound> rounds;
  /// True when the shared cancellation token fired (protocol deadline,
  /// budget, or external cancel) before a perfect program was found.
  bool cancelled = false;
  /// Typed outcome, mapped through the canonical StatusFromCancelReason
  /// table: OK when perfect; kCancelled when an external RequestCancel
  /// ended the protocol; kResourceExhausted when a deadline or budget did
  /// (or when every round ran out of search budget); kNotFound when the
  /// protocol cleanly ran out of records/rounds without a perfect program.
  /// Service-layer callers branch on this instead of re-deriving the
  /// outcome from the bool flags.
  Status status;
  /// Best partial progress across all truncated rounds (lowest h wins;
  /// see AnytimeResult): what the §4.5 loop decomposes instead of
  /// reporting a bare failure. `available == false` when some round found
  /// an exact program or no round made strict progress.
  AnytimeResult anytime;

  /// Worst and average per-interaction synthesis time over all rounds
  /// (the Fig 11b measurements).
  double worst_round_ms() const;
  double average_round_ms() const;
};

/// Runs the paper's §5.2 protocol: synthesize from a 1-record example,
/// execute the program on the full raw data, and grow the example by one
/// record per round until the output matches `full_output` exactly or
/// `options.max_records` is exceeded.
DriverResult FindPerfectProgram(const ExampleBuilder& build_example,
                                const Table& full_input,
                                const Table& full_output,
                                const DriverOptions& options = {});

}  // namespace foofah

#endif  // FOOFAH_CORE_DRIVER_H_
