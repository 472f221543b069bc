#ifndef FOOFAH_SERVER_LADDER_H_
#define FOOFAH_SERVER_LADDER_H_

#include <functional>
#include <optional>
#include <vector>

#include "search/search.h"
#include "table/table.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace foofah {

/// One rung of the graceful-degradation ladder: which heuristic to search
/// with and what fraction of the base budgets it gets. Successive rungs
/// trade answer quality for latency — cheaper heuristic, exponentially
/// smaller budget — so a request that would blow its budget at full
/// strength still returns *something* typed.
struct LadderRung {
  HeuristicKind heuristic = HeuristicKind::kTedBatch;
  /// Multiplier on the base node/memory budgets and per-rung timeout.
  /// Budgets of 0 stay 0 (disabled) regardless of scale.
  double budget_scale = 1.0;
};

/// The default descent: the paper's TED Batch at full budget, then raw
/// greedy TED at half, then the Appendix C rule heuristic at a quarter.
/// The implicit final rung — the anytime partial result accumulated across
/// attempts — needs no search of its own.
std::vector<LadderRung> DefaultLadderRungs();

/// Configuration of one ladder run.
struct LadderOptions {
  /// Rung-0 search configuration. Its node_budget / memory_budget /
  /// timeout_ms are the full-strength budgets that later rungs scale
  /// down; its heuristic field is overridden per rung. A num_threads of 0
  /// is normalized to 1: a ladder run is one request of many inside a
  /// service worker, so intra-search parallelism defaults off.
  SearchOptions base;

  /// The descent. Empty behaves like a single full-strength rung.
  std::vector<LadderRung> rungs = DefaultLadderRungs();

  /// Optional request-level token (not owned, must outlive the call): an
  /// external RequestCancel() stops the descent between rungs, and its
  /// fired reason wins over the per-rung outcome in `status`. Per-rung
  /// budgets never touch this token — each rung runs on a fresh private
  /// token so one rung's exhaustion does not poison the next.
  CancellationToken* cancel = nullptr;

  /// Optional absolute deadline capping every rung (the request deadline
  /// a service computed at admission). Each rung's private token is
  /// tightened to min(this, now + scaled timeout).
  std::optional<CancellationToken::Clock::time_point> deadline;

  /// Optional hook published with each rung's index and private token just
  /// before the rung's search runs (`active` true) and again right after
  /// it returns (`active` false). A service uses it to propagate an
  /// external cancel into a rung mid-search; the pointer is only valid
  /// between the matching active / inactive calls. Rungs run one at a
  /// time, so at most one token is active.
  std::function<void(int rung, CancellationToken*, bool active)> on_rung_token;
};

/// What one rung attempted and how it ended, for response metadata and the
/// ladder property tests.
struct LadderAttempt {
  HeuristicKind heuristic = HeuristicKind::kTedBatch;
  uint64_t node_budget = 0;
  uint64_t memory_budget = 0;
  int64_t timeout_ms = 0;
  bool found = false;
  /// The rung ended on a budget/deadline/cancel instead of exhausting or
  /// solving its search space.
  bool truncated = false;
  SearchStats stats;
};

/// Outcome of a ladder run. Exactly one of three shapes (the typed
/// "always returns something" contract):
///  - found: `program` is correct on the example pair; status OK.
///  - anytime.available: no rung finished, but the best frontier program
///    across all attempts (lowest h, strictly better than the input) is
///    surfaced; status kResourceExhausted (or kCancelled when the request
///    token fired externally).
///  - neither: status kCancelled / kResourceExhausted / kNotFound (the
///    space was exhausted cleanly — no budget would have helped).
struct LadderResult {
  bool found = false;
  Program program;
  /// Index into LadderOptions::rungs of the rung that found `program`;
  /// -1 when !found. A value > 0 is a degraded (but still exact-on-the-
  /// example) answer.
  int winning_rung = -1;
  /// Best partial progress across all truncated rungs; cleared when found.
  AnytimeResult anytime;
  /// One entry per rung actually attempted (the descent stops early on a
  /// find, a clean exhaustion, or a fired request token).
  std::vector<LadderAttempt> attempts;
  /// Typed outcome; see the shape contract above.
  Status status;
};

/// Runs the degradation ladder: rung 0 at full budget, then — only when
/// the rung was *truncated* by its budget — descends to the next rung with
/// a cheaper heuristic and scaled-down budgets. Deterministic whenever the
/// budgets are (node/memory budgets with no deadline): every rung's search
/// is bit-identical across SearchOptions::num_threads, so the descent path
/// and the final result are too.
LadderResult RunDegradationLadder(const Table& input, const Table& goal,
                                  const LadderOptions& options = {});

}  // namespace foofah

#endif  // FOOFAH_SERVER_LADDER_H_
