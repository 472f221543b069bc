#include "server/ladder.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/fault_injection.h"

namespace foofah {

namespace {

uint64_t ScaleBudget(uint64_t base, double scale) {
  if (base == 0) return 0;  // Disabled stays disabled.
  double scaled = static_cast<double>(base) * scale;
  // Never scale an enabled budget to 0 ("disabled"): clamp to 1 so a tiny
  // rung still stops almost immediately instead of running unbounded.
  return std::max<uint64_t>(1, static_cast<uint64_t>(scaled));
}

int64_t ScaleTimeout(int64_t base_ms, double scale) {
  if (base_ms <= 0) return 0;
  double scaled = static_cast<double>(base_ms) * scale;
  return std::max<int64_t>(1, static_cast<int64_t>(scaled));
}

bool Truncated(const SearchStats& stats) {
  return stats.timed_out || stats.budget_exhausted || stats.cancelled;
}

}  // namespace

std::vector<LadderRung> DefaultLadderRungs() {
  return {
      LadderRung{HeuristicKind::kTedBatch, 1.0},
      LadderRung{HeuristicKind::kTed, 0.5},
      LadderRung{HeuristicKind::kNaiveRule, 0.25},
  };
}

LadderResult RunDegradationLadder(const Table& input, const Table& goal,
                                  const LadderOptions& options) {
  LadderResult result;

  std::vector<LadderRung> rungs = options.rungs;
  if (rungs.empty()) rungs.push_back(LadderRung{});

  // Track the best (lowest-h) partial answer across every truncated rung.
  // A later, cheaper rung can still improve it: its heuristic is weaker
  // but its search explores different states.
  bool definitive_failure = false;  // A rung exhausted its space cleanly.

  for (size_t rung_index = 0; rung_index < rungs.size(); ++rung_index) {
    if (options.cancel != nullptr && options.cancel->IsCancelled()) break;

    const LadderRung& rung = rungs[rung_index];
    SearchOptions search = options.base;
    if (search.num_threads == 0) search.num_threads = 1;
    search.heuristic = rung.heuristic;
    search.node_budget =
        ScaleBudget(options.base.node_budget, rung.budget_scale);
    search.memory_budget =
        ScaleBudget(options.base.memory_budget, rung.budget_scale);
    search.timeout_ms =
        ScaleTimeout(options.base.timeout_ms, rung.budget_scale);

    // Fresh token per rung: budgets charged by one rung must not poison
    // the next (tokens are single-shot), while the request deadline caps
    // every rung equally.
    CancellationToken rung_token;
    if (options.deadline.has_value()) {
      rung_token.TightenDeadline(*options.deadline);
    }
    search.cancel = &rung_token;

    LadderAttempt attempt;
    attempt.heuristic = rung.heuristic;
    attempt.node_budget = search.node_budget;
    attempt.memory_budget = search.memory_budget;
    attempt.timeout_ms = search.timeout_ms;

    FOOFAH_FAULT_HIT(fault_points::kLadderRungStart);
    if (options.on_rung_token) {
      options.on_rung_token(static_cast<int>(rung_index), &rung_token, true);
    }
    SearchResult search_result = SynthesizeProgram(input, goal, search);
    if (options.on_rung_token) {
      options.on_rung_token(static_cast<int>(rung_index), &rung_token, false);
    }

    attempt.found = search_result.found;
    attempt.truncated = Truncated(search_result.stats);
    attempt.stats = search_result.stats;
    result.attempts.push_back(attempt);

    if (search_result.found) {
      result.found = true;
      result.program = std::move(search_result.program);
      result.winning_rung = static_cast<int>(rung_index);
      break;
    }
    if (search_result.anytime.available &&
        (!result.anytime.available ||
         search_result.anytime.h < result.anytime.h)) {
      result.anytime = std::move(search_result.anytime);
    }
    // An external cancel of the rung token is the request token fired
    // through the publish hook: stop descending, the caller is gone.
    if (search_result.stats.cancelled) break;
    if (!attempt.truncated) {
      // The rung exhausted the state space without an answer: the goal is
      // unreachable with this operator library, and a cheaper heuristic
      // cannot make it reachable. Stop descending.
      definitive_failure = true;
      break;
    }
    // Truncated: descend to the next (cheaper) rung.
  }

  // Typed outcome.
  if (result.found) {
    result.anytime = AnytimeResult{};  // A program makes partials moot.
    result.status = Status::OK();
    return result;
  }
  if (options.cancel != nullptr && options.cancel->IsCancelled()) {
    result.status = StatusFromCancelReason(options.cancel->reason(), "ladder");
    return result;
  }
  if (!result.attempts.empty() && result.attempts.back().stats.cancelled) {
    result.status = Status::Cancelled("ladder: cancelled mid-rung");
    return result;
  }
  if (definitive_failure) {
    result.status = Status::NotFound(
        "ladder: no program exists within the operator library");
    return result;
  }
  result.status = Status::ResourceExhausted(
      "ladder: all " + std::to_string(result.attempts.size()) +
      " rungs truncated" +
      (result.anytime.available ? " (anytime partial available)" : ""));
  return result;
}

}  // namespace foofah
