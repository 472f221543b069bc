#include "search/search.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <queue>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "heuristic/edit_op.h"
#include "heuristic/heuristic_cache.h"
#include "ops/enumerate.h"
#include "ops/operators.h"
#include "search/guide.h"
#include "search/trace.h"
#include "table/table_diff.h"
#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace foofah {

const char* SearchStrategyName(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::kAStar:
      return "astar";
    case SearchStrategy::kBfs:
      return "bfs";
  }
  return "unknown";
}

std::string SearchStats::ToString() const {
  std::ostringstream out;
  out << "expanded=" << nodes_expanded << " generated=" << nodes_generated
      << " tried=" << candidates_tried << " pruned=" << total_pruned()
      << " dup=" << duplicates_skipped << " elapsed_ms=" << elapsed_ms;
  if (heuristic_cache_hits + heuristic_cache_misses > 0) {
    out << " hcache=" << heuristic_cache_hits << "/"
        << (heuristic_cache_hits + heuristic_cache_misses);
  }
  if (guided_expansions > 0 || guidance_fallbacks > 0) {
    out << " guided=" << guided_expansions << "/" << nodes_expanded
        << " deferred=" << guidance_deferred
        << (guided_win ? " GUIDED_WIN" : "")
        << (guidance_fallbacks > 0 ? " FALLBACK" : "");
  }
  if (timed_out) out << " TIMEOUT";
  if (timed_out && overshoot_ms > 0) out << " overshoot_ms=" << overshoot_ms;
  if (budget_exhausted) out << " BUDGET";
  if (cancelled) out << " CANCELLED";
  return out.str();
}

namespace {

/// One vertex of the state space graph, linked to its parent so the program
/// can be reconstructed once the goal is reached.
struct Node {
  Table table;
  int parent = -1;  ///< Index into the node arena; -1 for the root.
  Operation via;    ///< Arc from the parent (meaningless for the root).
  uint32_t depth = 0;  ///< g(n): operations from the initial state.
};

/// Exact-membership state set: hash buckets with full-table comparison, so
/// hash collisions can never merge distinct states.
class StateSet {
 public:
  explicit StateSet(const std::vector<Node>* arena) : arena_(arena) {}

  /// Returns true and records `table` (by node index) when unseen.
  bool Insert(const Table& table, int node_index) {
    uint64_t hash = table.Hash();
    auto [it, inserted] = buckets_.try_emplace(hash);
    if (!inserted) {
      for (int existing : it->second) {
        if ((*arena_)[existing].table.ContentEquals(table)) return false;
      }
    }
    it->second.push_back(node_index);
    return true;
  }

 private:
  const std::vector<Node>* arena_;
  std::unordered_map<uint64_t, std::vector<int>> buckets_;
};

Program ReconstructProgram(const std::vector<Node>& arena, int leaf) {
  std::vector<Operation> operations;
  for (int i = leaf; arena[i].parent >= 0; i = arena[i].parent) {
    operations.push_back(arena[i].via);
  }
  std::reverse(operations.begin(), operations.end());
  return Program(std::move(operations));
}

/// Frontier entry for the A* priority queue. Lower f wins; ties prefer the
/// deeper node (largest g), which reaches goals sooner with unit arc costs;
/// remaining ties resolve by insertion order for determinism.
struct OpenEntry {
  double f;
  uint32_t depth;
  uint64_t seq;
  int node;

  friend bool operator>(const OpenEntry& a, const OpenEntry& b) {
    if (a.f != b.f) return a.f > b.f;
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.seq > b.seq;
  }
};

/// How a candidate's side-effect-free evaluation ended. Everything here is
/// computable from (parent state, candidate, goal) alone, which is what
/// lets phase 2 of the expansion run on worker threads.
enum class CandidateFate : uint8_t {
  kPrunedBefore,  ///< Rejected by the pre-apply rule.
  kApplyFailed,   ///< Operation parameters out of domain.
  kOversize,      ///< Child exceeds max_state_cells.
  kPrunedAfter,   ///< Rejected by a post-apply §4.3 rule.
  kDeferred,      ///< Guided phase: survived and goal-tested (not a goal),
                  ///< but the guide deferred it — no estimate, no push.
  kEvaluated,     ///< Child survived; `child` (and maybe `h`) are set.
};

/// Whether an estimate was served from the heuristic memo.
enum class CacheOutcome : uint8_t { kNone = 0, kHit, kMiss };

/// Per-candidate result slot. The parallel engine fans evaluation out into
/// these (one per candidate, index-addressed, no sharing), then replays
/// the slots serially in candidate order so every frontier push, counter
/// increment and observer callback happens exactly as in the serial
/// engine.
struct CandidateOutcome {
  CandidateFate fate = CandidateFate::kApplyFailed;
  PruneReason reason = PruneReason::kKept;  ///< For the pruned fates.
  Table child;                              ///< For kEvaluated.
  bool is_goal = false;
  bool has_h = false;  ///< True when `h` was precomputed in phase 2.
  double h = 0;
  CacheOutcome cache_outcome = CacheOutcome::kNone;
  /// True once evaluation ran to a definitive fate. Stays false for slots
  /// a fired CancellationToken abandoned (never dispatched, or
  /// interrupted mid-estimate); such slots hold garbage and the
  /// cancellation replay skips them.
  bool complete = false;
};

/// One single-phase search run: the entire pre-guidance SynthesizeProgram
/// algorithm, plus an optional candidate guide whose deferrals shrink the
/// explored subgraph (see search/guide.h). The staged wrapper below
/// composes two of these runs — guided then exact — into the public
/// SynthesizeProgram; `options.guidance` is intentionally ignored here.
SearchResult RunSearch(const Table& input, const Table& goal,
                       const SearchOptions& options,
                       const CandidateGuide* guide) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  auto elapsed_ms = [&start]() {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };

  SearchResult result;

  // Cooperative stop: the caller's shared token when given, else a private
  // one armed only when a timeout applies. `cancel` stays null when
  // neither exists, keeping the unlimited configuration (timeout_ms == 0,
  // e.g. the thread-count determinism tests) completely clock-free.
  // Tightening (rather than overwriting) the deadline composes a caller's
  // protocol-wide budget with the per-search timeout: the stricter wins.
  CancellationToken owned_token;
  CancellationToken* cancel = options.cancel;
  const bool needs_token = options.timeout_ms > 0 ||
                           options.node_budget > 0 ||
                           options.memory_budget > 0;
  if (cancel == nullptr && needs_token) cancel = &owned_token;
  if (cancel != nullptr && options.timeout_ms > 0) {
    cancel->TightenDeadlineAfterMs(options.timeout_ms);
  }
  // Budget plumbing: nonzero option budgets are armed on the token (and
  // override a shared token's own budgets — callers picking per-search
  // budgets, like the degradation ladder, pass a fresh token per run).
  if (cancel != nullptr && options.node_budget > 0) {
    cancel->SetNodeBudget(options.node_budget);
  }
  if (cancel != nullptr && options.memory_budget > 0) {
    cancel->SetMemoryBudget(options.memory_budget);
  }
  // Maps the token's stop reason onto the stats flags. Call only after
  // IsCancelled() returned true (reason() does not poll the clock).
  auto note_cancel = [&]() {
    if (cancel == nullptr) return;
    switch (cancel->reason()) {
      case CancelReason::kDeadline:
        result.stats.timed_out = true;
        result.stats.overshoot_ms = cancel->OvershootMs();
        break;
      case CancelReason::kExternal:
        result.stats.cancelled = true;
        break;
      case CancelReason::kNodeBudget:
      case CancelReason::kMemoryBudget:
      case CancelReason::kDiskBudget:
        result.stats.budget_exhausted = true;
        break;
      case CancelReason::kNone:
        break;
    }
  };

  OperatorRegistry default_registry = OperatorRegistry::Default();
  const OperatorRegistry& registry =
      options.registry != nullptr ? *options.registry : default_registry;
  std::unique_ptr<Heuristic> heuristic = MakeHeuristic(options.heuristic);
  const GoalCharSets goal_chars = GoalCharSets::From(goal);

  // Heuristic memo: external when the caller shares one across searches,
  // otherwise private to this run. Keyed by goal hash too, so a shared
  // cache never leaks estimates between goals.
  std::unique_ptr<HeuristicCache> owned_cache;
  HeuristicCache* cache = nullptr;
  if (options.cache_heuristic &&
      options.strategy == SearchStrategy::kAStar) {
    cache = options.heuristic_cache;
    if (cache == nullptr) {
      owned_cache =
          std::make_unique<HeuristicCache>(options.heuristic_cache_capacity);
      cache = owned_cache.get();
    }
  }
  const uint64_t goal_hash = goal.Hash();

  // Expansion pool: created once per search. num_threads == 1 (or a
  // 1-core machine under the 0 = auto default) takes the serial path.
  const int num_threads = options.num_threads > 0
                              ? options.num_threads
                              : ThreadPool::DefaultThreadCount();
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);

  // Error-tolerant mode: a mistaken example cell may contain (or lack)
  // characters no reachable state can supply, so the content-based global
  // rules and the infinite-heuristic cutoffs must be relaxed — otherwise
  // every path to a near-goal would be discarded.
  const bool tolerant = options.goal_tolerance > 0;
  PruningConfig pruning = options.pruning;
  if (tolerant) {
    pruning.missing_alphanumerics = false;
    pruning.novel_symbols = false;
  }
  // Finite stand-in for an infinite estimate in tolerant mode: worse than
  // any realistic program length, but still explorable.
  const double infeasible_estimate =
      static_cast<double>(goal.num_cells()) + 8.0;
  // Thread-safe (the memo is sharded and locked; heuristics are stateless).
  auto estimate = [&](const Table& state, CacheOutcome* outcome) {
    double h;
    FOOFAH_FAULT_HIT(fault_points::kHeuristicEstimate);
    if (cache != nullptr) {
      const uint64_t state_hash = state.Hash();
      // Shape fingerprint rides along as a collision check: a memo entry
      // whose fingerprint disagrees was written by a hash-colliding state
      // — or by a content-equal table with a different stored width,
      // whose estimate legitimately differs — and must not steer this
      // one. Keeping the memo keyed by the exact stored shape is what
      // makes cached estimates pure, and the search thread-count
      // deterministic (the engines populate the memo in different
      // orders).
      const uint64_t checksum = state.ShapeFingerprint();
      if (std::optional<double> memo =
              cache->Lookup(state_hash, goal_hash, checksum)) {
        if (outcome != nullptr) *outcome = CacheOutcome::kHit;
        h = *memo;
      } else {
        h = heuristic->Estimate(state, goal, cancel);
        // A fired token makes the estimate garbage mid-DP: never let it
        // poison the memo — cached estimates must stay pure functions of
        // the key. The insert fault point models a failed/evicted insert,
        // which likewise silently skips (the cache is an accelerator, so
        // results must not change — the fault sweep asserts exactly that).
        if (cancel == nullptr || !cancel->IsCancelled()) {
          if (!FOOFAH_FAULT_FAIL(fault_points::kHeuristicCacheInsert)) {
            cache->Insert(state_hash, goal_hash, checksum, h);
          }
          if (outcome != nullptr) *outcome = CacheOutcome::kMiss;
        }
      }
    } else {
      h = heuristic->Estimate(state, goal, cancel);
    }
    if (h == kInfiniteCost && tolerant) return infeasible_estimate;
    return h;
  };
  auto count_cache_outcome = [&](CacheOutcome outcome) {
    if (outcome == CacheOutcome::kHit) ++result.stats.heuristic_cache_hits;
    if (outcome == CacheOutcome::kMiss) ++result.stats.heuristic_cache_misses;
  };

  std::vector<Node> arena;
  StateSet seen(&arena);

  arena.push_back(Node{input, -1, Operation{}, 0});
  seen.Insert(input, 0);

  if (input.ContentEquals(goal)) {
    result.found = true;  // Empty program.
    result.alternatives.push_back(result.program);
    result.stats.elapsed_ms = elapsed_ms();
    return result;
  }

  auto record_solution = [&](int goal_node) {
    Program program = ReconstructProgram(arena, goal_node);
    for (const Program& existing : result.alternatives) {
      if (existing == program) return;
    }
    result.alternatives.push_back(std::move(program));
  };
  auto enough_solutions = [&]() {
    return static_cast<int>(result.alternatives.size()) >=
           std::max(1, options.max_solutions);
  };
  // Anytime bookkeeping (A* only — BFS carries no h): the frontier node
  // with the strictly lowest heuristic estimate seen so far. Node 0 with
  // best_h == root h means "no state beat the input yet".
  double root_h = 0;
  double best_anytime_h = 0;
  int best_anytime_node = 0;

  auto finalize = [&]() {
    if (!result.alternatives.empty()) {
      result.found = true;
      result.program = result.alternatives.front();
    }
    // A premature stop surrenders the frontier as an anytime result: the
    // path to the explored state judged closest to the goal, plus the
    // residual diff the §4.5 loop can decompose. Requires strict progress
    // (h < root h) so the "partial program" is never the empty one.
    if (!result.found && best_anytime_node != 0 &&
        (result.stats.timed_out || result.stats.budget_exhausted ||
         result.stats.cancelled)) {
      result.anytime.available = true;
      result.anytime.program = ReconstructProgram(arena, best_anytime_node);
      result.anytime.table = arena[best_anytime_node].table;
      result.anytime.h = best_anytime_h;
      result.anytime.input_h = root_h;
      result.anytime.residual =
          DiffTables(goal, result.anytime.table, /*max_cell_diffs=*/64);
    }
    result.stats.elapsed_ms = elapsed_ms();
    return result;
  };

  // Frontier: a priority queue for A*, a FIFO for BFS.
  std::priority_queue<OpenEntry, std::vector<OpenEntry>, std::greater<>>
      astar_open;
  std::deque<int> bfs_open;
  uint64_t seq = 0;

  auto push = [&](int node, double h) {
    if (options.strategy == SearchStrategy::kAStar) {
      // Strict improvement + serial push order make the anytime pick
      // deterministic at any thread count (pushes happen in replay order).
      if (h < best_anytime_h) {
        best_anytime_h = h;
        best_anytime_node = node;
      }
      astar_open.push(OpenEntry{
          arena[node].depth + options.heuristic_weight * h,
          arena[node].depth, seq++, node});
    } else {
      bfs_open.push_back(node);
    }
  };
  auto pop = [&]() -> int {
    if (options.strategy == SearchStrategy::kAStar) {
      int node = astar_open.top().node;
      astar_open.pop();
      return node;
    }
    int node = bfs_open.front();
    bfs_open.pop_front();
    return node;
  };
  auto frontier_empty = [&]() {
    return options.strategy == SearchStrategy::kAStar ? astar_open.empty()
                                                      : bfs_open.empty();
  };

  {
    CacheOutcome outcome = CacheOutcome::kNone;
    double h0 = options.strategy == SearchStrategy::kAStar
                    ? estimate(input, &outcome)
                    : 0;
    if (cancel != nullptr && cancel->IsCancelled()) {
      // The very first estimate outran the deadline. Report the stop
      // reason instead of misreading the garbage h0 as unreachable.
      note_cancel();
      return finalize();
    }
    count_cache_outcome(outcome);
    if (h0 == kInfiniteCost) {
      // The goal needs information the input does not contain; no
      // transformation in this framework can reach it.
      result.stats.elapsed_ms = elapsed_ms();
      return result;
    }
    root_h = h0;
    best_anytime_h = h0;
    push(0, h0);
  }

  // ---- Phase 2: evaluate one candidate without side effects — prune,
  // apply, size-filter, goal-test, and (in the parallel engine) estimate.
  // Reads only search-constant state plus the owning expansion's parent
  // facts; writes only its own slot, so every candidate of one expansion
  // can evaluate concurrently.
  auto evaluate = [&](const Table& state, const ParentContext& parent_context,
                      const Operation& candidate, bool compute_h,
                      bool deferred, CandidateOutcome& out) {
    // A fired token abandons the slot: `complete` stays false and the
    // cancellation replay skips it.
    if (cancel != nullptr && cancel->IsCancelled()) return;

    PruneReason reason = PruneBeforeApply(state, candidate, pruning);
    if (reason != PruneReason::kKept) {
      out.fate = CandidateFate::kPrunedBefore;
      out.reason = reason;
      out.complete = true;
      return;
    }

    Result<Table> applied = ApplyOperation(state, candidate);
    if (!applied.ok()) {
      out.fate = CandidateFate::kApplyFailed;
      out.complete = true;
      return;
    }
    Table child = std::move(applied).value();

    if (child.num_cells() > options.max_state_cells) {
      out.fate = CandidateFate::kOversize;
      out.complete = true;
      return;
    }

    reason = PruneAfterApply(parent_context, child, candidate, goal_chars,
                             pruning);
    if (reason != PruneReason::kKept) {
      out.fate = CandidateFate::kPrunedAfter;
      out.reason = reason;
      out.complete = true;
      return;
    }

    // Goal test at generation time (§4.1: "If no child of v0 happens to
    // be the goal state ..."): with unit arc costs, the first goal child
    // found along the best-first order is the answer. With a non-zero
    // tolerance, a same-shape state within that many differing cells
    // also counts (the §7 error-tolerant mode).
    bool is_goal = child.ContentEquals(goal);
    if (!is_goal && options.goal_tolerance > 0 &&
        child.num_rows() == goal.num_rows() &&
        child.num_cols() == goal.num_cols()) {
      TableDiff diff = DiffTables(goal, child, options.goal_tolerance + 1);
      is_goal = diff.cell_diffs.size() <= options.goal_tolerance;
    }
    out.is_goal = is_goal;

    // Guided phase: the candidate was pruned, applied and goal-tested
    // exactly as the exact search would — so within-expansion goal
    // discovery order is untouched — but its child is neither estimated
    // (the expensive TED dynamic program) nor kept.
    if (deferred && !is_goal) {
      out.fate = CandidateFate::kDeferred;
      out.complete = true;
      return;
    }

    if (compute_h && !is_goal &&
        options.strategy == SearchStrategy::kAStar) {
      // Parallel engine: estimate before deduplication (the memo makes
      // the duplicate case cheap). The estimate is a pure function of
      // the child, so evaluating it for a child the serial replay later
      // drops as a duplicate cannot change any outcome.
      out.h = estimate(child, &out.cache_outcome);
      // Interrupted mid-DP: out.h is garbage. Leave the slot incomplete.
      if (cancel != nullptr && cancel->IsCancelled()) return;
      out.has_h = true;
    }
    out.child = std::move(child);
    out.fate = CandidateFate::kEvaluated;
    out.complete = true;
  };

  // ---- Phase 3: replay one evaluated slot — every mutation of the
  // search state (arena, seen-set, frontier, stats, observer) happens
  // here, on the expansion thread, in candidate order.
  // `current` is the node whose expansion produced the slot. Returns
  // false when the search is done (enough solutions / generation budget).
  auto replay = [&](int current, const Operation& candidate,
                    CandidateOutcome& out) -> bool {
    ++result.stats.candidates_tried;
    switch (out.fate) {
      case CandidateFate::kPrunedBefore:
      case CandidateFate::kPrunedAfter:
        ++result.stats.pruned_by_reason[static_cast<int>(out.reason)];
        if (options.observer != nullptr) {
          options.observer->OnPrune(current, candidate, out.reason);
        }
        return true;
      case CandidateFate::kApplyFailed:
        ++result.stats.apply_failures;
        return true;
      case CandidateFate::kOversize:
        ++result.stats.oversize_skipped;
        return true;
      case CandidateFate::kDeferred:
        ++result.stats.guidance_deferred;
        return true;
      case CandidateFate::kEvaluated:
        break;
    }

    int child_index = static_cast<int>(arena.size());
    if (!out.is_goal && options.deduplicate_states &&
        !seen.Insert(out.child, child_index)) {
      ++result.stats.duplicates_skipped;
      if (options.observer != nullptr) {
        options.observer->OnDuplicate(current, candidate);
      }
      return true;
    }

    arena.push_back(Node{std::move(out.child), current, candidate,
                         arena[current].depth + 1});
    ++result.stats.nodes_generated;
    if (cancel != nullptr) {
      // Approximate retained footprint of the kept state. The CoW
      // substrate shares row storage between parent and child, so this
      // intentionally over-counts; the memory budget is a blowup guard,
      // not an accountant.
      cancel->ChargeMemory(64 + 32 * arena.back().table.num_cells());
    }

    if (out.is_goal) {
      if (options.observer != nullptr) {
        options.observer->OnGenerate(child_index, current, candidate, 0,
                                     /*is_goal=*/true);
      }
      record_solution(child_index);
      // Goal states are terminal: do not expand past them.
      return !enough_solutions();
    }

    if (options.max_generated > 0 &&
        result.stats.nodes_generated >= options.max_generated) {
      result.stats.budget_exhausted = true;
      return false;
    }

    double h = 0;
    if (options.strategy == SearchStrategy::kAStar) {
      if (out.has_h) {
        h = out.h;
      } else {
        // Serial engine: estimate after deduplication, exactly as the
        // legacy single-threaded loop did.
        h = estimate(arena[child_index].table, &out.cache_outcome);
        if (cancel != nullptr && cancel->IsCancelled()) {
          // The estimate is garbage. Keep the child off the frontier
          // (it already sits in the arena/seen-set, which is harmless)
          // and let the caller observe the stop.
          return true;
        }
      }
      count_cache_outcome(out.cache_outcome);
    }
    if (options.observer != nullptr) {
      options.observer->OnGenerate(child_index, current, candidate, h,
                                   /*is_goal=*/false);
    }
    if (h == kInfiniteCost) return true;  // Goal unreachable from child.
    push(child_index, h);
    return true;
  };

  // Reused per expansion; slots are index-addressed so phase 2 threads
  // never share one.
  std::vector<CandidateOutcome> outcomes;

  while (!frontier_empty()) {
    // The token subsumes the old between-rounds elapsed check (it owns the
    // deadline whenever timeout_ms > 0) and additionally fires mid-round:
    // per candidate, per parallel slot, and inside the TED inner loops.
    if (cancel != nullptr && cancel->IsCancelled()) {
      note_cancel();
      break;
    }
    if (options.max_expansions > 0 &&
        result.stats.nodes_expanded >= options.max_expansions) {
      result.stats.budget_exhausted = true;
      break;
    }

    const int current = pop();
    ++result.stats.nodes_expanded;
    if (cancel != nullptr && cancel->CountNode()) {
      note_cancel();
      break;
    }
    if (options.observer != nullptr) {
      options.observer->OnExpand(current, arena[current].table,
                                 arena[current].depth);
    }

    // ---- Phase 1 (serial): enumerate candidate arcs out of this state.
    // Snapshot: arena may reallocate while children are appended. Under
    // the copy-on-write substrate this is an O(1) handle copy — no cells
    // are cloned, and the pool workers read the shared immutable rows.
    const Table state = arena[current].table;
    std::vector<Operation> candidates =
        EnumerateCandidates(state, goal, registry);
    // Parent facts (symbol bitmap, empty-column count) are shared by
    // every candidate's pruning checks.
    const ParentContext parent_context = ParentContext::From(state);
    // Guided phase: the defer mask is computed serially at expansion
    // time — the guide sees the exact enumeration order — and is
    // read-only afterwards, so both evaluation engines share it safely.
    std::vector<uint8_t> defer;
    if (guide != nullptr) {
      defer.assign(candidates.size(), 0);
      const Operation* via =
          arena[current].parent >= 0 ? &arena[current].via : nullptr;
      guide->Partition(state, goal, via, candidates, &defer);
    }

    if (pool != nullptr && candidates.size() > 1) {
      outcomes.assign(candidates.size(), CandidateOutcome{});
      pool->ParallelFor(
          candidates.size(),
          [&](size_t i) {
            evaluate(state, parent_context, candidates[i],
                     /*compute_h=*/true,
                     /*deferred=*/!defer.empty() && defer[i] != 0,
                     outcomes[i]);
          },
          cancel);
      if (cancel != nullptr && cancel->IsCancelled()) {
        // Salvage the fully evaluated slots — in candidate order, so the
        // replays stay deterministic — to enrich the anytime frontier,
        // then stop. Abandoned/interrupted slots hold garbage; skip them.
        for (size_t i = 0; i < candidates.size(); ++i) {
          if (!outcomes[i].complete) continue;
          if (!replay(current, candidates[i], outcomes[i])) {
            return finalize();
          }
        }
        note_cancel();
        break;
      }
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (!replay(current, candidates[i], outcomes[i])) {
          return finalize();
        }
      }
    } else {
      CandidateOutcome out;
      for (size_t i = 0; i < candidates.size(); ++i) {
        const Operation& candidate = candidates[i];
        // Per-candidate poll: a deadline interrupts mid-round instead of
        // waiting for the next expansion (the loop head notes the reason).
        if (cancel != nullptr && cancel->IsCancelled()) break;
        out = CandidateOutcome{};
        evaluate(state, parent_context, candidate, /*compute_h=*/false,
                 /*deferred=*/!defer.empty() && defer[i] != 0, out);
        if (!out.complete) break;  // Interrupted mid-evaluation.
        if (!replay(current, candidate, out)) return finalize();
      }
    }
  }

  return finalize();
}

}  // namespace

SearchResult SynthesizeProgram(const Table& input, const Table& goal,
                               const SearchOptions& options) {
  // Unguided — and multi-solution: alternatives enumeration wants the
  // full exact graph, so staging (which stops at the first guided hit)
  // would change which alternatives surface. One exact run, exactly the
  // pre-guidance algorithm.
  if (options.guidance == nullptr || options.max_solutions > 1) {
    return RunSearch(input, goal, options, nullptr);
  }

  // ---- Staged guided search ----
  //
  // Phase A runs with the guide's deferrals under a small expansion cap;
  // a hit returns the same program the exact search finds (the guide
  // defers, never reorders, so within-expansion goal discovery is
  // untouched — the guidance differential suite enforces byte identity).
  // A miss falls back to phase B: the untouched exact search, preserving
  // completeness and the paper's semantics.
  //
  // The phases share ONE cancellation token and ONE heuristic memo. The
  // token carries only the wall-clock deadline (tightened once, then the
  // per-phase timeout is zeroed, so the pair can never double-spend a
  // timeout) and any external cancel. Node budgets are deliberately NOT
  // armed during the guided phase: the token is single-shot and its node
  // counter is cumulative, so a phase-A budget trip would latch the token
  // and poison the fallback. Phase A is bounded by plain counters instead
  // (its expansion cap plus the caller's max_generated); phase B re-arms
  // the caller's full node/memory budgets, credited by phase A's token
  // charges so the fallback's grant is not docked by the guided spend.
  // (Memory stays armed in phase A too — it guards the machine — and the
  // credit is sound because phase A's frontier is freed before phase B
  // allocates, so the peak per phase never exceeds the caller's cap.)
  // Under any budget, enabling guidance can only add solves, never
  // regress them. The memo carries phase-A estimates into phase B, which
  // re-explores an overlapping subgraph.
  SearchOptions base = options;
  base.guidance = nullptr;

  CancellationToken staged_token;
  CancellationToken* cancel = base.cancel;
  if (cancel == nullptr && base.timeout_ms > 0) cancel = &staged_token;
  if (cancel != nullptr) {
    if (base.timeout_ms > 0) cancel->TightenDeadlineAfterMs(base.timeout_ms);
    base.cancel = cancel;
    base.timeout_ms = 0;
  }

  std::unique_ptr<HeuristicCache> staged_cache;
  if (base.cache_heuristic && base.strategy == SearchStrategy::kAStar &&
      base.heuristic_cache == nullptr) {
    staged_cache =
        std::make_unique<HeuristicCache>(base.heuristic_cache_capacity);
    base.heuristic_cache = staged_cache.get();
  }

  SearchOptions guided = base;
  // With a shared token the guided phase must not arm a node budget (the
  // trip would latch; see above) — its expansion cap bounds it instead.
  // Without one, each phase gets its own owned token inside the engine,
  // so the caller's node budget safely bounds the guided phase too.
  if (cancel != nullptr) guided.node_budget = 0;
  const uint64_t guided_cap = options.guided_max_expansions > 0
                                  ? options.guided_max_expansions
                                  : 1'024;
  guided.max_expansions = base.max_expansions > 0
                              ? std::min(base.max_expansions, guided_cap)
                              : guided_cap;
  // Generation, not expansion, dominates search cost, so the guided phase
  // also gets a staged generated-state budget: a miss burns at most this
  // many kept states before the fallback reruns with the caller's full cap.
  const uint64_t guided_gen_cap = options.guided_max_generated > 0
                                      ? options.guided_max_generated
                                      : 4'096;
  guided.max_generated = base.max_generated > 0
                             ? std::min(base.max_generated, guided_gen_cap)
                             : guided_gen_cap;

  SearchResult first = RunSearch(input, goal, guided, options.guidance);
  first.stats.guided_expansions = first.stats.nodes_expanded;
  if (first.found) {
    first.stats.guided_win = true;
    return first;
  }
  // A shared-budget stop ends the whole staged search — the fallback
  // would instantly observe the fired token. The guided phase's own
  // expansion cap also reports budget_exhausted, so only the token (not
  // the flag) distinguishes a real caller budget.
  if (first.stats.timed_out || first.stats.cancelled ||
      (cancel != nullptr && cancel->IsCancelled())) {
    return first;
  }

  // Credit phase A's cumulative token charges back so the budgets
  // RunSearch arms on the shared token grant phase B its full allowance.
  if (cancel != nullptr) {
    if (base.node_budget > 0) base.node_budget += cancel->nodes_charged();
    if (base.memory_budget > 0) {
      base.memory_budget += cancel->memory_charged();
    }
  }
  SearchResult second = RunSearch(input, goal, base, nullptr);

  // Merge the guided phase's spend into the fallback's stats so callers
  // see the true total cost of the staged search.
  SearchStats& s = second.stats;
  const SearchStats& g = first.stats;
  s.guided_expansions = g.nodes_expanded;
  s.guidance_deferred += g.guidance_deferred;
  s.guidance_fallbacks = 1;
  s.nodes_expanded += g.nodes_expanded;
  s.nodes_generated += g.nodes_generated;
  s.candidates_tried += g.candidates_tried;
  s.duplicates_skipped += g.duplicates_skipped;
  s.oversize_skipped += g.oversize_skipped;
  s.apply_failures += g.apply_failures;
  for (int i = 0; i < kNumPruneReasons; ++i) {
    s.pruned_by_reason[i] += g.pruned_by_reason[i];
  }
  s.heuristic_cache_hits += g.heuristic_cache_hits;
  s.heuristic_cache_misses += g.heuristic_cache_misses;
  s.elapsed_ms += g.elapsed_ms;
  return second;
}

}  // namespace foofah
