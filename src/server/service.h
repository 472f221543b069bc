#ifndef FOOFAH_SERVER_SERVICE_H_
#define FOOFAH_SERVER_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "server/ladder.h"
#include "table/table.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace foofah {

/// Configuration of a SynthesisService.
struct ServiceOptions {
  /// Worker threads executing admitted requests. Values < 1 become 1.
  int num_workers = 4;

  /// Admission bound: the maximum number of admitted-but-not-yet-completed
  /// requests (queued + executing). Submissions beyond it are shed with a
  /// typed kUnavailable + retry-after hint instead of queuing unboundedly.
  size_t queue_capacity = 16;

  /// Admission memory budget: the sum of EstimateRequestBytes over all
  /// admitted-but-not-completed requests may not exceed this; submissions
  /// that would are shed. 0 disables. This bounds the service's retained
  /// request footprint under a flood of large tables even when the queue
  /// has slots.
  uint64_t max_inflight_bytes = 256u << 20;  // 256 MiB

  /// Base of the retry-after hint attached to shed responses; the hint is
  /// base * (outstanding requests + 1), so clients back off harder the
  /// deeper the overload.
  int64_t retry_after_base_ms = 25;

  /// Deadline applied to requests that do not carry their own; 0 = none.
  int64_t default_deadline_ms = 2'000;

  /// The degradation descent applied to every admitted request (see
  /// server/ladder.h). Requests can opt out via allow_degradation.
  std::vector<LadderRung> rungs = DefaultLadderRungs();

  /// Rung-0 search configuration (heuristic overridden per rung). Its
  /// num_threads of 0 is normalized to 1 — service parallelism comes from
  /// workers, not intra-search threads, which keeps per-request results
  /// independent of the worker count. When a request carries a deadline,
  /// the remaining time at dispatch is split across rungs proportionally
  /// to their budget_scale (never exceeding this timeout_ms when set).
  SearchOptions base_search;

  /// Path to a learned guidance snapshot (learn/snapshot.h), loaded once
  /// at construction — the warm-replica boot artifact. A loaded snapshot
  /// installs (a) a GuidancePolicy on base_search.guidance, so every rung
  /// search runs the staged guided-then-exact descent, (b) a heuristic
  /// memo pre-warmed with the snapshot's persisted estimates, shared by
  /// all workers, and (c) a program-result cache consulted before any
  /// search (hits are replay-validated against the actual request tables
  /// before being served). Empty = unguided. Load failures NEVER fail
  /// construction: the service degrades to exactly the unguided behavior
  /// and records the typed error in snapshot_status().
  std::string snapshot_path;
};

/// One synthesis request: an example pair plus per-request budgets.
struct SynthesisRequest {
  Table input;
  Table output;
  /// Wall-clock deadline from *submission* (queueing counts against it);
  /// 0 uses ServiceOptions::default_deadline_ms.
  int64_t deadline_ms = 0;
  /// Per-request overrides of the base search budgets; 0 keeps the base.
  uint64_t node_budget = 0;
  uint64_t memory_budget = 0;
  /// When false, only rung 0 runs — a budget-exhausted request fails
  /// typed (with any anytime partial) instead of retrying cheaper.
  bool allow_degradation = true;
  /// Free-form caller label echoed into the response, for logs.
  std::string tag;
};

/// Typed response: every submitted request gets exactly one, within its
/// deadline — a program, an anytime partial, or a typed rejection.
struct ServiceResponse {
  /// OK (program found, possibly degraded — check winning_rung);
  /// kUnavailable (shed at admission / dispatch dropped / shutdown; see
  /// retry_after_ms); kCancelled (Ticket::Cancel); kResourceExhausted
  /// (deadline or budgets spent, possibly with an anytime partial);
  /// kNotFound (search space exhausted: no program exists);
  /// kInvalidArgument (malformed request).
  Status status;
  bool found = false;
  Program program;
  /// Ladder rung that produced `program` (0 = full strength); -1 if none.
  int winning_rung = -1;
  /// Best partial program across truncated rungs when !found.
  AnytimeResult anytime;
  /// Per-rung attempt metadata (empty for requests that never ran).
  std::vector<LadderAttempt> attempts;
  /// For kUnavailable only: suggested client backoff before retrying,
  /// scaled by the observed overload (see util/retry.h to consume it).
  int64_t retry_after_ms = 0;
  /// Milliseconds spent queued / executing (0 for shed requests).
  double queue_ms = 0;
  double run_ms = 0;
  /// The program came from the snapshot's persisted result cache (replay-
  /// validated, no search ran). attempts is empty in that case.
  bool served_from_cache = false;
  /// Per-request guidance telemetry, summed over the rung attempts: how
  /// many expansions the guided phases spent, whether any rung's program
  /// came from its guided phase, and whether any rung fell back to the
  /// exact search. All zero when the service runs unguided.
  uint64_t guided_expansions = 0;
  bool guided_win = false;
  uint32_t guidance_fallbacks = 0;
  /// Echo of SynthesisRequest::tag.
  std::string tag;
};

/// A library-level synthesis service: multiplexes many concurrent
/// requests over the synthesis engine with bounded admission, load
/// shedding, per-request deadlines wired into CancellationTokens, and a
/// graceful-degradation ladder — the robustness layer that turns "one
/// caller, unbounded search" into "many callers, every answer typed and
/// bounded".
///
/// Threading: Submit/Synthesize/Shutdown/stats are safe from any thread.
/// Each admitted request executes on exactly one worker with
/// single-threaded search by default, so per-request results are
/// bit-identical across worker counts whenever the request's budgets are
/// deterministic (node/memory budgets rather than wall-clock deadlines).
class SynthesisService {
 public:
  struct RequestState;  // Internal; defined in service.cc.

  /// Handle to one submitted request. Cheap to copy (shared); all copies
  /// observe the same response.
  class Ticket {
   public:
    Ticket();
    ~Ticket();
    Ticket(const Ticket&);
    Ticket& operator=(const Ticket&);
    Ticket(Ticket&&) noexcept;
    Ticket& operator=(Ticket&&) noexcept;

    /// Blocks until the request completes and returns its response.
    /// Responses are idempotent: repeated Wait() returns the same value.
    ServiceResponse Wait() const;

    /// True once a response is available (Wait() will not block).
    bool IsReady() const;

    /// Requests cancellation: fires the request-level token and, when a
    /// rung search is mid-flight, that rung's token too. The request
    /// still completes (typed kCancelled) — always Wait() after Cancel()
    /// if you need the final state.
    void Cancel() const;

   private:
    friend class SynthesisService;
    explicit Ticket(std::shared_ptr<RequestState> state);
    std::shared_ptr<RequestState> state_;
  };

  /// Aggregate counters; all monotonic except the two gauges at the end.
  struct Stats {
    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;       ///< Typed kUnavailable at admission.
    uint64_t completed = 0;  ///< Admitted requests that got a response.
    uint64_t found = 0;      ///< Responses with a program.
    uint64_t degraded = 0;   ///< Programs found below rung 0.
    uint64_t anytime = 0;    ///< Failures that carried an anytime partial.
    uint64_t cancelled = 0;  ///< kCancelled responses.
    uint64_t cache_served = 0;        ///< Programs served from the snapshot
                                      ///< result cache (no search ran).
    uint64_t guided_wins = 0;         ///< Requests solved by a guided phase.
    uint64_t guidance_fallbacks = 0;  ///< Requests where a rung fell back
                                      ///< to the exact search.
    size_t queue_depth = 0;        ///< Gauge: currently queued.
    size_t outstanding = 0;        ///< Gauge: queued + executing.
    uint64_t inflight_bytes = 0;   ///< Gauge: admitted request footprint.
  };

  explicit SynthesisService(ServiceOptions options = {});
  ~SynthesisService();  // Shutdown() + join.

  SynthesisService(const SynthesisService&) = delete;
  SynthesisService& operator=(const SynthesisService&) = delete;

  /// Admission-controlled submit; never blocks on synthesis. Requests
  /// rejected by admission (queue full, memory budget, shutdown) come
  /// back as an already-completed Ticket with kUnavailable and a
  /// retry-after hint.
  Ticket Submit(SynthesisRequest request);

  /// Convenience: Submit + Wait.
  ServiceResponse Synthesize(SynthesisRequest request);

  /// Stops admission (subsequent Submits are shed), completes queued
  /// requests with kUnavailable, cancels executing ones, and joins the
  /// workers. Idempotent; the destructor calls it.
  void Shutdown();

  Stats stats() const;

  const ServiceOptions& options() const { return options_; }

  /// Outcome of the boot-time snapshot load: OK after a successful load,
  /// kUnimplemented when no snapshot_path was configured, and the loader's
  /// typed error (kNotFound / kInvalidArgument / kParseError) when the
  /// configured snapshot was missing or corrupt — in which case the
  /// service is running, unguided, exactly as if no path had been set.
  const Status& snapshot_status() const { return snapshot_status_; }

  /// Approximate retained footprint of a request (both example tables),
  /// the unit of the admission memory budget.
  static uint64_t EstimateRequestBytes(const SynthesisRequest& request);

 private:
  void WorkerLoop();
  void Dispatch(const std::shared_ptr<RequestState>& state);
  /// Fills the response and wakes waiters; releases admission accounting
  /// when the request had been admitted.
  void Complete(const std::shared_ptr<RequestState>& state,
                ServiceResponse response, bool admitted);
  int64_t RetryAfterHintLocked() const;

  ServiceOptions options_;

  /// Warm-replica state built from the boot snapshot (all immutable after
  /// construction, so workers read them lock-free). The policy and memo
  /// are installed on options_.base_search; the program cache maps the
  /// four-hash example fingerprint to a validated script.
  Status snapshot_status_;
  std::unique_ptr<class GuidancePolicy> guidance_;
  std::unique_ptr<class HeuristicCache> warm_cache_;
  std::unordered_map<std::string, std::string> program_cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<RequestState>> queue_;
  /// Admitted requests currently executing on a worker (for Shutdown to
  /// cancel); keyed by identity.
  std::unordered_set<RequestState*> executing_;
  size_t outstanding_ = 0;
  uint64_t inflight_bytes_ = 0;
  bool shutdown_ = false;
  Stats stats_;

  std::vector<std::thread> workers_;
};

}  // namespace foofah

#endif  // FOOFAH_SERVER_SERVICE_H_
