// The `serve` workload. One client thread sends requests to a
// SynthesisService running its defaults (4 workers, the sequential ladder,
// the default deadline) booted from a guidance snapshot the benchmark
// mines in set-up through the learn API. A fixed share of the traffic
// repeats built-in corpus tasks, which the snapshot's program cache
// answers; the rest is generated tasks, some of which exhaust the rung-0
// budgets and descend the ladder. An open loop at fixed Poisson rates
// checks the service under load and walks the rate ladder; sequential
// rounds, one request outstanding, give the latency and capacity metrics.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <iterator>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "fuzz/generator.h"
#include "learn/snapshot.h"
#include "learn/stats.h"
#include "ops/registry.h"
#include "scenarios/corpus.h"
#include "search/guide.h"
#include "search/search.h"
#include "server/service.h"

namespace perfbench {
namespace {

using foofah::ServiceResponse;
using foofah::SynthesisService;
using foofah::Table;

// The rates are absolute, checked-in numbers (also recorded in
// BENCHMARK.json and README.md), never derived from a run.
// The ladder steps by 16x. On a 4-vCPU host with shared cores, 480 req/s
// passed in some runs of the same build and failed in others, with the
// host's load; a finer ladder reports the host, not the program.
constexpr double kNominalRate = 100;  // requests per second
constexpr int kNominalRequests = 1'000;
constexpr double kLadderRates[] = {6.25, 100, 1600, 25600};
constexpr int kLadderRequests = 300;
constexpr double kLatencyLimitMs = 1'000;
constexpr double kWarmupSeconds = 1.0;
// The latency and work metrics come from sequential rounds: one client
// keeps one request outstanding, so one worker at a time is busy. The
// open-loop latency at 100 req/s measures how much of the host's four
// vCPUs the run gets, not the program: two searches that overlap each
// took twice as long as one alone in some minutes and not in others, so
// the p99 of one build read 26 to 99 ms over runs a few minutes apart
// (README.md, "Why the serve latency is sequential"). With one request
// outstanding, the p99 of the same runs read 22 to 26 ms.
// Every round sends the same schedule; each request's latency is its
// median over the rounds, and the work metric (completions per second)
// is the median over the rounds.
constexpr int kSequentialRequests = 1'000;
constexpr int kSequentialRounds = 5;
constexpr int kSequentialWarmup = 100;
constexpr auto kSpinBeforeDue = std::chrono::microseconds(300);
// Budgets of every request at rung 0; the ladder scales them to 1/2 and
// 1/4 on the cheaper rungs. The memory budget (charged per kept state,
// by its cell count) is what bounds a wide table, where one expansion
// can try thousands of candidates.
constexpr uint64_t kRequestNodeBudget = 30;
constexpr uint64_t kRequestMemoryBudget = 192u << 10;
// The share of requests that repeat a corpus task, in every phase. It is
// an assumption, not a measured traffic mix: no request log exists to
// take it from (README.md, "Traffic mix"). At a quarter, the median
// request is a novel one that searches, so the p50 moves with search,
// guidance and worker cost, and not only with the cache-hit handoff.
constexpr double kRepeatShare = 0.25;
// Every phase sends a fixed multiset for its size: round(share * n)
// requests cycling over the repeat tasks, the rest cycling over the novel
// pool, which holds one task per novel request of a 1,000-request block.
// The heavy tail each phase samples is then the same on every run
// and only arrival times and order follow the seed; random draws from a
// seeded pool moved the p99 by up to 2.5x from seed to seed. With each
// novel task sent twice in 1,000 requests, the p99 fell on the edge
// between pairs of equally heavy requests and read ~30 or ~88 ms.
// The novel pool comes from one fixed generator seed (--pool-seed
// overrides it for held-out checks).
constexpr uint64_t kNovelPoolSeed = 2;
// The mined generator draw uses a seed no workload run uses.
constexpr uint64_t kMiningSeed = 0x6d696e65;
constexpr int kMinedGenerated = 60;
constexpr int kSetupReps = 15;

struct Task {
  Table input;
  Table output;
};

struct Traffic {
  std::vector<Task> repeat;
  std::vector<Task> novel;
};

int NominalRequests(bool tiny) { return tiny ? kNominalRequests / 10 : kNominalRequests; }
int SequentialRequests(bool tiny) {
  return tiny ? kSequentialRequests / 10 : kSequentialRequests;
}

const foofah::OperatorRegistry& DefaultRegistry() {
  static const foofah::OperatorRegistry kRegistry =
      foofah::OperatorRegistry::Default();
  return kRegistry;
}

// Repeat traffic: corpus tasks at the two-record example whose truth
// program replays on it, so the snapshot can cache it.
Traffic BuildTraffic(uint64_t pool_seed, bool tiny,
                     foofah::GuidanceSnapshot* snapshot) {
  Traffic traffic;
  for (const foofah::Scenario& scenario : foofah::Corpus()) {
    if (!scenario.truth().has_value()) continue;
    auto example = scenario.MakeExample(std::min(2, scenario.total_records()));
    if (!example.ok()) continue;
    auto replay = scenario.truth()->Execute(example->input);
    if (!replay.ok() || !replay->ContentEquals(example->output)) continue;
    foofah::GuidanceSnapshot::ProgramEntry entry;
    entry.input_hash = example->input.Hash();
    entry.input_shape = example->input.ShapeFingerprint();
    entry.output_hash = example->output.Hash();
    entry.output_shape = example->output.ShapeFingerprint();
    entry.script = scenario.truth()->ToScript();
    snapshot->program_entries.push_back(std::move(entry));
    traffic.repeat.push_back(Task{example->input, example->output});
  }
  foofah::fuzz::GeneratorOptions options;
  options.seed = pool_seed;
  options.registry = &DefaultRegistry();
  options.max_rows = 4;
  options.max_cols = 4;
  foofah::fuzz::ScenarioGenerator generator(options);
  const size_t novel_requests = static_cast<size_t>(
      std::lround((1 - kRepeatShare) * NominalRequests(tiny)));
  const size_t novel_pool = novel_requests;
  for (size_t i = 0; i < novel_pool; ++i) {
    foofah::fuzz::GeneratedScenario scenario = generator.Generate(static_cast<int>(i));
    traffic.novel.push_back(Task{scenario.input, scenario.output});
  }
  return traffic;
}

// Mines the guidance model through the learn API: the corpus truth
// programs plus a generator draw disjoint from the served novel traffic.
void MineModel(foofah::GuidanceSnapshot* snapshot) {
  snapshot->model.MergeFrom(foofah::MineScenarios(foofah::Corpus()));
  foofah::fuzz::GeneratorOptions options;
  options.seed = kMiningSeed;
  options.registry = &DefaultRegistry();
  foofah::fuzz::ScenarioGenerator generator(options);
  for (int i = 0; i < kMinedGenerated; ++i) {
    foofah::fuzz::GeneratedScenario scenario = generator.Generate(i);
    foofah::MineProgram(scenario.input, scenario.output, scenario.program,
                        &snapshot->model);
  }
}

struct Sent {
  size_t task = 0;
  bool repeat = false;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  SynthesisService::Ticket ticket;
  ServiceResponse response;
};

struct PhaseResult {
  std::vector<Sent> requests;
  double seconds = 0;  // First send to last response (sequential phases).
};

/// The requests of one phase, in send order: (repeat traffic?, task).
using Schedule = std::vector<std::pair<bool, size_t>>;

// The `block`-th block of `count` requests at the repeat share:
// round(share * count) repeat requests and the rest novel ones, each kind
// cycling over its pool where the previous block left off, shuffled.
Schedule MixedSchedule(const Traffic& traffic, int count, int block,
                       std::mt19937_64* rng) {
  const size_t repeats = static_cast<size_t>(std::lround(kRepeatShare * count));
  const size_t first_repeat = repeats * static_cast<size_t>(block);
  const size_t first_novel = (static_cast<size_t>(count) - repeats) *
                             static_cast<size_t>(block);
  Schedule schedule;
  for (size_t i = 0; i < static_cast<size_t>(count); ++i) {
    if (i < repeats) {
      schedule.emplace_back(true, (first_repeat + i) % traffic.repeat.size());
    } else {
      schedule.emplace_back(false,
                            (first_novel + i - repeats) % traffic.novel.size());
    }
  }
  std::shuffle(schedule.begin(), schedule.end(), *rng);
  return schedule;
}

const Task& TaskOf(const Traffic& traffic, const Sent& request) {
  return request.repeat ? traffic.repeat[request.task] : traffic.novel[request.task];
}

foofah::SynthesisRequest MakeRequest(const Task& task) {
  foofah::SynthesisRequest message;
  message.input = task.input;
  message.output = task.output;
  message.node_budget = kRequestNodeBudget;
  message.memory_budget = kRequestMemoryBudget;
  return message;
}

// Sends `schedule` at Poisson `rate` from this thread and timestamps each
// response when it arrives.
PhaseResult RunPhase(SynthesisService* service, const Traffic& traffic,
                     double rate, const Schedule& schedule, std::mt19937_64* rng) {
  PhaseResult phase;
  phase.requests.resize(schedule.size());
  std::exponential_distribution<double> gap(rate);
  double offset_s = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    Sent& request = phase.requests[i];
    offset_s += gap(*rng);
    request.repeat = schedule[i].first;
    request.task = schedule[i].second;
    request.due = Clock::time_point(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(offset_s)));
  }

  // Waiter threads block on the tickets in submission order, one request
  // each at a time; there are as many as the service admits at once, so
  // every admitted request has a waiter blocked on it when it completes
  // and is timestamped on wake-up rather than by polling.
  std::mutex mu;
  std::condition_variable submitted_cv;
  size_t submitted = 0;
  std::atomic<size_t> next_claim{0};
  std::vector<std::thread> waiters;
  for (size_t w = 0; w < foofah::ServiceOptions{}.queue_capacity; ++w) {
    waiters.emplace_back([&] {
      for (;;) {
        const size_t i = next_claim.fetch_add(1);
        if (i >= phase.requests.size()) return;
        {
          std::unique_lock<std::mutex> lock(mu);
          submitted_cv.wait(lock, [&] { return submitted > i; });
        }
        Sent& request = phase.requests[i];
        ServiceResponse response = request.ticket.Wait();
        request.done = Clock::now();
        request.response = std::move(response);
      }
    });
  }

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    Sent& request = phase.requests[i];
    request.due = start + request.due.time_since_epoch();
    // Sleep to just before the due time, then spin: a plain sleep wakes
    // ~0.1 ms late, which is most of a cached request's latency.
    std::this_thread::sleep_until(request.due - kSpinBeforeDue);
    while (Clock::now() < request.due) {
    }
    foofah::SynthesisRequest message = MakeRequest(TaskOf(traffic, request));
    request.sent = Clock::now();
    SynthesisService::Ticket ticket = service->Submit(std::move(message));
    {
      std::lock_guard<std::mutex> lock(mu);
      request.ticket = std::move(ticket);
      submitted = i + 1;
    }
    submitted_cv.notify_all();
  }
  for (std::thread& waiter : waiters) waiter.join();
  return phase;
}

// Sends `schedule` one request at a time, each as soon as the previous
// response arrives.
PhaseResult RunSequential(SynthesisService* service, const Traffic& traffic,
                          const Schedule& schedule) {
  PhaseResult phase;
  phase.requests.resize(schedule.size());
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    Sent& request = phase.requests[i];
    request.repeat = schedule[i].first;
    request.task = schedule[i].second;
    foofah::SynthesisRequest message = MakeRequest(TaskOf(traffic, request));
    request.due = request.sent = Clock::now();
    request.response = service->Submit(std::move(message)).Wait();
    request.done = Clock::now();
  }
  phase.seconds = MsSince(start) / 1e3;
  return phase;
}

bool IsShed(const ServiceResponse& response) {
  return response.status.code() == foofah::StatusCode::kUnavailable;
}

// A request the service did not answer in time: shed at admission, or a
// rung stopped by the wall-clock deadline.
bool MissedDeadline(const ServiceResponse& response) {
  if (IsShed(response)) return true;
  for (const auto& attempt : response.attempts) {
    if (attempt.stats.timed_out) return true;
  }
  return false;
}

// Checks every returned program against its example; returns the number
// of OK responses with a verified program.
int VerifyPhase(const PhaseResult& phase, const Traffic& traffic, Report* report) {
  int ok = 0;
  for (const Sent& request : phase.requests) {
    ++report->attempted;
    const ServiceResponse& response = request.response;
    const Task& task = TaskOf(traffic, request);
    const foofah::StatusCode code = response.status.code();
    if (code == foofah::StatusCode::kInvalidArgument ||
        code == foofah::StatusCode::kCancelled ||
        code == foofah::StatusCode::kInternal) {
      ++report->failed;
      report->Fail("unexpected response: " + response.status.ToString());
      continue;
    }
    if (!response.status.ok()) continue;
    auto replay = response.program.Execute(task.input);
    if (!response.found || !replay.ok() || !replay->ContentEquals(task.output)) {
      ++report->failed;
      report->Fail("served program does not replay: " + response.program.ToScript());
      continue;
    }
    ++ok;
  }
  return ok;
}

// Due-to-response latencies. A shed or deadline-stopped request counts as
// infinitely late: the service answering it at once is not a fast request.
std::vector<double> LatenciesMs(const PhaseResult& phase) {
  std::vector<double> out;
  for (const Sent& request : phase.requests) {
    out.push_back(MissedDeadline(request.response) ? HUGE_VAL
                                                   : MsBetween(request.due, request.done));
  }
  return out;
}

// A rate passes when the p99 of due-to-response latency meets the limit.
// The service bounds its backlog by shedding once its admission queue is
// full, and a shed request counts as infinitely late, so this also fails
// a rate whose backlog grows.
bool RatePasses(const PhaseResult& phase, double* p99_ms) {
  *p99_ms = Percentile(LatenciesMs(phase), 0.99);
  return *p99_ms <= kLatencyLimitMs;
}

// Forwards to the service's guidance policy, timing each Partition call.
// Only the serial replay below uses it, so the counters need no lock.
class TimedGuide : public foofah::CandidateGuide {
 public:
  explicit TimedGuide(const foofah::CandidateGuide* inner) : inner_(inner) {}
  void Partition(const Table& state, const Table& goal,
                 const foofah::Operation* via,
                 const std::vector<foofah::Operation>& candidates,
                 std::vector<uint8_t>* defer) const override {
    Clock::time_point t0 = Clock::now();
    inner_->Partition(state, goal, via, candidates, defer);
    ms_ += MsSince(t0);
    ++calls_;
  }
  double ms() const { return ms_; }
  uint64_t calls() const { return calls_; }

 private:
  const foofah::CandidateGuide* inner_;
  mutable double ms_ = 0;
  mutable uint64_t calls_ = 0;
};

struct Booted {
  Traffic traffic;
  std::unique_ptr<SynthesisService> service;
  double load_ms = 0;
};

bool Boot(const Args& args, Booted* booted, Report* report) {
  foofah::GuidanceSnapshot snapshot;
  booted->traffic = BuildTraffic(args.pool_seed != 0 ? args.pool_seed : kNovelPoolSeed,
                                 args.tiny, &snapshot);
  MineModel(&snapshot);
  const std::string path = args.workdir + "/snapshot.txt";
  foofah::Status saved = foofah::SaveGuidanceSnapshot(snapshot, path);
  if (!saved.ok()) {
    report->Fail("cannot save the snapshot: " + saved.ToString());
    return false;
  }
  Clock::time_point t0 = Clock::now();
  auto loaded = foofah::LoadGuidanceSnapshot(path);
  booted->load_ms = MsSince(t0);
  if (!loaded.ok() || !(*loaded == snapshot)) {
    report->Fail("snapshot does not load back");
    return false;
  }
  booted->service.reset();
  foofah::ServiceOptions options;
  options.snapshot_path = path;
  booted->service = std::make_unique<SynthesisService>(options);
  if (!booted->service->snapshot_status().ok()) {
    report->Fail("service rejected the snapshot: " +
                 booted->service->snapshot_status().ToString());
    return false;
  }
  return true;
}

// Queueing, shedding and the generator's lag come from the open-loop
// phase `load`, the only one that queues; every other layer metric comes
// from the sequential rounds, which the end-to-end metrics are read from.
void FillLayers(const PhaseResult& load, const PhaseResult& sequential,
                const Booted& booted, Report* report) {
  auto& v = report->values;
  std::vector<double> queue, run, lag;
  double rung_ms[3] = {0, 0, 0};
  double found = 0, degraded = 0, shed = 0, anytime = 0, cached = 0;
  double searched = 0, guided_wins = 0, fallbacks = 0;
  foofah::SearchStats sum;
  std::set<size_t> novel_tasks;
  for (const Sent& request : load.requests) {
    lag.push_back(MsBetween(request.due, request.sent));
    if (IsShed(request.response)) {
      shed += 1;
    } else {
      queue.push_back(request.response.queue_ms);
    }
  }
  for (const Sent& request : sequential.requests) {
    const ServiceResponse& response = request.response;
    run.push_back(response.run_ms);
    if (response.found) found += 1;
    if (response.found && response.winning_rung > 0) degraded += 1;
    if (!response.found && response.anytime.available) anytime += 1;
    if (response.served_from_cache) cached += 1;
    if (!request.repeat) novel_tasks.insert(request.task);
    if (response.attempts.empty()) continue;
    searched += 1;
    if (response.guided_win) guided_wins += 1;
    if (response.guidance_fallbacks > 0) fallbacks += 1;
    for (size_t r = 0; r < response.attempts.size() && r < 3; ++r) {
      rung_ms[r] += response.attempts[r].stats.elapsed_ms;
    }
    for (const auto& attempt : response.attempts) AddSearchStats(attempt.stats, &sum);
  }
  const double n = static_cast<double>(sequential.requests.size());
  const double candidates = static_cast<double>(sum.candidates_tried);
  v["server.queue_p50_ms"] = Percentile(queue, 0.5);
  v["server.queue_p99_ms"] = Percentile(queue, 0.99);
  v["server.run_p50_ms"] = Percentile(run, 0.5);
  v["server.run_p99_ms"] = Percentile(run, 0.99);
  v["server.rung0_ms"] = rung_ms[0];
  v["server.rung1_ms"] = rung_ms[1];
  v["server.rung2_ms"] = rung_ms[2];
  v["server.degraded_ratio"] = Ratio(degraded, found);
  v["server.shed_ratio"] = Ratio(shed, static_cast<double>(load.requests.size()));
  v["server.anytime_ratio"] = Ratio(anytime, n);
  v["server.cache_served_ratio"] = Ratio(cached, n);
  v["learn.deferred_ratio"] =
      Ratio(static_cast<double>(sum.guidance_deferred), candidates);
  v["learn.guided_win_ratio"] = Ratio(guided_wins, searched);
  v["learn.fallback_ratio"] = Ratio(fallbacks, searched);
  v["learn.snapshot_load_ms"] = booted.load_ms;
  v["bench.gen_lag_p99_ms"] = Percentile(lag, 0.99);
  FillSearchMetrics(sum, report);

  // The service installs its own policy, so Partition is timed in a
  // serial replay of rung 0 for each distinct novel task sent: the
  // service's own rung-0 search options with the policy wrapped.
  foofah::SearchOptions rung0 = booted.service->options().base_search;
  TimedGuide guide(rung0.guidance);
  rung0.guidance = rung0.guidance == nullptr ? nullptr : &guide;
  rung0.node_budget = kRequestNodeBudget;
  rung0.memory_budget = kRequestMemoryBudget;
  for (size_t task : novel_tasks) {
    const Task& t = booted.traffic.novel[task];
    foofah::SynthesizeProgram(t.input, t.output, rung0);
  }
  v["learn.partition_ms"] = guide.ms();
  report->meta["partition_calls"] = std::to_string(guide.calls());
  report->meta["partition_replayed_tasks"] = std::to_string(novel_tasks.size());
}

}  // namespace

Report RunServe(const Args& args) {
  Report report;
  Booted booted;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.tiny ? 1 : kSetupReps); ++rep) {
    Clock::time_point start = Clock::now();
    if (!Boot(args, &booted, &report)) return report;
    setup_s.push_back(MsSince(start) / 1e3);
  }
  std::mt19937_64 rng(args.seed);
  SynthesisService* service = booted.service.get();
  const int scale = args.tiny ? 10 : 1;

  // Sequential rounds of one schedule, after an untimed sequential
  // warm-up, on a service that has run no concurrent phase yet.
  // `sequential` holds every round's requests, one round after another.
  // Run after the open loop and the ladder instead, the same rounds read
  // p50s from 10% below to 57% above those of fresh services in the same
  // process, a margin that changed from run to run.
  VerifyPhase(RunSequential(service, booted.traffic,
                            MixedSchedule(booted.traffic, kSequentialWarmup / scale, 0, &rng)),
              booted.traffic, &report);
  const Schedule schedule = MixedSchedule(booted.traffic, SequentialRequests(args.tiny), 0, &rng);
  PhaseResult sequential;
  std::vector<std::vector<double>> round_latency;
  std::vector<double> capacity_per_s;
  for (int round = 0; round < kSequentialRounds; ++round) {
    PhaseResult one = RunSequential(service, booted.traffic, schedule);
    for (const Sent& request : one.requests) {
      if (!IsShed(request.response)) continue;
      ++report.failed;
      report.Fail("a request was shed with one request outstanding");
    }
    round_latency.push_back(LatenciesMs(one));
    capacity_per_s.push_back(static_cast<double>(one.requests.size()) / one.seconds);
    std::move(one.requests.begin(), one.requests.end(),
              std::back_inserter(sequential.requests));
  }
  VerifyPhase(sequential, booted.traffic, &report);

  // The open loop: a warm-up, then the nominal rate.
  PhaseResult warmup = RunPhase(
      service, booted.traffic, kNominalRate,
      MixedSchedule(booted.traffic, static_cast<int>(kNominalRate * kWarmupSeconds) / scale,
                    0, &rng),
      &rng);
  VerifyPhase(warmup, booted.traffic, &report);

  // The open loop at the nominal rate: the service under load. Its
  // latencies are recorded on the meta line and gate the run.
  PhaseResult nominal = RunPhase(service, booted.traffic, kNominalRate,
                                 MixedSchedule(booted.traffic, NominalRequests(args.tiny), 0, &rng),
                                 &rng);
  const int ok = VerifyPhase(nominal, booted.traffic, &report);
  const std::vector<double> open_latency = LatenciesMs(nominal);
  const double open_p99 = Percentile(open_latency, 0.99);
  if (!std::isfinite(open_p99)) {
    report.Fail("more than 1% of the open-loop requests were shed or stopped by "
                "the deadline, so their p99 is unbounded");
  }

  // The rate ladder: the highest fixed rate that meets the latency limit
  // with a steady backlog. The search starts at the nominal rate (the
  // phase above) and walks up while rates pass, or down until one does.
  // It is a coarse pass/fail level recorded on the meta line; it gates
  // the run (some rate must pass) but is not a metric. The traced run
  // skips it.
  double max_rps = 0;
  std::string ladder;
  if (!args.trace) {
    const int rungs = static_cast<int>(std::size(kLadderRates));
    int rung = 0;
    while (kLadderRates[rung] != kNominalRate) ++rung;
    const PhaseResult* step = &nominal;
    PhaseResult probe;
    double p99 = 0;
    const bool nominal_passes = RatePasses(nominal, &p99);
    const int direction = nominal_passes ? 1 : -1;
    for (;;) {
      const bool passes = step == &nominal ? nominal_passes : RatePasses(*step, &p99);
      char line[96];
      std::snprintf(line, sizeof(line), "%.1f req/s: p99 %.1f ms %s; ",
                    kLadderRates[rung], p99, passes ? "ok" : "miss");
      ladder += line;
      if (passes && (max_rps == 0 || direction > 0)) max_rps = kLadderRates[rung];
      rung += direction;
      if ((direction > 0 && !passes) || (direction < 0 && passes) || rung < 0 ||
          rung >= rungs) {
        break;
      }
      probe = RunPhase(service, booted.traffic, kLadderRates[rung],
                       MixedSchedule(booted.traffic, kLadderRequests / scale, 0, &rng), &rng);
      VerifyPhase(probe, booted.traffic, &report);
      step = &probe;
    }
    if (max_rps == 0) report.Fail("no rate of the ladder met the latency limit");
  }


  if (args.trace) {
    ZeroPerLayerMetrics(&report);
    // Spans come from the phases' own timestamps, recorded after they
    // end; nothing runs during a phase that the untraced run does not
    // run, so the tracing overhead is 0 by construction.
    Tracer tracer;
    int64_t id = 0;
    for (const PhaseResult* phase : {&nominal, &sequential}) {
      const std::string name =
          phase == &nominal ? "serve.open_loop.request" : "serve.sequential.request";
      for (const Sent& request : phase->requests) {
        int span = tracer.Add(name, request.due, request.done, -1, id);
        const auto queue_end = request.sent + std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(request.response.queue_ms));
        tracer.Add("server.queue", request.sent, queue_end, span, id);
        tracer.Count(request.repeat ? "requests.repeat" : "requests.novel", 1);
        ++id;
      }
    }
    FillLayers(nominal, sequential, booted, &report);
    report.values["bench.trace_overhead_pct"] = 0;
    report.meta["trace_overhead"] = "0 by construction: spans are added after the phases";
    if (!tracer.WriteJson(args.workdir + "/trace.json")) {
      report.Fail("cannot write the trace file");
    }
    return report;
  }

  std::vector<double> latency;
  for (size_t i = 0; i < schedule.size(); ++i) {
    std::vector<double> rounds;
    for (const std::vector<double>& one : round_latency) rounds.push_back(one[i]);
    latency.push_back(Median(rounds));
  }
  report.values["p50_ms"] = Median(latency);
  report.values["tail_ms"] = Percentile(latency, 0.99);
  report.values["work_per_s"] = Median(capacity_per_s);
  report.values["ok_ratio"] =
      static_cast<double>(ok) / static_cast<double>(nominal.requests.size());
  report.values["setup_s"] = Median(setup_s);
  report.values["peak_rss_mb"] = PeakRssMb();
  auto join = [](const std::vector<double>& values) {
    std::string out;
    for (double value : values) out += (out.empty() ? "" : " ") + std::to_string(value);
    return out;
  };
  report.meta["ladder_p99"] = ladder;
  report.meta["max_rps_rung"] = std::to_string(max_rps);
  report.meta["open_loop_p50_ms"] = std::to_string(Median(open_latency));
  report.meta["open_loop_p99_ms"] = std::to_string(open_p99);
  report.meta["open_loop_requests"] = std::to_string(nominal.requests.size());
  report.meta["sequential_rounds_per_s"] = join(capacity_per_s);
  report.meta["sequential_requests"] = std::to_string(schedule.size());
  report.meta["sequential_rounds"] = std::to_string(kSequentialRounds);
  report.meta["repeat_share"] = std::to_string(kRepeatShare);
  report.meta["repeat_tasks"] = std::to_string(booted.traffic.repeat.size());
  report.meta["novel_tasks"] = std::to_string(booted.traffic.novel.size());
  report.meta["tail_percentile"] = "p99";
  report.meta["setup_reps"] = std::to_string(setup_s.size());
  return report;
}

}  // namespace perfbench
