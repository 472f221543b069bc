// Drives the SynthesisService against the benchmark corpus the way a
// multi-tenant deployment would: N concurrent clients fire synthesis
// requests with mixed deadlines at a small worker pool, the service sheds
// what it cannot admit, degrades what it cannot finish at full strength,
// and every request comes back typed. Rejected submissions are retried
// with the exponential backoff helper, honoring the server's retry-after
// hints.
//
// Usage: foofah_serve [--workers N] [--queue N] [--clients N]
//                     [--scenarios N] [--deadline-ms N] [--node-budget N]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "scenarios/corpus.h"
#include "server/service.h"
#include "util/retry.h"

namespace {

int FlagValue(int argc, char** argv, const char* name, int fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoi(argv[i + 1]);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using foofah::Corpus;
  using foofah::Scenario;
  using foofah::ServiceResponse;
  using foofah::StatusCode;
  using foofah::SynthesisRequest;
  using foofah::SynthesisService;

  const int num_workers = FlagValue(argc, argv, "--workers", 4);
  const int queue_capacity = FlagValue(argc, argv, "--queue", 12);
  const int num_clients = FlagValue(argc, argv, "--clients", 8);
  const int num_scenarios = FlagValue(argc, argv, "--scenarios", 50);
  const int deadline_ms = FlagValue(argc, argv, "--deadline-ms", 500);
  const int node_budget = FlagValue(argc, argv, "--node-budget", 20'000);

  foofah::ServiceOptions options;
  options.num_workers = num_workers;
  options.queue_capacity = static_cast<size_t>(queue_capacity);
  options.default_deadline_ms = deadline_ms;
  options.base_search.node_budget = static_cast<uint64_t>(node_budget);
  SynthesisService service(options);

  const std::vector<Scenario>& corpus = Corpus();
  const int total =
      std::min<int>(num_scenarios, static_cast<int>(corpus.size()));

  std::printf("foofah_serve: %d clients x %d scenarios, %d workers, "
              "queue capacity %d, deadline %d ms\n\n",
              num_clients, total, num_workers, queue_capacity, deadline_ms);

  std::mutex out_mu;
  std::map<StatusCode, int> outcome_counts;
  std::vector<double> latencies_ms;  // queue + run per completed request.
  std::atomic<int> retried{0};
  std::atomic<int> next_index{0};

  auto client = [&](int client_id) {
    for (;;) {
      const int index = next_index.fetch_add(1);
      if (index >= total) return;
      const Scenario& scenario = corpus[static_cast<size_t>(index)];
      auto example = scenario.MakeExample(1);
      if (!example.ok()) continue;

      SynthesisRequest request;
      request.input = example->input;
      request.output = example->output;
      request.tag = scenario.name();
      // Stagger deadlines across clients: some tight, some generous.
      request.deadline_ms = deadline_ms / (1 + client_id % 3);

      // A shed submission is not an error — back off per the server's
      // hint and resubmit.
      foofah::BackoffPolicy backoff;
      backoff.initial_delay_ms = 5;
      backoff.max_attempts = 4;
      int attempt_count = 0;
      ServiceResponse response = foofah::RetryWithBackoff(
          backoff,
          [&](int) {
            if (++attempt_count > 1) retried.fetch_add(1);
            return service.Synthesize(request);
          },
          [](const ServiceResponse& r) -> int64_t {
            if (r.status.code() != StatusCode::kUnavailable) return -1;
            return r.retry_after_ms;
          },
          [](int64_t ms) {
            std::this_thread::sleep_for(std::chrono::milliseconds(ms));
          });

      std::lock_guard<std::mutex> lock(out_mu);
      ++outcome_counts[response.status.code()];
      latencies_ms.push_back(response.queue_ms + response.run_ms);
      const char* shape =
          response.found
              ? (response.winning_rung > 0 ? "degraded" : "full")
              : (response.anytime.available ? "anytime partial" : "none");
      std::printf("  [client %d] %-28s %-18s rung=%2d program=%-15s "
                  "queue=%5.1fms run=%6.1fms\n",
                  client_id, scenario.name().c_str(),
                  foofah::StatusCodeName(response.status.code()),
                  response.winning_rung, shape, response.queue_ms,
                  response.run_ms);
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();

  const SynthesisService::Stats stats = service.stats();
  std::printf("\nService stats:\n");
  std::printf("  submitted %llu, admitted %llu, shed %llu (retries %d)\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.shed), retried.load());
  std::printf("  found %llu (degraded %llu), anytime partials %llu\n",
              static_cast<unsigned long long>(stats.found),
              static_cast<unsigned long long>(stats.degraded),
              static_cast<unsigned long long>(stats.anytime));
  std::printf("\nOutcome histogram:\n");
  for (const auto& [code, count] : outcome_counts) {
    std::printf("  %-18s %d\n", foofah::StatusCodeName(code), count);
  }
  if (!latencies_ms.empty()) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    auto percentile = [&](double p) {
      size_t k = static_cast<size_t>(p * static_cast<double>(
                                             latencies_ms.size() - 1));
      return latencies_ms[k];
    };
    std::printf("\nEnd-to-end latency (queue + run, %zu requests):\n",
                latencies_ms.size());
    std::printf("  p50=%6.1fms  p90=%6.1fms  p99=%6.1fms  max=%6.1fms\n",
                percentile(0.50), percentile(0.90), percentile(0.99),
                latencies_ms.back());
  }
  service.Shutdown();
  return 0;
}
