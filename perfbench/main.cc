// Benchmark binary. Usage:
//
//   perfbench --workload synth|apply|apply_spill|serve --seed N
//             --seconds S --trace 0|1 [--workdir DIR] [--tiny]
//             [--pool-seed N]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics. The line before it is a JSON "meta" record (host
// cores, build type, compiler, seed, rep counts, checks). perfbench/run.py
// builds this binary and forwards its arguments.
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {
namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "synth|apply|apply_spill|serve --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--tiny] [--pool-seed N]\n",
               why);
  return 2;
}

bool MakeDirs(const std::string& path) {
  std::string partial;
  for (size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!partial.empty() && mkdir(partial.c_str(), 0755) != 0 &&
          errno != EEXIST) {
        return false;
      }
    }
    if (i < path.size()) partial += path[i];
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value");
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--pool-seed") {
      args.pool_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");
  args.workdir += "/" + args.workload;
  if (!MakeDirs(args.workdir)) return Usage("cannot create the work directory");

  Report report;
  if (args.workload == "synth") {
    report = RunSynth(args);
  } else if (args.workload == "apply") {
    report = RunApply(args, /*spill_group=*/false);
  } else if (args.workload == "apply_spill") {
    report = RunApply(args, /*spill_group=*/true);
  } else if (args.workload == "serve") {
    report = RunServe(args);
  } else {
    return Usage("unknown workload");
  }

  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
  }
  const auto& catalogue = args.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricSpec& spec : catalogue) {
    auto it = report.values.find(spec.name);
    if (it == report.values.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      return 1;
    }
  }

  report.meta["host_cores"] =
      std::to_string(std::thread::hardware_concurrency());
  report.meta["build_type"] = PERFBENCH_BUILD_TYPE;
  report.meta["compiler"] = PERFBENCH_COMPILER;
  report.meta["workload"] = args.workload;
  report.meta["seed"] = std::to_string(args.seed);
  report.meta["pool_seed"] = std::to_string(args.pool_seed);
  report.meta["seconds"] = std::to_string(args.seconds);
  report.meta["trace"] = args.trace ? "1" : "0";
  std::string meta = "{\"meta\": {";
  bool first = true;
  for (const auto& [key, value] : report.meta) {
    meta += (first ? "\"" : ", \"") + JsonEscape(key) + "\": \"" +
            JsonEscape(value) + "\"";
    first = false;
  }
  std::printf("%s}}\n", meta.c_str());

  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  first = true;
  for (const MetricSpec& spec : catalogue) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", report.values[spec.name]);
    line += std::string(first ? "" : ", ") + "\"" + spec.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
