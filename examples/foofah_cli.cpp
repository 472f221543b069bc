// foofah_cli: a command-line front end for the library, the shape a
// downstream user would script against.
//
//   foofah_cli synthesize INPUT.csv OUTPUT.csv [options]
//       Synthesize a program mapping the input example to the output
//       example and print it in the paper's surface syntax.
//       Options:
//         --timeout-ms N      per-search budget (default 60000)
//         --threads N         expansion threads (default: all cores;
//                             results are identical at any thread count)
//         --no-cache          disable the heuristic memo
//         --strategy S        astar | bfs            (default astar)
//         --heuristic H       ted_batch | ted | rule | zero
//         --alternatives K    collect up to K distinct programs
//         --minimize          drop operations that do not affect the example
//         --infer-patterns    add Extract regexes inferred from the input
//                             example's column structures
//
//   foofah_cli apply PROGRAM.txt DATA.csv
//       Run a saved program over a CSV file and print the result as CSV.
//
//   foofah_cli explain PROGRAM.txt
//       Print a numbered plain-English description of a saved program.
//
//   foofah_cli export-corpus DIR
//       Materialize the built-in 50-scenario benchmark corpus as task
//       bundles (raw.csv / target.csv / truth.foofah / meta.txt) under DIR.
//
//   foofah_cli solve-bundle DIR
//       Synthesize a program for a task bundle, using the bundle's whole
//       raw.csv -> target.csv pair as the example.
//
//   foofah_cli demo
//       Walk through the paper's motivating example.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/diagnose.h"
#include "core/driver.h"
#include "core/synthesizer.h"
#include "profile/structure.h"
#include "program/describe.h"
#include "scenarios/bundle.h"
#include "program/minimize.h"
#include "program/parser.h"
#include "table/csv.h"

namespace {

using foofah::Table;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  foofah_cli synthesize INPUT.csv OUTPUT.csv "
               "[--timeout-ms N] [--strategy astar|bfs]\n"
               "      [--heuristic ted_batch|ted|rule|zero] "
               "[--alternatives K] [--minimize] [--infer-patterns]\n"
               "      [--threads N] [--no-cache]\n"
               "  foofah_cli apply PROGRAM.txt DATA.csv\n"
               "  foofah_cli explain PROGRAM.txt\n"
               "  foofah_cli export-corpus DIR\n"
               "  foofah_cli solve-bundle DIR\n"
               "  foofah_cli demo\n");
  return 2;
}

foofah::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return foofah::Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int Synthesize(int argc, char** argv) {
  if (argc < 4) return Usage();
  foofah::Result<Table> input = foofah::ReadCsvFile(argv[2]);
  if (!input.ok()) {
    std::fprintf(stderr, "error: %s\n", input.status().ToString().c_str());
    return 1;
  }
  foofah::Result<Table> output = foofah::ReadCsvFile(argv[3]);
  if (!output.ok()) {
    std::fprintf(stderr, "error: %s\n", output.status().ToString().c_str());
    return 1;
  }

  foofah::SearchOptions options;
  bool minimize = false;
  bool infer_patterns = false;
  for (int i = 4; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.timeout_ms = std::atoll(v);
    } else if (arg == "--strategy") {
      const char* v = next();
      if (v == nullptr) return Usage();
      if (std::strcmp(v, "astar") == 0) {
        options.strategy = foofah::SearchStrategy::kAStar;
      } else if (std::strcmp(v, "bfs") == 0) {
        options.strategy = foofah::SearchStrategy::kBfs;
      } else {
        return Usage();
      }
    } else if (arg == "--heuristic") {
      const char* v = next();
      if (v == nullptr) return Usage();
      if (std::strcmp(v, "ted_batch") == 0) {
        options.heuristic = foofah::HeuristicKind::kTedBatch;
      } else if (std::strcmp(v, "ted") == 0) {
        options.heuristic = foofah::HeuristicKind::kTed;
      } else if (std::strcmp(v, "rule") == 0) {
        options.heuristic = foofah::HeuristicKind::kNaiveRule;
      } else if (std::strcmp(v, "zero") == 0) {
        options.heuristic = foofah::HeuristicKind::kZero;
      } else {
        return Usage();
      }
    } else if (arg == "--alternatives") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.max_solutions = std::atoi(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.num_threads = std::atoi(v);
    } else if (arg == "--no-cache") {
      options.cache_heuristic = false;
    } else if (arg == "--minimize") {
      minimize = true;
    } else if (arg == "--infer-patterns") {
      infer_patterns = true;
    } else {
      return Usage();
    }
  }

  foofah::OperatorRegistry registry = foofah::OperatorRegistry::Default();
  if (infer_patterns) {
    registry = foofah::RegistryWithInferredPatterns(*input, registry);
  }
  options.registry = &registry;
  foofah::Foofah synthesizer(options);
  foofah::SearchResult result = synthesizer.Synthesize(*input, *output);
  std::fprintf(stderr, "# %s\n", result.stats.ToString().c_str());
  if (!result.found) {
    std::fprintf(stderr, "no program found within budget\n");
    // Explain *why* when the example itself is the problem (§4.5).
    for (const foofah::ExampleDiagnostic& diagnostic :
         foofah::DiagnoseExample(*input, *output)) {
      std::fprintf(stderr, "  %s\n", diagnostic.ToString().c_str());
    }
    if (result.anytime.available) {
      std::fprintf(stderr,
                   "partial program (estimated distance %.0f -> %.0f, %zu "
                   "residual cell diffs):\n",
                   result.anytime.input_h, result.anytime.h,
                   result.anytime.residual.cell_diffs.size());
      std::printf("%s", result.anytime.program.ToScript().c_str());
    }
    return 1;
  }
  std::vector<std::string> scripts;
  for (const foofah::Program& alternative : result.alternatives) {
    foofah::Program program = alternative;
    if (minimize) {
      program = foofah::MinimizeProgram(program, *input, *output);
    }
    std::string script = program.ToScript();
    // Minimization can collapse distinct candidates into the same program.
    bool duplicate = false;
    for (const std::string& existing : scripts) {
      if (existing == script) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) scripts.push_back(std::move(script));
  }
  for (size_t i = 0; i < scripts.size(); ++i) {
    if (scripts.size() > 1) std::printf("# --- candidate %zu ---\n", i + 1);
    std::printf("%s", scripts[i].c_str());
  }
  return 0;
}

int Apply(int argc, char** argv) {
  if (argc != 4) return Usage();
  foofah::Result<std::string> script = ReadFile(argv[2]);
  if (!script.ok()) {
    std::fprintf(stderr, "error: %s\n", script.status().ToString().c_str());
    return 1;
  }
  foofah::Result<foofah::Program> program = foofah::ParseProgram(*script);
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().ToString().c_str());
    return 1;
  }
  foofah::Result<Table> data = foofah::ReadCsvFile(argv[3]);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  foofah::Result<Table> out = program->Execute(*data);
  if (!out.ok()) {
    std::fprintf(stderr, "error: %s\n", out.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", foofah::ToCsv(*out).c_str());
  return 0;
}

int Explain(int argc, char** argv) {
  if (argc != 3) return Usage();
  foofah::Result<std::string> script = ReadFile(argv[2]);
  if (!script.ok()) {
    std::fprintf(stderr, "error: %s\n", script.status().ToString().c_str());
    return 1;
  }
  foofah::Result<foofah::Program> program = foofah::ParseProgram(*script);
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", foofah::DescribeProgram(*program).c_str());
  return 0;
}

int ExportCorpusCmd(int argc, char** argv) {
  if (argc != 3) return Usage();
  foofah::Status s = foofah::ExportCorpus(argv[2]);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("exported 50 task bundles under %s\n", argv[2]);
  return 0;
}

int SolveBundle(int argc, char** argv) {
  if (argc != 3) return Usage();
  foofah::Result<foofah::TaskBundle> bundle =
      foofah::LoadTaskBundle(argv[2]);
  if (!bundle.ok()) {
    std::fprintf(stderr, "error: %s\n", bundle.status().ToString().c_str());
    return 1;
  }
  // A bundle has no record structure, so the whole raw/target pair serves
  // as the example (for record-granular growth — the §5.2 protocol — use
  // the Scenario API and FindPerfectProgram).
  foofah::Foofah synthesizer;
  foofah::SearchResult result =
      synthesizer.Synthesize(bundle->raw, bundle->target);
  std::fprintf(stderr, "# %s\n", result.stats.ToString().c_str());
  if (!result.found) {
    std::fprintf(stderr, "no program found within budget\n");
    return 1;
  }
  std::printf("%s", result.program.ToScript().c_str());
  return 0;
}

int Demo() {
  Table input = {
      {"Bureau of I.A."},
      {"Regional Director Numbers"},
      {"Niles C.", "Tel:(800)645-8397"},
      {"", "Fax:(907)586-7252"},
      {""},
      {"Jean H.", "Tel:(918)781-4600"},
      {"", "Fax:(918)781-4604"},
  };
  Table output = {
      {"", "Tel", "Fax"},
      {"Niles C.", "(800)645-8397", "(907)586-7252"},
      {"Jean H.", "(918)781-4600", "(918)781-4604"},
  };
  std::printf("Input example:\n%s\nOutput example:\n%s\n",
              input.ToString().c_str(), output.ToString().c_str());
  foofah::Foofah synthesizer;
  foofah::SearchResult result = synthesizer.Synthesize(input, output);
  if (!result.found) {
    std::printf("no program found\n");
    return 1;
  }
  std::printf("Synthesized program:\n%s", result.program.ToScript().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "synthesize") == 0) return Synthesize(argc, argv);
  if (std::strcmp(argv[1], "apply") == 0) return Apply(argc, argv);
  if (std::strcmp(argv[1], "explain") == 0) return Explain(argc, argv);
  if (std::strcmp(argv[1], "export-corpus") == 0) {
    return ExportCorpusCmd(argc, argv);
  }
  if (std::strcmp(argv[1], "solve-bundle") == 0) return SolveBundle(argc, argv);
  if (std::strcmp(argv[1], "demo") == 0) return Demo();
  return Usage();
}
