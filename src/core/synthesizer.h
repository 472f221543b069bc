#ifndef FOOFAH_CORE_SYNTHESIZER_H_
#define FOOFAH_CORE_SYNTHESIZER_H_

#include <string>
#include <string_view>

#include "program/program.h"
#include "search/search.h"
#include "table/table.h"
#include "util/status.h"

namespace foofah {

/// The Foofah synthesizer: the paper's end-user API. Give it a small
/// input-output example pair (e_i, e_o) and it returns a straight-line
/// Potter's Wheel program P with P(e_i) = e_o, which you then run on the
/// full raw dataset (§3.1).
///
/// Quickstart:
///   Foofah foofah;                          // paper-default configuration
///   SearchResult r = foofah.Synthesize(ei, eo);
///   if (r.found) {
///     std::cout << r.program.ToScript();
///     Table clean = r.program.Execute(raw_data).value();
///   }
class Foofah {
 public:
  /// Uses the paper's default configuration: A* + TED Batch + all pruning
  /// rules + the default operator library, 60 s timeout.
  Foofah() = default;

  /// Custom search configuration (strategy, heuristic, pruning, registry,
  /// budgets, and `num_threads`, which never changes results — only
  /// wall-clock).
  /// `options.registry`, if set, must outlive this object.
  explicit Foofah(SearchOptions options) : options_(options) {}

  const SearchOptions& options() const { return options_; }

  /// Synthesizes a program transforming `input_example` into
  /// `output_example`. The returned program, when found, is guaranteed
  /// correct on the example pair (§4.5 "correct"); whether it is *perfect*
  /// (generalizes to the full dataset) depends on the example's
  /// representativeness — see PerfectProgramDriver.
  SearchResult Synthesize(const Table& input_example,
                          const Table& output_example) const;

  /// Convenience overload parsing the examples from CSV text.
  Result<SearchResult> SynthesizeFromCsv(std::string_view input_csv,
                                         std::string_view output_csv) const;

 private:
  SearchOptions options_;
};

}  // namespace foofah

#endif  // FOOFAH_CORE_SYNTHESIZER_H_
