// Statistics and the correctness oracle of the benchmark.
//
// Reference optima are committed beside the workload definition
// (perfbench/data/reference.tsv, produced by `perfbench reference` with the
// exact search and no limits). Every answer is judged against them outside
// the timed region.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "driver/driver.hpp"

namespace perfbench {

/// Nearest-rank percentile of an ascending sample: the value at rank
/// ceil(q * n). `q` in (0, 1]; the sample must be non-empty.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q);

/// The percentile rule: a tail percentile is reported only when at least
/// ten samples lie beyond its rank.
[[nodiscard]] bool tailReportable(std::size_t n, double q);

[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double geometricMean(const std::vector<double>& values);

/// Reference answer of one instance: "optimal" with its costs, or
/// "infeasible".
struct Reference {
  bool feasible = false;
  long waste = 0;
  double wire_length = 0.0;
  double objective = 0.0;
};

/// Keyed by "<workload>/<instance>".
using ReferenceTable = std::map<std::string, Reference>;

/// Parses the tab-separated table: key, status, waste, wire length,
/// objective. Throws std::runtime_error on a malformed line.
[[nodiscard]] ReferenceTable parseReferenceTable(const std::string& text);
[[nodiscard]] std::string formatReference(const std::string& key, const Reference& ref);

/// Achieved cost over the reference optimum (>= 1 unless the answer beats
/// the reference). Lexicographic problems rank wasted frames before wire
/// length: a waste difference gives (waste + 1) / (ref_waste + 1), equal
/// waste gives (wire length + 1) / (ref wire length + 1). Weighted problems
/// use the Eq. 14 objective. Exactly 1.0 when the costs match.
[[nodiscard]] double costRatio(const rfp::model::FloorplanCosts& achieved, const Reference& ref,
                               bool lexicographic);

/// Why an answer is wrong; empty when it is acceptable. Wrong means: no
/// plan although the reference has one, a plan the checker rejects or whose
/// reported costs are not its own, a proof that disagrees with the
/// reference, or any answer that beats the proven optimum.
[[nodiscard]] std::string judge(const rfp::model::FloorplanProblem& problem,
                                const rfp::driver::SolveResponse& response, const Reference& ref);

}  // namespace perfbench
