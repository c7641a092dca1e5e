#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "model/floorplan.hpp"

namespace perfbench {

namespace {

constexpr double kRelTol = 1e-6;

bool close(double a, double b) {
  return std::fabs(a - b) <= kRelTol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

/// -1: `a` beats the reference, 0: ties it, 1: is worse.
int compare(const rfp::model::FloorplanCosts& a, const Reference& ref, bool lexicographic) {
  if (lexicographic) {
    if (a.wasted_frames != ref.waste) return a.wasted_frames < ref.waste ? -1 : 1;
    if (close(a.wire_length, ref.wire_length)) return 0;
    return a.wire_length < ref.wire_length ? -1 : 1;
  }
  if (close(a.objective, ref.objective)) return 0;
  return a.objective < ref.objective ? -1 : 1;
}

}  // namespace

double percentile(const std::vector<double>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return sorted[std::min(rank, sorted.size()) - 1];
}

bool tailReportable(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n >= rank + 10;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geometricMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return values.empty() ? 1.0 : std::exp(log_sum / static_cast<double>(values.size()));
}

ReferenceTable parseReferenceTable(const std::string& text) {
  ReferenceTable table;
  std::istringstream in(text);
  int line_no = 0;
  for (std::string line; std::getline(in, line);) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, status;
    Reference ref;
    if (!(fields >> key >> status >> ref.waste >> ref.wire_length >> ref.objective) ||
        (status != "optimal" && status != "infeasible"))
      throw std::runtime_error("reference table line " + std::to_string(line_no) +
                               " is malformed: " + line);
    ref.feasible = status == "optimal";
    table[key] = ref;
  }
  return table;
}

std::string formatReference(const std::string& key, const Reference& ref) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\t%s\t%ld\t%.17g\t%.17g", key.c_str(),
                ref.feasible ? "optimal" : "infeasible", ref.waste, ref.wire_length,
                ref.objective);
  return buf;
}

double costRatio(const rfp::model::FloorplanCosts& achieved, const Reference& ref,
                 bool lexicographic) {
  if (compare(achieved, ref, lexicographic) == 0) return 1.0;
  if (lexicographic) {
    if (achieved.wasted_frames != ref.waste)
      return static_cast<double>(achieved.wasted_frames + 1) / static_cast<double>(ref.waste + 1);
    return (achieved.wire_length + 1.0) / (ref.wire_length + 1.0);
  }
  return ref.objective > 0.0 ? achieved.objective / ref.objective : 1.0 + achieved.objective;
}

std::string judge(const rfp::model::FloorplanProblem& problem,
                  const rfp::driver::SolveResponse& response, const Reference& ref) {
  using rfp::driver::SolveStatus;
  std::ostringstream why;
  if (!response.hasSolution()) {
    if (response.status == SolveStatus::kInfeasible && ref.feasible)
      why << "claims infeasibility but the reference has a plan";
    else if (ref.feasible)
      why << "no plan although the reference has one (" << response.detail << ")";
    return why.str();
  }
  const std::string violation = rfp::model::check(problem, response.plan);
  if (!violation.empty()) return "plan fails the checker: " + violation;
  const rfp::model::FloorplanCosts own = rfp::model::evaluate(problem, response.plan);
  if (own.wasted_frames != response.costs.wasted_frames ||
      !close(own.wire_length, response.costs.wire_length) ||
      !close(own.objective, response.costs.objective))
    return "reported costs are not the plan's own";
  if (!ref.feasible) return "returns a plan for a problem the reference proves infeasible";
  const int cmp = compare(own, ref, problem.lexicographic());
  if (cmp < 0)
    why << "beats the proven optimum (waste " << own.wasted_frames << " wl " << own.wire_length
        << " vs " << ref.waste << " / " << ref.wire_length << ")";
  else if (cmp > 0 && response.status == SolveStatus::kOptimal)
    why << "claims optimality at waste " << own.wasted_frames << " wl " << own.wire_length
        << " but the optimum is " << ref.waste << " / " << ref.wire_length;
  return why.str();
}

}  // namespace perfbench
