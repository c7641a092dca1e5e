#include "driver/driver.hpp"

#include "driver/backend_runner.hpp"
#include "driver/cache.hpp"

namespace rfp::driver {

const char* toString(Backend b) noexcept {
  switch (b) {
    case Backend::kSearch: return "search";
    case Backend::kMilpO: return "milp-o";
    case Backend::kMilpHO: return "milp-ho";
    case Backend::kHeuristic: return "heuristic";
    case Backend::kAnnealer: return "annealer";
  }
  return "?";
}

std::optional<Backend> backendFromString(std::string_view name) noexcept {
  for (const Backend b : allBackends())
    if (name == toString(b)) return b;
  // CLI-friendly aliases matching rfp_cli's historical --algo values.
  if (name == "o") return Backend::kMilpO;
  if (name == "ho") return Backend::kMilpHO;
  return std::nullopt;
}

const std::vector<Backend>& allBackends() {
  static const std::vector<Backend> kAll = {Backend::kSearch, Backend::kMilpO, Backend::kMilpHO,
                                            Backend::kHeuristic, Backend::kAnnealer};
  return kAll;
}

bool isExhaustive(Backend b) noexcept {
  return b == Backend::kSearch || b == Backend::kMilpO;
}

Driver::Driver() : Driver(DriverOptions{}) {}

Driver::Driver(const DriverOptions& options)
    : cache_(options.cache_entries > 0 ? std::make_shared<ResultCache>(options.cache_entries)
                                       : nullptr),
      options_(options) {}

SolveResponse Driver::solve(const model::FloorplanProblem& problem,
                            const SolveRequest& request) const {
  SolveRequest capped = request;
  detail::capInSolveThreads(&capped, options_.thread_budget);
  const detail::ProgressTicker ticker(capped.telemetry, capped.progress_interval_seconds);
  return detail::solveThroughCache(cache_.get(), problem, capped, /*external_stop=*/nullptr);
}

CacheStats Driver::cacheStats() const {
  return cache_ ? cache_->stats() : CacheStats{};
}

}  // namespace rfp::driver
