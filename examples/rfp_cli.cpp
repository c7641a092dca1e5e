// rfp_cli — command-line floorplanner driver.
//
// Lets downstream users run the relocation-aware floorplanner on their own
// device and problem descriptions (text formats of device/parser.hpp and
// io/problem_text.hpp) without writing C++.
//
//   rfp_cli devices
//       List the built-in device catalog.
//   rfp_cli show <device>
//       Print a device (catalog name or description file) and its columnar
//       partitioning.
//   rfp_cli solve <device> <problem-file> [options]
//       Floorplan the problem through the rfp::driver dispatch. Options:
//         --algo NAME            backend: search (default, exact), milp-o,
//                                milp-ho, heuristic, annealer — or
//                                "portfolio" to run them cooperatively
//                                (shared incumbents, staged deadlines) and
//                                keep the best/proven result
//         --threads N            in-solve parallelism: work-stealing B&B
//                                workers inside the exact search and MILP
//                                backends (default 4)
//         --thread-budget N      shared cap across all parallelism (pool ×
//                                in-solve workers never exceeds N; 0 = none)
//         --time-limit S         wall-clock deadline for the whole solve
//         --stage1-fraction F    portfolio: fraction of the deadline granted
//                                to the incomplete engines before the
//                                provers inherit the rest (default 0.25;
//                                0 = flat race)
//         --no-exchange          portfolio: disable the shared-incumbent
//                                channel (blind race, for A/B comparisons)
//         --cache-size N         result-cache capacity in entries
//                                (default 128); the cache serves repeated
//                                problems without re-solving and seeds
//                                re-solves under changed budgets
//         --no-cache             disable the result cache
//         --svg FILE             write the floorplan as SVG
//         --json FILE            write the solve response + floorplan as JSON
//         --trace FILE           record a solve timeline (spans for every
//                                engine stage, LP reopts, steals, incumbent
//                                traffic) and write it as Chrome trace-event
//                                JSON — load it at https://ui.perfetto.dev
//         --metrics              print the solve's flat metrics map and the
//                                live registry counters after the solve
//         --progress S           log a progress line (nodes / LP solves /
//                                steals) every S seconds while solving
//         --log-file FILE        append rfp::log output to FILE instead of
//                                stderr (the RFP_LOG_LEVEL environment
//                                variable still selects the level)
//   rfp_cli emit-problem <device> [fc-per-region]
//       Write the built-in SDR case-study problem for <device> to stdout in
//       the io/problem_text format (fc-per-region > 0 adds the paper's
//       relocation requests) — e.g. the SDR2 instance CI traces:
//         rfp_cli emit-problem xc5vfx70t 2 > sdr2.problem
//   rfp_cli feasibility <device> <problem-file>
//       Per-region relocatability analysis (Sec. VI of the paper).
//
// Example:
//   ./build/examples/rfp_cli devices
//   ./build/examples/rfp_cli show xc5vfx70t
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "device/catalog.hpp"
#include "device/parser.hpp"
#include "driver/cache.hpp"
#include "driver/driver.hpp"
#include "driver/response_json.hpp"
#include "io/problem_text.hpp"
#include "io/results.hpp"
#include "model/floorplan.hpp"
#include "partition/columnar.hpp"
#include "render/render.hpp"
#include "search/solver.hpp"
#include "support/log.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"

namespace {

using namespace rfp;

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    std::exit(2);
  }
  out << content;
}

/// Catalog name first, description file second.
device::Device loadDevice(const std::string& spec) {
  if (const auto dev = device::buildByName(spec)) return *dev;
  return device::parseDevice(readFile(spec));
}

int cmdDevices() {
  std::printf("%-12s %-9s %s\n", "name", "family", "description");
  for (const device::CatalogEntry& e : device::catalog())
    std::printf("%-12s %-9s %s\n", e.name.c_str(), e.family.c_str(), e.description.c_str());
  return 0;
}

int cmdShow(const std::string& spec) {
  const device::Device dev = loadDevice(spec);
  std::printf("%s", render::asciiDevice(dev).c_str());
  const auto part = partition::columnarPartition(dev);
  if (!part) {
    std::printf("\ndevice is NOT columnar-partitionable (Sec. III-B step 4 failed)\n");
    return 1;
  }
  std::printf("\ncolumnar partitioning: |P| = %zu portions, |A| = %zu forbidden areas\n",
              part->portions.size(), part->forbidden.size());
  for (const partition::Portion& p : part->portions)
    std::printf("  portion %2d: columns [%d, %d)  type %s\n", p.id, p.x, p.x2(),
                dev.tileType(p.type).name.c_str());
  return 0;
}

struct SolveArgs {
  std::string algo = "search";
  int threads = 4;
  int thread_budget = 0;
  double time_limit = 0.0;
  double stage1_fraction = 0.25;
  bool incumbent_exchange = true;
  std::size_t cache_entries = 128;
  bool use_cache = true;
  std::string svg_path;
  std::string json_path;
  std::string trace_path;
  bool print_metrics = false;
  double progress_seconds = 0.0;
};

int cmdSolve(const std::string& device_spec, const std::string& problem_path,
             const SolveArgs& args) {
  const device::Device dev = loadDevice(device_spec);
  const model::FloorplanProblem problem = io::parseProblem(readFile(problem_path), dev);

  // Solve-scoped observability: one registry + recorder shared by every
  // engine (and every portfolio member) this solve dispatches.
  telemetry::MetricsRegistry registry;
  telemetry::TraceRecorder recorder;
  telemetry::Context ctx;
  const bool observe =
      !args.trace_path.empty() || args.print_metrics || args.progress_seconds > 0;
  if (observe) {
    ctx.metrics = &registry;
    if (!args.trace_path.empty()) ctx.trace = &recorder;
  }

  driver::SolveRequest request;
  if (observe) request.telemetry = &ctx;
  request.progress_interval_seconds = args.progress_seconds;
  request.num_threads = args.threads;
  request.deadline_seconds = args.time_limit;
  request.incumbent_exchange = args.incumbent_exchange;
  request.stage1_fraction = args.stage1_fraction;
  request.use_cache = args.use_cache;
  // The MILP stages are open-ended without a budget; keep the CLI snappy.
  if (args.time_limit <= 0) request.milp.time_limit_seconds = 60.0;

  driver::DriverOptions dopt;
  dopt.cache_entries = args.use_cache ? args.cache_entries : 0;
  dopt.thread_budget = args.thread_budget;
  const driver::Driver drv(dopt);
  driver::SolveResponse res;
  if (args.algo == "portfolio") {
    res = drv.solvePortfolio(problem, request);
  } else {
    const std::optional<driver::Backend> backend = driver::backendFromString(args.algo);
    if (!backend) {
      std::fprintf(stderr, "error: unknown --algo '%s'\n", args.algo.c_str());
      return 2;
    }
    request.backend = *backend;
    res = drv.solve(problem, request);
  }

  // Validate before any artifact is written: a checker-rejected plan must
  // not leave behind a JSON file claiming success.
  if (res.hasSolution()) {
    const std::string check = model::check(problem, res.plan);
    if (!check.empty()) {
      std::fprintf(stderr, "internal error: checker rejected the solution: %s\n", check.c_str());
      return 3;
    }
  }
  if (!args.json_path.empty())
    writeFile(args.json_path, driver::solveResponseToJson(problem, res));
  if (!args.trace_path.empty()) {
    // Self-check the emitted JSON against the trace-event schema before
    // handing it to the user: a malformed file that Perfetto rejects later
    // is much harder to diagnose than a failure here.
    const std::string trace = recorder.toChromeJson();
    const telemetry::TraceSummary sum = telemetry::validateChromeTrace(trace);
    if (!sum.ok) {
      std::fprintf(stderr, "internal error: emitted trace failed validation: %s\n",
                   sum.error.c_str());
      return 3;
    }
    writeFile(args.trace_path, trace);
    std::printf("trace: %s events=%ld categories=%zu dropped=%ld "
                "(load at https://ui.perfetto.dev)\n",
                args.trace_path.c_str(), sum.events, sum.categories.size(), recorder.dropped());
  }
  if (args.print_metrics) {
    std::printf("metrics (solve response):\n");
    for (const auto& [name, value] : res.metrics)
      std::printf("  %-28s %.6g\n", name.c_str(), value);
    std::printf("metrics (live registry):\n");
    for (const auto& [name, value] : registry.flatten())
      std::printf("  %-28s %.6g\n", name.c_str(), value);
  }
  if (!res.hasSolution()) {
    std::printf("no solution: %s (%s)\n", model::toString(res.status), res.detail.c_str());
    return 1;
  }
  std::printf("solver=%s status=%s nodes=%ld time=%.2fs\n", driver::toString(res.backend),
              model::toString(res.status), res.nodes, res.seconds);
  if (res.lp.solves > 0) {
    std::printf("lp:");
    for (const lp::LpCounterField& f : lp::kLpCounterFields)
      std::printf(" %s=%ld", f.name, res.lp.*f.field);
    std::printf("\nlp:");
    for (const lp::LpRateField& r : lp::kLpRates)
      std::printf(" %s=%.2f", r.name, (res.lp.*r.rate)());
    std::printf("\n");
  }
  if (!res.workers.empty()) {
    std::printf("parallel: workers=%zu steals=%ld\n", res.workers.size(),
                totalSteals(res.workers));
    for (const WorkerStats& s : res.workers)
      std::printf("  worker %2d: nodes=%ld steals=%ld stolen=%ld idle=%.2fs\n", s.id, s.nodes,
                  s.steals, s.stolen, s.idle_seconds);
  }
  if (res.incumbent.publishes > 0 || res.incumbent.staged) {
    std::printf("incumbent: source=%s publishes=%ld adoptions=%ld cutoff-prunes=%ld%s",
                res.incumbent.source.c_str(), res.incumbent.publishes,
                res.incumbent.adoptions, res.incumbent.cutoff_prunes,
                res.incumbent.staged ? "" : "\n");
    if (res.incumbent.staged)
      std::printf(" staged stage1=%.2fs%s\n", res.incumbent.stage1_seconds,
                  res.incumbent.stage1_ended_early ? " (ended early: channel quiet)" : "");
  }
  // Portfolio racing never consults the cache; a stats line there would
  // only suggest caching was attempted and failed.
  if (drv.cache() && args.algo != "portfolio") {
    const driver::CacheStats cs = drv.cacheStats();
    std::printf("cache: hits=%ld misses=%ld evictions=%ld seeded-incumbents=%ld%s\n", cs.hits,
                cs.misses, cs.evictions, cs.seeded_incumbents,
                res.cache_hit ? " [this solve: hit]"
                              : (res.cache_seeded ? " [this solve: seeded]" : ""));
  }
  for (const driver::PortfolioMemberStats& m : res.members)
    std::printf("member: %-9s stage=%d status=%-11s nodes=%ld time=%.2fs published=%ld "
                "adopted=%ld cutoff-prunes=%ld\n",
                driver::toString(m.backend), m.stage, model::toString(m.status), m.nodes,
                m.seconds, m.exchange.published, m.exchange.adopted, m.exchange.cutoff_prunes);
  std::printf("wasted_frames=%ld wire_length=%.1f fc_areas=%d/%d\n\n", res.costs.wasted_frames,
              res.costs.wire_length, res.plan.placedFcCount(), problem.totalFcAreas());
  std::printf("%s", render::ascii(problem, res.plan).c_str());

  if (!args.svg_path.empty()) writeFile(args.svg_path, render::svg(problem, res.plan));
  return 0;
}

int cmdEmitProblem(const std::string& device_spec, int fc_per_region) {
  const device::Device dev = loadDevice(device_spec);
  model::FloorplanProblem problem = model::makeSdrProblem(dev);
  if (fc_per_region > 0) model::addSdrRelocations(problem, fc_per_region);
  std::printf("%s", io::formatProblem(problem).c_str());
  return 0;
}

int cmdFeasibility(const std::string& device_spec, const std::string& problem_path,
                   int threads) {
  const device::Device dev = loadDevice(device_spec);
  const model::FloorplanProblem problem = io::parseProblem(readFile(problem_path), dev);
  search::SearchOptions opt;
  opt.num_threads = threads;
  const std::vector<bool> reloc =
      search::ColumnarSearchSolver(opt).feasibilityAnalysis(problem);
  std::printf("%-24s relocatable?\n", "region");
  for (int n = 0; n < problem.numRegions(); ++n)
    std::printf("%-24s %s\n", problem.region(n).name.c_str(),
                reloc[static_cast<std::size_t>(n)] ? "yes" : "no");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  rfp_cli devices\n"
               "  rfp_cli show <device>\n"
               "  rfp_cli solve <device> <problem-file> [--threads N] [--thread-budget N]\n"
               "                [--time-limit S]\n"
               "                [--algo search|milp-o|milp-ho|heuristic|annealer|portfolio]\n"
               "                [--stage1-fraction F] [--no-exchange]\n"
               "                [--cache-size N] [--no-cache]\n"
               "                [--svg FILE] [--json FILE] [--trace FILE] [--metrics]\n"
               "                [--progress S] [--log-file FILE]\n"
               "  rfp_cli emit-problem <device> [fc-per-region]\n"
               "  rfp_cli feasibility <device> <problem-file> [--threads N]\n"
               "<device> is a catalog name (see 'devices') or a description file.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "devices") return cmdDevices();
    if (cmd == "show" && argc >= 3) return cmdShow(argv[2]);
    if (cmd == "emit-problem" && argc >= 3)
      return cmdEmitProblem(argv[2], argc >= 4 ? std::stoi(argv[3]) : 0);
    if ((cmd == "solve" || cmd == "feasibility") && argc >= 4) {
      SolveArgs args;
      for (int i = 4; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto next = [&]() -> std::string {
          if (i + 1 >= argc) {
            std::fprintf(stderr, "error: %s needs a value\n", flag.c_str());
            std::exit(2);
          }
          return argv[++i];
        };
        if (flag == "--algo")
          args.algo = next();
        else if (flag == "--threads")
          args.threads = std::stoi(next());
        else if (flag == "--thread-budget")
          args.thread_budget = std::stoi(next());
        else if (flag == "--time-limit")
          args.time_limit = std::stod(next());
        else if (flag == "--stage1-fraction")
          args.stage1_fraction = std::stod(next());
        else if (flag == "--no-exchange")
          args.incumbent_exchange = false;
        else if (flag == "--cache-size")
          args.cache_entries = static_cast<std::size_t>(std::stoul(next()));
        else if (flag == "--no-cache")
          args.use_cache = false;
        else if (flag == "--svg")
          args.svg_path = next();
        else if (flag == "--json")
          args.json_path = next();
        else if (flag == "--trace")
          args.trace_path = next();
        else if (flag == "--metrics")
          args.print_metrics = true;
        else if (flag == "--progress") {
          args.progress_seconds = std::stod(next());
          // The ticker speaks at info level; the default warn threshold
          // would silently swallow the lines the user just asked for.
          if (rfp::log::level() > rfp::log::Level::kInfo)
            rfp::log::setLevel(rfp::log::Level::kInfo);
        } else if (flag == "--log-file") {
          const std::string path = next();
          if (!rfp::log::setLogFile(path)) {
            std::fprintf(stderr, "error: cannot open log file '%s'\n", path.c_str());
            return 2;
          }
        } else
          return usage();
      }
      return cmd == "solve" ? cmdSolve(argv[2], argv[3], args)
                            : cmdFeasibility(argv[2], argv[3], args.threads);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}
