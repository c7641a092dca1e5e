// Ablation C: microbenchmarks of the solver substrate (google-benchmark):
// simplex scaling on random dense LPs, branch-and-bound on knapsacks, and
// the exact-search candidate machinery.
#include <benchmark/benchmark.h>

#include "device/builders.hpp"
#include "lp/lp_solver.hpp"
#include "milp/bb.hpp"
#include "model/problem.hpp"
#include "partition/columnar.hpp"
#include "search/candidates.hpp"
#include "search/solver.hpp"
#include "support/rng.hpp"

namespace {

using namespace rfp;

lp::Model randomLp(int n, int m, std::uint64_t seed) {
  Rng rng(seed);
  lp::Model model;
  std::vector<lp::Var> vars;
  for (int j = 0; j < n; ++j)
    vars.push_back(model.addContinuous(0, 1 + static_cast<double>(rng.nextBelow(9)), "v"));
  for (int i = 0; i < m; ++i) {
    lp::LinExpr e;
    for (int j = 0; j < n; ++j)
      e += static_cast<double>(rng.nextBelow(5)) * vars[static_cast<std::size_t>(j)];
    model.addConstr(e, lp::Sense::kLessEqual, 5.0 + static_cast<double>(rng.nextBelow(40)));
  }
  lp::LinExpr obj;
  for (int j = 0; j < n; ++j)
    obj += (1.0 + static_cast<double>(rng.nextBelow(7))) * vars[static_cast<std::size_t>(j)];
  model.setObjective(obj, lp::ObjSense::kMaximize);
  return model;
}

void BM_SimplexRandomDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const lp::Model model = randomLp(n, n, 7);
  const lp::LpSolver solver;
  for (auto _ : state) {
    const lp::LpResult r = solver.solve(model);
    benchmark::DoNotOptimize(r.objective);
  }
  state.SetLabel("n=m=" + std::to_string(n));
}
BENCHMARK(BM_SimplexRandomDense)->Arg(10)->Arg(30)->Arg(60)->Arg(120);

void BM_MilpKnapsack(benchmark::State& state) {
  const int items = static_cast<int>(state.range(0));
  Rng rng(11);
  lp::Model model;
  lp::LinExpr weight, value;
  for (int i = 0; i < items; ++i) {
    const lp::Var v = model.addBinary("v");
    weight += (1.0 + static_cast<double>(rng.nextBelow(9))) * v;
    value += (1.0 + static_cast<double>(rng.nextBelow(17))) * v;
  }
  model.addConstr(weight, lp::Sense::kLessEqual, 2.0 * items);
  model.setObjective(value, lp::ObjSense::kMaximize);
  milp::MilpSolver solver;
  for (auto _ : state) {
    const milp::MipResult r = solver.solve(model);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_MilpKnapsack)->Arg(8)->Arg(12)->Arg(16);

void BM_ColumnarPartitionFx70t(benchmark::State& state) {
  const device::Device dev = device::virtex5FX70T();
  for (auto _ : state) {
    const auto part = partition::columnarPartition(dev);
    benchmark::DoNotOptimize(part->portions.size());
  }
}
BENCHMARK(BM_ColumnarPartitionFx70t);

void BM_CandidateEnumerationSdr(benchmark::State& state) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
  const int region = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const search::RegionCandidates c = search::enumerateCandidates(sdr, region);
    benchmark::DoNotOptimize(c.shapes.size());
  }
  state.SetLabel(sdr.region(region).name);
}
BENCHMARK(BM_CandidateEnumerationSdr)->Arg(0)->Arg(4);

void BM_SdrExactSolve(benchmark::State& state) {
  const device::Device dev = device::virtex5FX70T();
  search::SearchOptions opt;
  opt.num_threads = static_cast<int>(state.range(0));
  const search::ColumnarSearchSolver solver(opt);
  for (auto _ : state) {
    const model::FloorplanProblem sdr = model::makeSdrProblem(dev);
    const search::SearchResult r = solver.solve(sdr);
    benchmark::DoNotOptimize(r.costs.wasted_frames);
  }
}
BENCHMARK(BM_SdrExactSolve)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
