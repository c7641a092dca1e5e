// ABLATION F: what each branch-and-bound feature buys on the paper's model
// class (DESIGN.md substitution 1: the from-scratch MILP solver stands in
// for the commercial branch-and-cut solver of [10]).
//
// Runs the O formulation, stage 1 (minimize wasted frames), on a small
// relocation instance with each solver feature toggled, reporting nodes,
// LP iterations and wall time.
#include <cstdio>

#include "device/builders.hpp"
#include "fp/formulation.hpp"
#include "milp/bb.hpp"
#include "model/problem.hpp"
#include "partition/columnar.hpp"
#include "support/timer.hpp"

int main() {
  using namespace rfp;

  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 5);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {3, 0, 1}});
  p.addRegion(model::RegionSpec{"b", {2, 1, 0}});
  p.addNet(model::Net{{0, 1}, 2.0, "n"});
  p.addRelocation(model::RelocationRequest{1, 1, true, 1.0});

  const auto part = partition::columnarPartition(dev);
  fp::FormulationOptions fopt;
  fopt.objective = fp::ObjectiveKind::kWastedFrames;
  const fp::MilpFormulation formulation(p, *part, fopt);

  std::printf("ABLATION F: MILP solver features on the O formulation (stage 1)\n");
  std::printf("model: %d vars, %d constraints (8x5 device, 2 regions + 1 FC area)\n\n",
              formulation.model().numVars(), formulation.model().numConstrs());
  std::printf("%-28s %10s %8s %12s %9s\n", "configuration", "status", "nodes",
              "lp-iters", "time[s]");

  struct Config {
    const char* name;
    bool presolve, cuts, pseudo;
  };
  const Config configs[] = {
      {"baseline (none)", false, false, false},
      {"+presolve", true, false, false},
      {"+cover cuts", false, true, false},
      {"+pseudo-cost branching", false, false, true},
      {"all features", true, true, true},
  };
  for (const Config& cfg : configs) {
    milp::MilpSolver::Options opt;
    opt.enable_presolve = cfg.presolve;
    opt.enable_cover_cuts = cfg.cuts;
    opt.pseudo_cost_branching = cfg.pseudo;
    opt.time_limit_seconds = 120;
    Stopwatch watch;
    const milp::MipResult res = milp::MilpSolver(opt).solve(formulation.model());
    std::printf("%-28s %10s %8ld %12ld %9.2f\n", cfg.name, milp::toString(res.status),
                res.nodes, res.lp.iterations, watch.seconds());
  }

  std::printf(
      "\nexpected shape: pseudo-cost branching is the dominant lever on this\n"
      "model class (big-M rows make fractionality a poor branching signal).\n"
      "Cover cuts are inert here — the O formulation has no pure-binary\n"
      "knapsack rows — but fire on the knapsack instances of\n"
      "bench_solver_micro. Presolve's value is infeasibility detection and\n"
      "per-branch tightening rather than root speedup on feasible instances.\n");
  return 0;
}
