// The paper's Section VI case study, end to end: the software-defined-radio
// design of [8] on the Virtex-5 FX70T — feasibility analysis, SDR2/SDR3
// floorplanning with relocation constraints, and comparison against the
// relocation-unaware baseline.
#include <cstdio>

#include "baseline/vipin_fahmy.hpp"
#include "device/builders.hpp"
#include "io/results.hpp"
#include "model/floorplan.hpp"
#include "render/render.hpp"
#include "search/solver.hpp"

int main() {
  using namespace rfp;
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem sdr = model::makeSdrProblem(dev);

  std::printf("=== SDR design on %s (Table I) ===\n", dev.name().c_str());
  std::printf("%-18s %5s %5s %5s %8s\n", "region", "CLB", "BRAM", "DSP", "#frames");
  for (int n = 0; n < sdr.numRegions(); ++n) {
    const model::RegionSpec& r = sdr.region(n);
    std::printf("%-18s %5d %5d %5d %8ld\n", r.name.c_str(), r.required(0), r.required(1),
                r.required(2), sdr.minFrames(n));
  }

  search::SearchOptions opt;
  opt.num_threads = 8;
  const search::ColumnarSearchSolver solver(opt);

  std::printf("\n=== Feasibility analysis (Sec. VI) ===\n");
  const std::vector<bool> reloc = solver.feasibilityAnalysis(sdr);
  for (int n = 0; n < sdr.numRegions(); ++n)
    std::printf("%-18s : %s\n", sdr.region(n).name.c_str(),
                reloc[static_cast<std::size_t>(n)] ? "relocatable" : "NOT relocatable");

  std::printf("\n=== Floorplans ===\n");
  const auto run = [&](const char* name, int fc_per_region) {
    model::FloorplanProblem p = model::makeSdrProblem(dev);
    if (fc_per_region > 0) model::addSdrRelocations(p, fc_per_region);
    const search::SearchResult res = solver.solve(p);
    std::printf("%-5s status=%-9s wasted_frames=%4ld wire_length=%7.1f fc_areas=%d\n", name,
                model::toString(res.status), res.costs.wasted_frames, res.costs.wire_length,
                res.hasSolution() ? res.plan.placedFcCount() : 0);
    return res;
  };
  run("SDR", 0);
  const search::SearchResult sdr2 = run("SDR2", 2);
  run("SDR3", 3);

  const auto vf = baseline::vipinFahmyFloorplan(sdr);
  if (vf)
    std::printf("[8]   (baseline)      wasted_frames=%4ld wire_length=%7.1f fc_areas=0\n",
                model::evaluate(sdr, *vf).wasted_frames, model::evaluate(sdr, *vf).wire_length);

  if (sdr2.hasSolution()) {
    model::FloorplanProblem p2 = model::makeSdrProblem(dev);
    model::addSdrRelocations(p2, 2);
    std::printf("\n=== SDR2 floorplan (cf. Fig. 4) ===\n%s\n",
                render::ascii(p2, sdr2.plan).c_str());
    std::printf("JSON: %s\n", io::floorplanToJson(p2, sdr2.plan).c_str());
  }
  return 0;
}
