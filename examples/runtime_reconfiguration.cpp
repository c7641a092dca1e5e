// Runtime reconfiguration on top of a relocation-aware floorplan.
//
// The paper's motivation (Sec. I): reserving free-compatible areas at
// floorplanning time lets a runtime *relocate* partial bitstreams — one
// stored bitstream per module mode instead of one per mode and location.
// This example floorplans the SDR2 instance (Sec. VI), then drives a
// migration-heavy mode-switch schedule through the reconfiguration
// simulator under both storage policies and compares:
//   * bitstream store footprint (the design-reuse benefit), and
//   * per-switch latency (the relocation filter's runtime cost).
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/runtime_reconfiguration
#include <cstdio>
#include <vector>

#include "device/builders.hpp"
#include "model/problem.hpp"
#include "reconfig/reconfig.hpp"
#include "search/solver.hpp"

int main() {
  using namespace rfp;

  // 1. Floorplan SDR2: two free-compatible areas per relocatable region.
  const device::Device dev = device::virtex5FX70T();
  model::FloorplanProblem sdr2 = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr2, 2);
  search::SearchOptions sopt;
  sopt.num_threads = 8;
  const search::SearchResult sol = search::ColumnarSearchSolver(sopt).solve(sdr2);
  if (!sol.hasSolution()) {
    std::printf("floorplanning failed: %s\n", model::toString(sol.status));
    return 1;
  }
  std::printf("SDR2 floorplan: %d free-compatible areas, %ld wasted frames\n\n",
              sol.plan.placedFcCount(), sol.costs.wasted_frames);

  // 2. A schedule: each relocatable module cycles its two modes across its
  //    home area and both FC areas (task migration), 60 switches total.
  const std::vector<int> relocatable{model::kCarrierRecovery, model::kDemodulator,
                                     model::kSignalDecoder};
  std::vector<reconfig::SwitchRequest> schedule;
  double t = 0.0;
  for (int round = 0; round < 10; ++round)
    for (const int region : relocatable)
      for (int target = 0; target < 2; ++target)
        schedule.push_back(reconfig::SwitchRequest{
            t += 25.0, region, (round + target) % 2 ? "demod_qpsk" : "demod_bpsk",
            (round + target) % 3});

  // 3. Run under both storage policies.
  for (const reconfig::StorePolicy policy :
       {reconfig::StorePolicy::kRelocationAware, reconfig::StorePolicy::kPerLocation}) {
    reconfig::ReconfigSimulator sim(sdr2, sol.plan, policy);
    for (const int region : relocatable)
      sim.registerModes(region,
                        {reconfig::ModuleMode{"demod_bpsk", 0xB00 + static_cast<unsigned>(region)},
                         reconfig::ModuleMode{"demod_qpsk", 0xC00 + static_cast<unsigned>(region)}});

    const reconfig::SimulationResult res = sim.run(schedule);
    std::printf("policy %-17s : %ld bitstreams, %8.1f KiB stored\n",
                reconfig::toString(policy), sim.store().bitstreamCount(),
                static_cast<double>(sim.store().totalBytes()) / 1024.0);
    std::printf("  switches=%ld relocations=%ld  icap=%.1fus filter=%.1fus  makespan=%.1fus\n",
                res.stats.switches, res.stats.relocations, res.stats.total_icap_us,
                res.stats.total_filter_us, res.stats.makespan_us);
    double worst = 0;
    for (const reconfig::SwitchRecord& r : res.records)
      worst = worst > (r.ready_us - r.start_us) ? worst : (r.ready_us - r.start_us);
    std::printf("  worst single-switch latency: %.2f us\n\n", worst);
  }

  std::printf(
      "expected: relocation-aware stores 3x fewer bitstreams (one per mode\n"
      "instead of one per mode x 3 targets) at a small per-switch filter cost.\n");
  return 0;
}
