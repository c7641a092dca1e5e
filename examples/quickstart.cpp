// Quickstart: describe a device, ask for a floorplan with one relocatable
// region, print the result.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>
#include <string>

#include "device/parser.hpp"
#include "model/floorplan.hpp"
#include "model/problem.hpp"
#include "render/render.hpp"
#include "search/solver.hpp"

int main() {
  using namespace rfp;

  // 1. Describe the device in the text format (or use device::virtex5FX70T()).
  const device::Device dev = device::parseDevice(R"(
device quickstart-device
rows 6
tiletype C CLB  frames=36 CLB=20
tiletype B BRAM frames=30 BRAM36=4
tiletype D DSP  frames=28 DSP48E=8
columns CCBCCDCCCBCC
forbidden 8 4 2 2 hardblock
)");
  std::printf("Device '%s' (%dx%d tiles):\n%s\n", dev.name().c_str(), dev.width(),
              dev.height(), render::asciiDevice(dev).c_str());

  // 2. Define the floorplanning problem: two regions connected by a bus;
  //    region "filter" must have one free-compatible area reserved so its
  //    bitstream can be relocated at run time (Sec. IV of the paper).
  model::FloorplanProblem problem(&dev);
  const int filter = problem.addRegion(model::RegionSpec{"filter", {4, 0, 1}});
  problem.addRegion(model::RegionSpec{"decoder", {6, 1, 0}});
  problem.addNet(model::Net{{0, 1}, 32.0, "bus"});
  problem.addRelocation(model::RelocationRequest{filter, 1, /*hard=*/true, 1.0});

  // 3. Solve exactly: minimize wasted frames, then wire length.
  search::SearchOptions options;
  options.num_threads = 4;
  const search::SearchResult result = search::ColumnarSearchSolver(options).solve(problem);
  if (!result.hasSolution()) {
    std::printf("no feasible floorplan: %s\n", model::toString(result.status));
    return 1;
  }

  // 4. Inspect and independently verify the result.
  std::printf("status=%s wasted_frames=%ld wire_length=%.1f (%.3fs, %ld nodes)\n\n",
              model::toString(result.status), result.costs.wasted_frames,
              result.costs.wire_length, result.seconds, result.nodes);
  std::printf("%s\n", render::ascii(problem, result.plan).c_str());
  const std::string check_error = model::check(problem, result.plan);
  std::printf("independent checker: %s\n", check_error.empty() ? "OK" : check_error.c_str());
  return check_error.empty() ? 0 : 1;
}
