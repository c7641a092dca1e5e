// Seeded workload generation for the layered benchmark.
//
// Every input the program under test sees is *text*: device descriptions in
// the device/parser.hpp format and problems in the io/problem_text.hpp
// format. The generators here are the benchmark's own (they do not call the
// library's model::generateProblem), so a change to the library can never
// change the inputs it is measured on. One seed gives byte-identical texts;
// another seed gives different texts with (nearly) the same work — what the
// seed changes per workload is described in perfbench/README.md.
//
// A workload is a closed-loop stream of requests from one client. The
// stream is a fixed *pass* of requests, replayed until the run's time is
// up; every request is bounded by work (node limits), never by time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/driver.hpp"

namespace perfbench {

/// SplitMix64: tiny, seedable and identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (n >= 1; the modulo bias is irrelevant here).
  int below(int n) { return n <= 1 ? 0 : static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  /// Uniform in [lo, hi].
  int range(int lo, int hi) { return lo + below(hi - lo + 1); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// A columnar device: one tile-type letter per column (C = CLB, B = BRAM,
/// D = DSP, with the Virtex-5 frame counts) and forbidden rectangles.
struct DeviceSpec {
  std::string name;
  std::string columns;
  int rows = 0;
  struct Block {
    int x, y, w, h;
  };
  std::vector<Block> forbidden;
};

[[nodiscard]] std::string deviceText(const DeviceSpec& dev);

/// The paper's evaluation part (Sec. VI), 44 x 8 tiles with the PPC440 block.
[[nodiscard]] DeviceSpec paperDevice();

/// Shape of a generated problem: regions are packed as disjoint rectangles
/// on the device and each region requires (1 - slack) of the tiles its
/// rectangle covers, so every generated problem is feasible by construction.
struct ProblemShape {
  int regions = 3;
  int max_w = 4;
  int max_h = 2;
  int extra_nets = 1;       ///< random 2-pin nets on top of a chain
  int fc_per_region = 0;    ///< hard free-compatible areas per relocated region
  int relocated = 0;        ///< regions carrying relocation requests
  double slack = 0.0;
  bool weighted = false;    ///< Eq. 14 objective instead of lexicographic
};

/// Deterministic problem text for `shape` on `dev`. Region requirement
/// vectors are kept pairwise distinct (the result cache ranks regions by
/// them, so permuted twins always share one fingerprint). Returns "" when
/// the packing fails; callers advance the seed.
[[nodiscard]] std::string problemText(const DeviceSpec& dev, const ProblemShape& shape,
                                      std::uint64_t seed, const std::string& name);

/// The same problem with its region, net and relocation lines permuted:
/// a different text with the same answer and the same cache fingerprint.
[[nodiscard]] std::string permutedTwin(const std::string& text, std::uint64_t seed);

/// The paper's SDR design (Table I) with `fc` free-compatible areas for
/// each relocatable region.
[[nodiscard]] std::string sdrProblemText(int fc);

/// One client request: `problems` holds one index for Driver::solve and
/// several for Driver::solveBatch.
struct Request {
  rfp::driver::Backend backend = rfp::driver::Backend::kSearch;
  long node_limit = 0;  ///< per engine stage; 0 = none (exact search only)
  std::vector<int> problems;
};

struct Workload {
  std::string name;
  std::vector<std::string> devices;  ///< device texts
  struct Problem {
    int device = 0;
    std::string instance;  ///< reference-table id; twins share it
    std::string text;
  };
  std::vector<Problem> problems;
  /// One pass of the closed loop. Passes hold 25 or 105 requests: with n
  /// = 5 (mod 10) requests repeated over whole passes, the nearest-rank p50
  /// and p90 fall in the middle of one request's repetitions instead of on
  /// the edge between two requests, so they do not jump with noise.
  std::vector<Request> pass;
  std::vector<Request> warmup;  ///< replayed during set-up (seed-invariant work)
  bool batch = false;           ///< Driver::solveBatch requests
  int pool = 1;                 ///< solveBatch pool width
  std::size_t cache_entries = 0;
  int thread_budget = 1;
};

/// batch-sweep's pass: kSweepBatches batches of kSweepBatchSize problems,
/// the first kSweepFreshPerBatch of each new to the stream.
constexpr int kSweepBatches = 105, kSweepBatchSize = 32, kSweepFreshPerBatch = 4;

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// Builds the workload `name` for `seed`; throws std::invalid_argument for
/// an unknown name.
[[nodiscard]] Workload makeWorkload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
