#include "gen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::array<char, 3> kTypeChars{'C', 'B', 'D'};
constexpr std::array<const char*, 3> kTypeNames{"CLB", "BRAM", "DSP"};

bool overlaps(const DeviceSpec::Block& a, const DeviceSpec::Block& b) {
  return a.x < b.x + b.w && b.x < a.x + a.w && a.y < b.y + b.h && b.y < a.y + a.h;
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (int i = static_cast<int>(v.size()) - 1; i > 0; --i)
    std::swap(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(rng.below(i + 1))]);
}

}  // namespace

std::string deviceText(const DeviceSpec& dev) {
  std::ostringstream out;
  out << "device " << dev.name << "\nrows " << dev.rows << "\n"
      << "tiletype C CLB frames=36 CLB=20\n"
      << "tiletype B BRAM frames=30 BRAM36=4\n"
      << "tiletype D DSP frames=28 DSP48E=8\n"
      << "columns " << dev.columns << "\n";
  for (const DeviceSpec::Block& b : dev.forbidden)
    out << "forbidden " << b.x << " " << b.y << " " << b.w << " " << b.h << " hardblock\n";
  return out.str();
}

DeviceSpec paperDevice() {
  return DeviceSpec{"xc5vfx70t", "CCBCCCCDCCCCCBCCCBCCCCDCCCCCBCCCCCCBCCCCCCCC", 8, {{30, 3, 8, 3}}};
}

std::string problemText(const DeviceSpec& dev, const ProblemShape& shape, std::uint64_t seed,
                        const std::string& name) {
  Rng rng(seed);
  const int width = static_cast<int>(dev.columns.size());
  std::vector<DeviceSpec::Block> placed;
  for (int n = 0; n < shape.regions; ++n) {
    bool ok = false;
    for (int attempt = 0; attempt < 200 && !ok; ++attempt) {
      const int w = 1 + rng.below(std::min(shape.max_w, width));
      const int h = 1 + rng.below(std::min(shape.max_h, dev.rows));
      const DeviceSpec::Block r{rng.below(width - w + 1), rng.below(dev.rows - h + 1), w, h};
      ok = std::none_of(dev.forbidden.begin(), dev.forbidden.end(),
                        [&](const DeviceSpec::Block& f) { return overlaps(r, f); }) &&
           std::none_of(placed.begin(), placed.end(),
                        [&](const DeviceSpec::Block& p) { return overlaps(r, p); });
      if (ok) placed.push_back(r);
    }
    if (!ok) return "";
  }

  std::ostringstream out;
  out << "problem " << name << "\n";
  std::set<std::array<int, 3>> seen;
  for (int n = 0; n < shape.regions; ++n) {
    const DeviceSpec::Block& r = placed[static_cast<std::size_t>(n)];
    std::array<int, 3> req{0, 0, 0};
    for (int x = r.x; x < r.x + r.w; ++x)
      for (std::size_t t = 0; t < kTypeChars.size(); ++t)
        if (dev.columns[static_cast<std::size_t>(x)] == kTypeChars[t]) req[t] += r.h;
    for (int& q : req) q = static_cast<int>(q * (1.0 - shape.slack));
    if (req[0] + req[1] + req[2] == 0) req[0] = 1;
    // Shave the largest requirement until the vector is unique; shaving
    // keeps the packed rectangle a valid placement.
    while (seen.count(req) != 0) {
      int& big = *std::max_element(req.begin(), req.end());
      if (req[0] + req[1] + req[2] <= 1) return "";
      --big;
    }
    seen.insert(req);
    out << "region m" << n;
    for (std::size_t t = 0; t < req.size(); ++t)
      if (req[t] > 0) out << " " << kTypeNames[t] << "=" << req[t];
    out << "\n";
  }
  for (int n = 0; n + 1 < shape.regions; ++n)
    out << "net " << rng.range(1, 8) << " m" << n << " m" << n + 1 << "\n";
  for (int i = 0; i < shape.extra_nets && shape.regions >= 2; ++i) {
    const int a = rng.below(shape.regions);
    const int b = (a + 1 + rng.below(shape.regions - 1)) % shape.regions;
    out << "net " << rng.range(1, 8) << " m" << a << " m" << b << "\n";
  }
  if (shape.fc_per_region > 0) {
    std::vector<int> order(static_cast<std::size_t>(shape.regions));
    for (int n = 0; n < shape.regions; ++n) order[static_cast<std::size_t>(n)] = n;
    shuffle(order, rng);
    for (int i = 0; i < std::min(shape.relocated, shape.regions); ++i)
      out << "relocate m" << order[static_cast<std::size_t>(i)]
          << " count=" << shape.fc_per_region << "\n";
  }
  out << (shape.weighted ? "objective weighted q1=1 q2=0 q3=1 q4=0\n" : "objective lexicographic\n");
  return out.str();
}

std::string permutedTwin(const std::string& text, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> head, regions, nets, relocs, tail;
  for (const std::string& line : splitLines(text)) {
    if (line.rfind("region ", 0) == 0) regions.push_back(line);
    else if (line.rfind("net ", 0) == 0) nets.push_back(line);
    else if (line.rfind("relocate ", 0) == 0) relocs.push_back(line);
    else if (line.rfind("problem ", 0) == 0) head.push_back(line + "_twin");
    else tail.push_back(line);
  }
  // A permutation that happens to be the identity would not be a twin.
  const std::vector<std::string> original = regions;
  for (int i = 0; i < 8 && regions == original && regions.size() > 1; ++i) shuffle(regions, rng);
  shuffle(nets, rng);
  shuffle(relocs, rng);
  std::string out;
  for (const auto* block : {&head, &regions, &nets, &relocs, &tail})
    for (const std::string& line : *block) out += line + "\n";
  return out;
}

std::string sdrProblemText(int fc) {
  std::ostringstream out;
  out << "problem sdr" << fc << "\n"
      << "region matched_filter CLB=25 DSP=5\n"
      << "region carrier_recovery CLB=7 DSP=1\n"
      << "region demodulator CLB=5 BRAM=2\n"
      << "region signal_decoder CLB=12 BRAM=1\n"
      << "region video_decoder CLB=55 BRAM=2 DSP=5\n"
      << "net 64 matched_filter carrier_recovery\n"
      << "net 64 carrier_recovery demodulator\n"
      << "net 64 demodulator signal_decoder\n"
      << "net 64 signal_decoder video_decoder\n";
  if (fc > 0)
    for (const char* r : {"carrier_recovery", "demodulator", "signal_decoder"})
      out << "relocate " << r << " count=" << fc << "\n";
  out << "objective lexicographic\n";
  return out.str();
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"search-exact", "milp-tree", "milp-root",
                                              "batch-sweep"};
  return names;
}

namespace {

using rfp::driver::Backend;

/// Generator sub-seeds of the batch-sweep pools, selected once with the
/// exact search on the paper device (see README.md, "Sizing evidence"): the proof
/// pool finishes in at most 15k search nodes, the truncated pool needs
/// 200k-2M nodes to prove and stops at either budget tier with a plan even
/// when seeded with its own optimum.
constexpr long kProofPool[] = {
    10003, 10007, 10008, 10010, 10013, 10014, 10015, 10016, 10019, 10020, 10023, 10024,
    10026, 10027, 10029, 10033, 10040, 10041, 10044, 10049, 10050, 10063, 10064, 10065,
    10066, 10067, 10068, 10071, 10072, 10074, 10075, 10076, 10080, 10082, 10084, 10085,
    10089, 10090, 10094, 10095, 10098, 10102, 10103, 10107, 10109, 10111, 10113, 10114,
    10115, 10120, 10122, 10125, 10129, 10131, 10135, 10137, 10142, 10146, 10149, 10150,
    10152, 10157, 10161, 10162, 10164, 10165, 10167, 10174, 10181, 10190, 10194, 10203,
    10204, 10208, 10209, 10212, 10216, 10218, 10219, 10220, 10223, 10230, 10233, 10235,
    10240, 10246, 10248, 10253, 10254, 10256, 10257, 10260, 10264, 10267, 10272, 10276,
    10277, 10280, 10285, 10289, 10292, 10293, 10294, 10296, 10304, 10306, 10307, 10309,
    10313, 10319, 10325, 10328, 10334, 10339, 10342, 10346, 10348, 10352, 10360, 10364,
    10366, 10368, 10371, 10373, 10375, 10386, 10389, 10399, 10400, 10401, 10405, 10408,
    10410, 10415, 10426, 10431, 10436, 10438, 10439, 10440, 10441, 10446, 10447, 10450,
    10451, 10453, 10454, 10464, 10468, 10470, 10471, 10472, 10474, 10477, 10479, 10481,
    10486, 10490, 10492, 10495, 10496, 10500, 10501, 10506, 10508, 10511, 10521, 10523,
    10528, 10529, 10530, 10531, 10535, 10537, 10541, 10544, 10545, 10546, 10547, 10553,
    10558, 10561, 10562, 10563, 10567, 10568, 10569, 10574, 10576, 10577, 10580, 10582,
    10583, 10593, 10596, 10597, 10598, 10601, 10603, 10608, 10609, 10612, 10616, 10620,
    10622, 10623, 10624, 10625, 10626, 10632, 10637, 10638, 10643, 10644, 10647, 10648,
    10650, 10656, 10659, 10660, 10667, 10668, 10678, 10679, 10688, 10701, 10705, 10711,
    10715, 10716, 10718, 10720, 10721, 10725, 10727, 10728, 10732, 10734, 10735, 10740,
    10745, 10747, 10748, 10749, 10751, 10752, 10753, 10755, 10757, 10762, 10763, 10764,
    10769, 10772, 10779, 10781, 10782, 10785, 10786, 10787, 10790, 10791, 10793, 10799,
    10800, 10803, 10809, 10818, 10823, 10824, 10830, 10832, 10834, 10841, 10846, 10850,
    10852, 10857, 10858, 10860, 10864, 10868, 10874, 10877, 10879, 10880, 10882, 10883,
    10884, 10885, 10889, 10890, 10892, 10897, 10899, 10901, 10902, 10903, 10915, 10918,
    10923, 10926, 10927, 10934, 10935, 10940, 10941, 10943, 10944, 10945, 10949, 10951,
    10952, 10953, 10955, 10957, 10959, 10965, 10966, 10967, 10968, 10970, 10973, 10975,
    10977, 10978, 10979, 10981, 10982, 10984, 10987, 10995, 10996, 11000, 11001, 11004,
    11006, 11008, 11009, 11013, 11017, 11025, 11026, 11031, 11032, 11035, 11039, 11040,
    11043, 11045, 11046, 11051, 11056, 11058, 11060, 11061, 11063, 11065, 11067, 11081,
    11086, 11091, 11101, 11103, 11106, 11110, 11111, 11112, 11113, 11116, 11117, 11119,
    11121, 11122, 11125, 11129, 11132, 11137, 11138, 11141, 11143, 11146, 11147, 11150,
    11152, 11153, 11158, 11160, 11163, 11165, 11175, 11180, 11183, 11184, 11186, 11187,
    11189, 11192, 11193, 11195, 11197, 11201, 11207, 11208, 11212, 11213, 11217, 11223,
    11226, 11231, 11237, 11239, 11242, 11245, 11249, 11258, 11259, 11261, 11264, 11266,
    11272, 11274, 11286, 11287, 11291, 11295, 11301, 11303, 11308, 11310, 11313, 11314,
    11315, 11318, 11321, 11326, 11332, 11340, 11341, 11348, 11353, 11354, 11356, 11358,
    11359, 11360, 11363, 11364, 11367, 11372, 11373, 11377, 11378, 11379, 11381, 11384,
    11385, 11387, 11388, 11390, 11392, 11399, 11401, 11402, 11403, 11404, 11406, 11411,
    11414, 11415, 11417, 11419, 11427, 11428, 11430, 11431, 11441, 11443, 11447, 11450,
    11451, 11453, 11454, 11455, 11463, 11467, 11473, 11476, 11479, 11480, 11485, 11494,
    11496, 11498, 11499, 11501, 11504, 11508, 11509, 11511, 11516, 11519, 11520, 11521,
    11524, 11527, 11530, 11531, 11533, 11534, 11535, 11541, 11550, 11551, 11559, 11561,
    11562, 11565, 11567, 11569, 11572, 11573, 11575, 11576, 11579, 11580, 11581, 11582,
    11587, 11588, 11589, 11590,
};
constexpr long kTruncatedPool[] = {
    20002, 20008, 20013, 20016, 20018, 20022, 20025, 20028, 20029, 20037, 20038, 20039,
    20040, 20046, 20049, 20050, 20052, 20054, 20055, 20056, 20060, 20061, 20062, 20063,
    20069, 20070, 20074, 20076, 20077, 20084, 20085, 20087, 20088, 20089, 20092, 20093,
    20094, 20098, 20099, 20100, 20101, 20105, 20106, 20107, 20108, 20109, 20111, 20112,
};

/// batch-sweep's budget tiers: per-request search node limits. Problems of
/// the proof pool finish far below the first; problems of the truncated
/// pool stop at either, with a plan, even when seeded with their optimum.
constexpr long kTierNodes[2] = {20000, 60000};

constexpr ProblemShape kProofShape{2, 10, 4, 1, 1, 1, 0.2, false};
constexpr ProblemShape kTruncatedShape{3, 12, 4, 1, 1, 1, 0.2, false};

/// Problem + device bookkeeping shared by the workload builders.
struct Builder {
  Workload w;
  int addDevice(const DeviceSpec& dev) {
    w.devices.push_back(deviceText(dev));
    return static_cast<int>(w.devices.size()) - 1;
  }
  int addProblem(int device, std::string instance, std::string text) {
    w.problems.push_back(Workload::Problem{device, std::move(instance), std::move(text)});
    return static_cast<int>(w.problems.size()) - 1;
  }
  /// The `count` first sub-seeds from `first` whose packing succeeds.
  std::vector<int> generated(int device, const DeviceSpec& spec, const ProblemShape& shape,
                             long first, int count, const std::string& prefix,
                             const std::string& tag) {
    std::vector<int> ids;
    for (long s = first; static_cast<int>(ids.size()) < count; ++s) {
      std::string text = problemText(spec, shape, static_cast<std::uint64_t>(s), prefix + tag);
      if (!text.empty())
        ids.push_back(addProblem(device, prefix + std::to_string(s), std::move(text)));
    }
    return ids;
  }
};

Request solveRequest(Backend backend, long node_limit, int problem) {
  return Request{backend, node_limit, {problem}};
}

// search-exact: the paper's SDR design with 0-3 FC areas per relocatable
// region (~1.0M search nodes each) plus 21 generator instances of graded
// difficulty (0.3M-1.7M nodes), about half below and half above the SDR
// cluster so the median request sits inside it. The exact search's work
// does not depend on the order of the problem lines, so the seed draws a
// permuted twin of every instance and the request order: different texts,
// identical work.
Workload searchExact(std::uint64_t seed) {
  Builder b;
  Rng rng(seed);
  const DeviceSpec paper = paperDevice();
  const int dev = b.addDevice(paper);
  std::vector<std::pair<std::string, std::string>> base;
  for (int fc = 0; fc <= 3; ++fc) base.emplace_back("sdr" + std::to_string(fc), sdrProblemText(fc));
  const struct {
    const char* prefix;
    ProblemShape shape;
    std::vector<long> seeds;
  } classes[] = {
      {"a", {4, 8, 3, 1, 1, 2, 0.2, false}, {18, 11, 35, 8, 40, 43}},
      {"b", {3, 10, 4, 1, 2, 2, 0.2, false},
       {1035, 1027, 1017, 1039, 1014, 1019, 1007, 1020, 1011, 1013}},
      {"c", {5, 8, 3, 2, 0, 0, 0.3, false}, {2004, 2039, 2000, 2038, 2019}},
  };
  for (const auto& cls : classes)
    for (const long s : cls.seeds)
      base.emplace_back(cls.prefix + std::to_string(s),
                        problemText(paper, cls.shape, static_cast<std::uint64_t>(s), cls.prefix));
  for (const auto& [instance, text] : base) {
    const int id = b.addProblem(dev, instance, permutedTwin(text, rng.next()));
    b.w.pass.push_back(solveRequest(Backend::kSearch, 0, id));
  }
  b.w.warmup = {b.w.pass.front()};
  shuffle(b.w.pass, rng);
  return b.w;
}

// milp-tree: MILP-O and MILP-HO alternate over 23 small two-region
// formulations (~200 rows; LpEngine::kAuto sends them to the dense tableau)
// under a node limit most MILP-O runs finish within; one ~3.1k-row
// formulation (sparse engine) runs under both with a tighter limit. MILP work
// depends on the order of the problem lines, so the seed draws only the
// request order and the problem names.
Workload milpTree(std::uint64_t seed) {
  Builder b;
  Rng rng(seed);
  const std::string tag = "_s" + std::to_string(seed);
  const DeviceSpec small{"tree6x3", "CCBCDC", 3, {}};
  const DeviceSpec wide{"tree12x6", "CBCDCCBCDCBC", 6, {}};
  const int ds = b.addDevice(small), dw = b.addDevice(wide);
  const std::vector<int> smalls =
      b.generated(ds, small, {2, 3, 2, 1, 0, 0, 0.2, false}, 1, 23, "small", tag);
  for (std::size_t i = 0; i < smalls.size(); ++i)
    b.w.pass.push_back(solveRequest(i % 2 == 0 ? Backend::kMilpO : Backend::kMilpHO, 300, smalls[i]));
  for (const int id : b.generated(dw, wide, {2, 4, 3, 1, 1, 1, 0.2, false}, 1, 1, "sparse", tag))
    for (const Backend be : {Backend::kMilpO, Backend::kMilpHO})
      b.w.pass.push_back(solveRequest(be, 40, id));
  b.w.warmup = {b.w.pass.front()};
  shuffle(b.w.pass, rng);
  return b.w;
}

// milp-root: MILP-O on ~2.8k-row formulations (three regions, one FC area,
// Eq. 14 objective: one MILP stage) with a node limit of 2, so formulation
// build, presolve, cover-cut rounds and the cold root LP dominate. Their
// dense tableau (~127 MiB) is twice kAuto's 64 MiB switch, so a formulation
// would have to shrink by ~30% before the dense engine took over. Seed as
// for milp-tree.
Workload milpRoot(std::uint64_t seed) {
  Builder b;
  Rng rng(seed);
  const std::string tag = "_s" + std::to_string(seed);
  const DeviceSpec wide{"root11x6", "CBCDCCBCDCB", 6, {}};
  const int dw = b.addDevice(wide);
  for (const int id : b.generated(dw, wide, {3, 4, 3, 1, 1, 1, 0.2, true}, 1, 25, "root", tag))
    b.w.pass.push_back(solveRequest(Backend::kMilpO, 2, id));
  b.w.warmup = {b.w.pass.front()};
  shuffle(b.w.pass, rng);
  return b.w;
}

/// Generator-side model of the driver's LRU result cache, used to keep
/// batch-sweep deterministic under a two-thread pool. Entries inserted or
/// touched by one batch form a *group* whose internal LRU order depends on
/// thread timing; whole groups age in a fixed order. A batch is admitted
/// only when none of the entries it reads can be evicted while it runs,
/// and keys of a partially evicted group (membership unknown) are never
/// requested until the whole group has aged out.
class CacheModel {
 public:
  enum class State { kAbsent, kPresent, kUnknown };
  explicit CacheModel(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] State state(const std::string& key) const {
    for (const Group& g : groups_)
      if (g.members.count(key) != 0)
        return g.size == g.members.size() ? State::kPresent : State::kUnknown;
    return State::kAbsent;
  }
  [[nodiscard]] std::size_t evictions(std::size_t inserts) const {
    return entries_ + inserts > capacity_ ? entries_ + inserts - capacity_ : 0;
  }
  /// No key of `read` among the `evict` oldest entries.
  [[nodiscard]] bool safe(const std::set<std::string>& read, std::size_t evict) const {
    std::size_t covered = 0;
    for (const Group& g : groups_) {
      if (covered >= evict) break;
      for (const std::string& k : read)
        if (g.members.count(k) != 0) return false;
      covered += g.size;
    }
    return true;
  }
  void apply(const std::set<std::string>& read, const std::vector<std::string>& inserted) {
    std::size_t evict = evictions(inserted.size());
    for (Group& g : groups_)
      for (const std::string& k : read) g.size -= g.members.erase(k);
    entries_ -= evict;
    while (evict > 0) {
      Group& oldest = groups_.front();
      const std::size_t take = std::min(evict, oldest.size);
      oldest.size -= take;
      evict -= take;
      if (oldest.size == 0) groups_.pop_front();
    }
    Group fresh;
    fresh.members = read;
    fresh.members.insert(inserted.begin(), inserted.end());
    fresh.size = fresh.members.size();
    entries_ += inserted.size();
    groups_.push_back(std::move(fresh));
    while (!groups_.empty() && groups_.front().size == 0) groups_.pop_front();
  }

 private:
  struct Group {
    std::set<std::string> members;
    std::size_t size = 0;  ///< < members.size() once partially evicted
  };
  std::size_t capacity_;
  std::size_t entries_ = 0;
  std::deque<Group> groups_;
};

// batch-sweep: a design-space sweep through Driver::solveBatch (pool 2,
// thread budget 2, 128-entry cache). Each request is a batch of 32: four
// new problems from a separate pool (a steady trickle of unseen designs) and
// 28 drawn Zipf-popular from a working set of 160 problems, larger than the
// cache, as exact repeats or permuted twins (same fingerprint). One batch in
// four runs under the second budget tier, where truncated-pool problems
// cached under the first tier are near misses that seed a re-solve. The
// seed draws the popularity ranking, the tier schedule, the draws and the
// twins. The ranking interleaves the two pools at fixed ranks, every batch
// draws a fixed number from each pool (stratified over that pool's
// popularity distribution), and the tier and fresh counts are exact, so
// every seed does a similar amount of work.
Workload batchSweep(std::uint64_t seed) {
  constexpr int kBatches = kSweepBatches, kBatchSize = kSweepBatchSize,
                kFreshPerBatch = kSweepFreshPerBatch, kWorkingProof = 112;
  static_assert(std::size(kProofPool) >= kWorkingProof + kBatches * kFreshPerBatch,
                "the fresh pool must last the whole pass");
  // Of the 28 popular draws per batch, 7 come from the truncated pool: its
  // share (26%) of the Zipf(0.9) mass at ranks 2, 5, 8 of every ten.
  constexpr int kTruncatedDraws = 7, kProofDraws = kBatchSize - kFreshPerBatch - kTruncatedDraws;
  constexpr double kZipf = 0.9, kTwinShare = 0.25;
  Builder b;
  Rng rng(seed);
  b.w.batch = true;
  b.w.pool = 2;
  b.w.thread_budget = 2;
  b.w.cache_entries = 128;
  const DeviceSpec paper = paperDevice();
  const int dev = b.addDevice(paper);

  struct Item {
    std::string instance;
    bool truncated = false;
    std::string text;
    int base = -1, twin = -1;  ///< problem ids
  };
  std::vector<Item> proof, truncated, fresh;
  for (std::size_t i = 0; i < std::size(kProofPool); ++i) {
    const long s = kProofPool[i];
    Item it{"p" + std::to_string(s), false,
            problemText(paper, kProofShape, static_cast<std::uint64_t>(s), "p")};
    (static_cast<int>(i) < kWorkingProof ? proof : fresh).push_back(std::move(it));
  }
  for (const long s : kTruncatedPool)
    truncated.push_back(Item{"t" + std::to_string(s), true,
                             problemText(paper, kTruncatedShape, static_cast<std::uint64_t>(s), "t")});
  // Every pool problem is part of the workload (so one reference table
  // covers every seed); twins are added as the stream draws them.
  for (auto* pool : {&proof, &truncated, &fresh})
    for (Item& it : *pool) it.base = b.addProblem(dev, it.instance, it.text);
  shuffle(proof, rng);
  shuffle(truncated, rng);
  shuffle(fresh, rng);
  // Popularity ranking: truncated-pool problems hold ranks 2, 5, 8 of every
  // ten, proof-pool problems the rest.
  std::vector<Item> working;
  for (std::size_t r = 0, p = 0, t = 0; r < proof.size() + truncated.size(); ++r) {
    const bool trunc = r % 10 == 2 || r % 10 == 5 || r % 10 == 8;
    working.push_back(std::move(trunc ? truncated[t++] : proof[p++]));
  }
  // Per pool: its ranks and the cumulative Zipf weight over them.
  struct Ranks {
    std::vector<std::size_t> rank;
    std::vector<double> cdf;
  } by_pool[2];
  for (std::size_t r = 0; r < working.size(); ++r) {
    Ranks& pr = by_pool[working[r].truncated ? 1 : 0];
    pr.rank.push_back(r);
    pr.cdf.push_back((pr.cdf.empty() ? 0.0 : pr.cdf.back()) +
                     1.0 / std::pow(static_cast<double>(r + 1), kZipf));
  }
  std::vector<int> tiers(static_cast<std::size_t>(kBatches), 0);
  std::fill(tiers.begin(), tiers.begin() + kBatches / 4, 1);
  shuffle(tiers, rng);

  const auto keyOf = [](const Item& it, int tier) {
    return it.truncated ? it.instance + "#" + std::to_string(tier) : it.instance;
  };
  CacheModel cache(b.w.cache_entries);
  std::size_t next_fresh = 0;
  for (int batch = 0; batch < kBatches; ++batch) {
    const int tier = tiers[static_cast<std::size_t>(batch)];
    std::set<std::string> read, structures;
    std::vector<std::string> inserted;
    Request req{Backend::kSearch, kTierNodes[tier], {}};
    // Admits `it` when its cache outcome is known and cannot be changed by
    // the other problems of this batch.
    const auto admit = [&](Item& it) {
      if (structures.count(it.instance) != 0) return false;  // one fingerprint per batch
      const std::string own = keyOf(it, tier), other = keyOf(it, 1 - tier);
      const CacheModel::State s_own = cache.state(own);
      const CacheModel::State s_other =
          it.truncated ? cache.state(other) : CacheModel::State::kAbsent;
      if (s_own == CacheModel::State::kUnknown || s_other == CacheModel::State::kUnknown)
        return false;
      std::set<std::string> r = read;
      std::vector<std::string> ins = inserted;
      if (s_own == CacheModel::State::kPresent) r.insert(own);
      else if (s_other == CacheModel::State::kPresent) r.insert(other), ins.push_back(own);
      else ins.push_back(own);
      if (!cache.safe(r, cache.evictions(ins.size()))) return false;
      read = std::move(r);
      inserted = std::move(ins);
      structures.insert(it.instance);
      const bool twin = rng.unit() < kTwinShare;
      if (twin && it.twin < 0)
        it.twin = b.addProblem(dev, it.instance, permutedTwin(it.text, rng.next()));
      req.problems.push_back(twin ? it.twin : it.base);
      return true;
    };
    for (int k = 0; k < kFreshPerBatch && next_fresh < fresh.size(); ++k)
      if (admit(fresh[next_fresh])) ++next_fresh;
    for (const auto& [pool, draws] : {std::pair{0, kProofDraws}, std::pair{1, kTruncatedDraws}}) {
      const Ranks& pr = by_pool[pool];
      for (int k = 0; k < draws; ++k) {
        bool drawn = false;
        for (int attempt = 0; attempt < 50 && !drawn; ++attempt) {
          // First try the k-th stratum of the pool's popularity distribution.
          const double u = attempt == 0 ? (k + rng.unit()) / draws : rng.unit();
          const auto i = std::lower_bound(pr.cdf.begin(), pr.cdf.end(), u * pr.cdf.back()) -
                         pr.cdf.begin();
          drawn = admit(working[pr.rank[static_cast<std::size_t>(i)]]);
        }
        // Under the second tier the pool can run out of admissible problems
        // (every near miss inserts); the most popular admissible problem of
        // the working set then keeps the batch full.
        for (std::size_t r = 0; !drawn && r < working.size(); ++r) drawn = admit(working[r]);
      }
    }
    if (req.problems.size() != static_cast<std::size_t>(kBatchSize))
      throw std::logic_error("batch-sweep: batch " + std::to_string(batch) + " is not full");
    cache.apply(read, inserted);
    b.w.pass.push_back(std::move(req));
  }
  // Warm-up: one fixed batch of the first pool problems (seed-invariant
  // work: problem ids follow the pool order, which the seed does not touch).
  Request warm{Backend::kSearch, kTierNodes[0], {}};
  for (int id = 0; id < kBatchSize; ++id) warm.problems.push_back(id);
  b.w.warmup = {warm};
  return b.w;
}

}  // namespace

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "search-exact") w = searchExact(seed);
  else if (name == "milp-tree") w = milpTree(seed);
  else if (name == "milp-root") w = milpRoot(seed);
  else if (name == "batch-sweep") w = batchSweep(seed);
  else throw std::invalid_argument("unknown workload '" + name + "'");
  w.name = name;
  return w;
}

}  // namespace perfbench
