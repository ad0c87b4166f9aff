// Benchmark runner: runs one named workload in this process (serial engine,
// one thread) and prints one JSON object of raw measurements on its last
// stdout line. run.py turns that into the benchmark's metrics, checks the
// golden digests and, for traced runs, adds the gprof layer attribution.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> [--trace]
//                    [--setups <n>] [--ops <n>]
//
// Only public functions of the testbed, topo, routing, projection,
// controller, openflow, sim, workloads and admission layers are called.
// Every time reported here is host time, with the SpeedReference scale of
// each op beside it; modeled (simulated) outputs only feed the digest and the
// correctness checks.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "admission/admission.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "controller/journal.hpp"
#include "controller/table_diff.hpp"
#include "controller/transaction.hpp"
#include "projection/link_projector.hpp"
#include "projection/plant.hpp"
#include "routing/deadlock.hpp"
#include "routing/routing.hpp"
#include "routing/shortest_path.hpp"
#include "sim/builder.hpp"
#include "sim/control_channel.hpp"
#include "sim/transport.hpp"
#include "testbed/evaluator.hpp"
#include "topo/generators.hpp"
#include "workloads/apps.hpp"
#include "workloads/datacenter.hpp"
#include "workloads/mpi.hpp"

namespace perfbench {

using namespace sdt;

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench_runner: %s\n", why.c_str());
  std::exit(2);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The machine's current speed, measured on a fixed reference kernel.
///
/// The shared host the benchmark was sized on runs the same code up to twice
/// as slowly for minutes at a time, while a pure ALU loop keeps its speed:
/// neighbours contend for caches and memory, not for the clock. So every
/// timed operation is also reported at reference speed: its host time times
/// nominal / measured, where measured is the kernel's time just before it.
/// Setups are sampled too; run.py scales them by the run's median sample.
///
/// The kernel does the two kinds of work the workloads do, about half its
/// time each: an event loop (a binary heap of timestamps, a 512 KiB table
/// read and written at random, an indirect call per event), which is
/// sensitive to contention for the core's caches, and flow-table-like scans
/// and inserts over a 4 MiB array, which are sensitive to contention for
/// memory bandwidth. Its buffers are allocated once and every run does the
/// same work, so neither the repository's code nor the state of its heap
/// changes it. Traced runs turn it off (scale 1), so it stays out of their
/// spans and gprof profile.
class SpeedReference {
 public:
  /// About the kernel's time on the sizing machine in a quiet period
  /// (g++ 12, -O3), so that scaled and host times agree there.
  static constexpr double kNominalMs = 7.5;
  /// A kernel result older than this is measured again before the next op.
  static constexpr double kRefreshSeconds = 0.1;
  static constexpr double kWarmupSeconds = 0.5;

  explicit SpeedReference(bool on)
      : on_(on), table_(on ? kTableWords : 0), keys_(on ? kKeys : 0) {
    if (!on_) return;
    heap_.reserve(2 * kEvents);
    // Distinct keys: multiplying by an odd constant is a bijection mod 2^32.
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      keys_[i] = static_cast<std::uint32_t>(i) * 2654435761U;
    }
    // Warm-up: the first runs pay page faults and cold caches, and an idle
    // CPU takes a while to come up to speed.
    const double until = wallNow() + kWarmupSeconds;
    while (wallNow() < until) kernelMs();
  }

  /// Runs the kernel unless its last result is recent.
  void sample() {
    if (on_ && wallNow() - last_ >= kRefreshSeconds) {
      const double ms = kernelMs();
      samples_.push_back(ms);
      scale_ = kNominalMs / ms;
      last_ = wallNow();
    }
  }

  /// Factor from host time measured now to reference time.
  double scale() {
    sample();
    return scale_;
  }

  /// Every kernel time behind a scale, in ms.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  using Handler = std::uint64_t (*)(std::uint64_t, std::uint64_t);
  static constexpr std::size_t kTableWords = std::size_t{1} << 16;
  static constexpr std::uint32_t kEvents = 2048;
  static constexpr int kSteps = 30000;
  static constexpr std::size_t kKeys = std::size_t{1} << 20;
  static constexpr std::size_t kShift = std::size_t{1} << 16;  ///< keys moved per insert
  static constexpr int kScans = 12;

  static std::uint64_t h0(std::uint64_t a, std::uint64_t b) { return a ^ (b * 3); }
  static std::uint64_t h1(std::uint64_t a, std::uint64_t b) { return a + (b >> 3); }
  static std::uint64_t h2(std::uint64_t a, std::uint64_t b) { return (a << 1) ^ b; }
  static std::uint64_t h3(std::uint64_t a, std::uint64_t b) { return a - b * 7; }

  double kernelMs() {
    const double t0 = wallNow();
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::uint64_t acc = 0;

    const std::greater<> later;  // min-heap on the timestamp
    heap_.clear();
    for (std::uint32_t i = 0; i < kEvents; ++i) heap_.emplace_back(i, i);
    std::make_heap(heap_.begin(), heap_.end(), later);
    for (int i = 0; i < kSteps; ++i) {
      const std::uint64_t r = next();
      std::pop_heap(heap_.begin(), heap_.end(), later);
      const Event e = heap_.back();
      heap_.pop_back();
      std::uint64_t& slot = table_[(r >> 5) % kTableWords];
      slot = handlers_[r & 3](slot, e.first + acc);
      acc += slot;
      heap_.emplace_back(e.first + 1 + (r & 1023), e.second);
      std::push_heap(heap_.begin(), heap_.end(), later);
    }

    // Find a key by linear scan, then shift a block up one slot and back,
    // like a vector insert; the displaced key is put back, so the array
    // never changes.
    for (int i = 0; i < kScans; ++i) {
      const std::uint64_t r = next();
      const std::uint32_t key = keys_[(r >> 8) % kKeys];
      std::size_t pos = 0;
      while (keys_[pos] != key) ++pos;
      acc += pos;
      const std::size_t at = (r >> 32) % (kKeys - kShift);
      const std::uint32_t displaced = keys_[at + kShift];
      std::memmove(&keys_[at + 1], &keys_[at], kShift * sizeof(std::uint32_t));
      std::memmove(&keys_[at], &keys_[at + 1], kShift * sizeof(std::uint32_t));
      keys_[at + kShift] = displaced;
    }
    sink_ = acc;
    return (wallNow() - t0) * 1e3;
  }

  bool on_;
  std::vector<Event> heap_;
  std::vector<std::uint64_t> table_;
  std::vector<std::uint32_t> keys_;
  Handler volatile handlers_[4] = {h0, h1, h2, h3};  // volatile: calls stay indirect
  std::vector<double> samples_;
  double scale_ = 1.0;
  double last_ = -1e9;
  volatile std::uint64_t sink_ = 0;  ///< keeps the kernel's result observable
};

/// FNV-1a over 64-bit words: the modeled-output fingerprint.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Host-time spans around public calls (traced runs only). Each span has a
/// name, start/end, the enclosing span and the op id it belongs to.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  int open(const std::string& name, int op = -1) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, wallNow(), 0.0, parent, op});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    if (!on_ || id < 0) return;
    spans_[id].end = wallNow();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  /// Run `fn` inside a span named `name`.
  template <typename Fn>
  auto scoped(const std::string& name, Fn&& fn, int op = -1) {
    const int id = open(name, op);
    struct Closer {
      Spans* s;
      int id;
      ~Closer() { s->close(id); }
    } closer{this, id};
    return fn();
  }

  /// Per-name summary: count, total and median duration, and self time
  /// (duration minus the time its child spans cover).
  [[nodiscard]] json::Value summary() const {
    std::vector<double> childTime(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) childTime[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, std::vector<double>> byName;
    std::map<std::string, double> selfByName;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      byName[s.name].push_back(s.end - s.start);
      selfByName[s.name] += s.end - s.start - childTime[i];
    }
    json::Object out;
    for (const auto& [name, d] : byName) {
      out[name] = json::Object{
          {"count", static_cast<std::int64_t>(d.size())},
          {"total_s", std::accumulate(d.begin(), d.end(), 0.0)},
          {"median_s", median(d)},
          {"self_s", selfByName[name]}};
    }
    return out;
  }
  /// Full span records, times relative to the first span.
  [[nodiscard]] json::Value records() const {
    json::Array out;
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (const Span& s : spans_) {
      out.emplace_back(json::Object{{"name", s.name},
                                    {"start_s", s.start - t0},
                                    {"end_s", s.end - t0},
                                    {"parent", s.parent},
                                    {"op", s.op}});
    }
    return out;
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
    int op;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  int setups = 0;  ///< override of the setup count (0 = default; per op on serving_*)
  int ops = 0;     ///< override of the op count derived from --seconds
};

/// Raw result of one workload run.
struct Result {
  std::vector<double> setupSeconds;  ///< one per setup
  double runSeconds = 0.0;           ///< measured phase, wall
  double cpuSeconds = 0.0;           ///< measured phase, process CPU
  double refRunSeconds = 0.0;        ///< runSeconds at reference speed
  double refCpuSeconds = 0.0;        ///< cpuSeconds at reference speed
  std::vector<double> opMs;          ///< per-operation wall latency
  std::vector<double> opScale;       ///< SpeedReference scale of each op
  std::uint64_t work = 0;            ///< modeled work units of the measured phase
  std::string workUnit;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
  std::vector<std::string> opDigests; ///< modeled fingerprint per op (packet workloads)
  std::vector<bool> opOk;             ///< per operation: no error, checks passed
  json::Object counts;                ///< deterministic per-layer counts
  json::Object timings;               ///< per-layer host times (traced runs)

  void addOp(double wallS, double cpuS, double scale) {
    ++attempted;
    opOk.push_back(true);
    opMs.push_back(wallS * 1e3);
    opScale.push_back(scale);
    runSeconds += wallS;
    cpuSeconds += cpuS;
    refRunSeconds += wallS * scale;
    refCpuSeconds += cpuS * scale;
  }

  void fail(int op, const std::string& why) {
    ++failed;
    opOk[static_cast<std::size_t>(op)] = false;
    if (failures.size() < 8) failures.push_back("op " + std::to_string(op) + ": " + why);
  }
};

// ---- shared helpers -------------------------------------------------------

struct PortTotals {
  std::uint64_t txPackets = 0;
  std::uint64_t drops = 0;
  std::uint64_t pauses = 0;
};

/// Fold every (switch, port) counter of a network built for one op into `d`;
/// return the fabric totals.
PortTotals digestPorts(const sim::Network& net, Digest& d) {
  PortTotals t;
  for (int sw = 0; sw < net.numSwitches(); ++sw) {
    for (int p = 0; p < net.switchPortCount(sw); ++p) {
      const sim::PortCounters& c = net.switchPortCounters(sw, p);
      d.add(c.txPackets);
      d.add(c.txBytes);
      d.add(c.rxPackets);
      d.add(c.rxBytes);
      d.add(c.drops);
      d.add(c.pausesSent);
      t.txPackets += c.txPackets;
      t.drops += c.drops;
      t.pauses += c.pausesSent;
    }
  }
  return t;
}

std::uint64_t flowLookups(const std::vector<std::shared_ptr<openflow::Switch>>& switches) {
  std::uint64_t n = 0;
  for (const auto& sw : switches) {
    for (const openflow::FlowEntry& e : sw->table().entries()) n += e.packetCount;
  }
  return n;
}

void addTableTotals(const std::vector<std::shared_ptr<openflow::Switch>>& switches,
                    json::Object& counts) {
  std::uint64_t adds = 0;
  std::uint64_t removes = 0;
  for (const auto& sw : switches) {
    adds += sw->table().addsTotal();
    removes += sw->table().removesTotal();
  }
  counts["openflow.adds"] = static_cast<std::int64_t>(adds);
  counts["openflow.removes"] = static_cast<std::int64_t>(removes);
}

/// Smallest plant of 128x100G OpenFlow switches that fits `topo`.
projection::Plant autoPlant(const topo::Topology& topo) {
  for (int n = 2; n <= 8; ++n) {
    auto p = projection::planPlant({&topo}, {.numSwitches = n,
                                             .spec = projection::openflow128x100G()});
    if (p.ok()) return std::move(p).value();
  }
  die("no plant of up to 8 switches fits " + topo.name());
}

std::unique_ptr<routing::RoutingAlgorithm> buildRouting(const std::string& strategy,
                                                        const topo::Topology& topo) {
  auto r = routing::makeRouting(strategy, topo);
  if (!r) die(strategy + ": " + r.error().message);
  return std::move(r).value();
}

void requireSerialEngine(const sim::Simulator& sim) {
  if (sim.numShards() != 1 || sim.numWorkers() != 1) {
    die("engine is not at K=1 (unset SDT_SHARDS / SDT_SIM_WORKERS)");
  }
}

/// Fixed work per run: the op count follows from --seconds and a nominal
/// per-op cost, so a faster build does the same work in less time.
int opsFor(const Options& o, double nominalOpSeconds, int minOps) {
  if (o.ops > 0) return o.ops;
  return std::max(minOps, static_cast<int>(o.seconds / nominalOpSeconds + 0.5));
}

int setupsFor(const Options& o, int defaultSetups) {
  return o.setups > 0 ? o.setups : defaultSetups;
}

// ---- t4_torus3d_alltoall --------------------------------------------------
//
// Table IV 4x4x4 3D torus on SDT, torus-clue routing, auto-sized plant.
// Setup (repeated) is routing + plant + deploy + network build. Each
// operation is one IMB-Alltoall MPI run on a fresh engine, network and
// transport over the last setup's deployed tables: DCQCN rate state would
// otherwise carry from one run into the next and make ops differ.

constexpr int kT4Setups = 3;
constexpr int kT4Ranks = 32;
constexpr int kT4Iterations = 2;

struct T4Deployed {
  projection::Plant plant;
  testbed::Instance inst;
};

/// Engine, network and transport over `deployed`'s programmed switches.
testbed::Instance t4Network(const topo::Topology& topo, const T4Deployed& deployed) {
  const testbed::InstanceOptions opt;
  testbed::Instance inst;
  inst.sim = std::make_unique<sim::Simulator>();
  inst.built = sim::buildProjectedNetwork(*inst.sim, topo, deployed.inst.deployment->projection,
                                          deployed.plant, deployed.inst.deployment->switches,
                                          opt.network, opt.crossbar);
  inst.transport =
      std::make_unique<sim::TransportManager>(*inst.sim, *inst.built.net, opt.transport);
  return inst;
}

T4Deployed t4Setup(const topo::Topology& topo, Spans& spans, bool stepwise,
                   double* deploySeconds) {
  auto routing = spans.scoped("routing.build", [&] { return buildRouting("torus-clue", topo); });
  T4Deployed out{spans.scoped("projection.plan", [&] { return autoPlant(topo); }), {}};
  const projection::Plant& plant = out.plant;
  if (!stepwise) {
    auto inst = testbed::makeSdt(topo, *routing, plant);
    if (!inst) die("makeSdt: " + inst.error().message);
    out.inst = std::move(inst).value();
    return out;
  }
  // Traced: the deploy steps one by one, so each gets its own span.
  const controller::DeployOptions dopt;
  const double deployStart = wallNow();
  spans.scoped("routing.deadlock", [&] {
    const routing::DeadlockReport dl = routing::analyzeDeadlock(topo, *routing);
    if (!dl.error.empty() || !dl.deadlockFree) die("torus-clue is not deadlock-free");
    return 0;
  });
  auto proj = spans.scoped("projection.project", [&] {
    return projection::LinkProjector::project(topo, plant, dopt.projector);
  });
  if (!proj) die("project: " + proj.error().message);
  controller::Deployment dep;
  auto tables = spans.scoped("controller.compile", [&] {
    return controller::detail::compileFlowTables(topo, proj.value(), plant, *routing, dopt,
                                                 dep.epoch);
  });
  if (!tables) die("compile: " + tables.error().message);
  spans.scoped("openflow.install", [&] {
    for (int psw = 0; psw < plant.numSwitches(); ++psw) {
      const projection::PhysicalSwitchSpec& spec = plant.switches[psw];
      auto ofs = std::make_shared<openflow::Switch>(psw, spec.numPorts,
                                                    spec.flowTableCapacity);
      for (const openflow::FlowEntry& e : tables.value()[psw]) {
        if (auto s = ofs->table().add(e); !s) die("install: " + s.error().message);
      }
      ofs->setIngressEpoch(dep.epoch);
      dep.totalFlowEntries += static_cast<int>(tables.value()[psw].size());
      dep.switches.push_back(std::move(ofs));
    }
    return 0;
  });
  dep.projection = std::move(proj).value();
  *deploySeconds = wallNow() - deployStart;
  out.inst.deployment = std::move(dep);
  spans.scoped("sim.build", [&] {
    testbed::Instance net = t4Network(topo, out);
    out.inst.sim = std::move(net.sim);
    out.inst.built = std::move(net.built);
    out.inst.transport = std::move(net.transport);
    return 0;
  });
  return out;
}

Result runT4(const Options& o, Spans& spans, SpeedReference& ref) {
  Result r;
  r.workUnit = "hops";
  const topo::Topology topo = topo::makeTorus3D(4, 4, 4);
  std::vector<int> hosts(static_cast<std::size_t>(topo.numHosts()));
  std::iota(hosts.begin(), hosts.end(), 0);
  Rng rng(o.seed);
  rng.shuffle(hosts);
  hosts.resize(kT4Ranks);
  const workloads::Workload workload =
      workloads::imbAlltoall(kT4Ranks, 32 * kKiB, kT4Iterations);

  std::vector<double> deploySteps;
  T4Deployed deployed;
  for (int i = 0; i < setupsFor(o, kT4Setups); ++i) {
    deployed = T4Deployed{};  // tearing down the previous setup is not timed
    double deploySeconds = 0.0;
    ref.sample();
    const int span = spans.open("setup");
    const double t0 = wallNow();
    deployed = t4Setup(topo, spans, o.trace, &deploySeconds);
    r.setupSeconds.push_back(wallNow() - t0);
    spans.close(span);
    deploySteps.push_back(deploySeconds);
  }
  const auto& ofSwitches = deployed.inst.deployment->switches;
  if (o.trace) {
    // Agreement check: the step-by-step deploy against one untraced
    // SdtController::deploy of the same inputs.
    auto routing = buildRouting("torus-clue", topo);
    const controller::SdtController ctl(deployed.plant);
    const double t0 = wallNow();
    auto dep = ctl.deploy(topo, *routing);
    const double whole = wallNow() - t0;
    if (!dep) die("deploy: " + dep.error().message);
    r.timings["controller.deploy_s"] = whole;
    r.timings["controller.deploy_steps_s"] = median(deploySteps);
  }

  const int ops = opsFor(o, 0.35, 3);
  const std::uint64_t lookups0 = flowLookups(ofSwitches);
  std::uint64_t events = 0;
  std::uint64_t cnps = 0;
  std::int64_t messages = 0;
  std::int64_t peakQueue = 0;
  PortTotals fabric;
  for (int op = 0; op < ops; ++op) {
    const double scale = ref.scale();
    const int span = spans.open("workloads.mpi_run", op);
    const double t0 = wallNow();
    const double c0 = cpuNow();
    testbed::Instance inst = t4Network(topo, deployed);
    requireSerialEngine(*inst.sim);
    workloads::MpiRuntime runtime(*inst.sim, *inst.transport, hosts);
    runtime.run(workload);
    inst.sim->run();
    const double c1 = cpuNow();
    const double t1 = wallNow();
    spans.close(span);
    r.addOp(t1 - t0, c1 - c0, scale);
    if (!runtime.finished()) {
      r.opDigests.emplace_back("unfinished");
      r.fail(op, "MPI run did not finish");
      continue;
    }
    messages += runtime.messagesSent();
    Digest d;
    d.add(static_cast<std::uint64_t>(runtime.completionTime()));
    const PortTotals pd = digestPorts(inst.net(), d);
    d.add(inst.transport->cnpsSent());
    r.opDigests.push_back(d.hex());
    fabric.txPackets += pd.txPackets;
    fabric.drops += pd.drops;
    fabric.pauses += pd.pauses;
    events += inst.sim->eventsProcessed();
    cnps += inst.transport->cnpsSent();
    peakQueue = std::max(peakQueue, inst.net().peakQueueBytes());
  }
  r.work = fabric.txPackets;

  json::Object& c = r.counts;
  c["sim.events"] = static_cast<std::int64_t>(events);
  c["sim.hops"] = static_cast<std::int64_t>(fabric.txPackets);
  c["sim.drops"] = static_cast<std::int64_t>(fabric.drops);
  c["sim.pauses"] = static_cast<std::int64_t>(fabric.pauses);
  c["sim.peak_queue_bytes"] = peakQueue;
  c["sim.cnps"] = static_cast<std::int64_t>(cnps);
  c["openflow.lookups"] = static_cast<std::int64_t>(flowLookups(ofSwitches) - lookups0);
  c["workloads.mpi_messages"] = messages;
  addTableTotals(ofSwitches, c);
  return r;
}

// ---- serving_overload_ft4 -------------------------------------------------
//
// Fat-tree k=4 full testbed, PFC off, the overload bench's serving mix at 4x
// the saturating rate with admission on. Every operation is one serving run
// on a fresh instance (a ServingRuntime arms once).

constexpr int kServingSetupsPerOp = 20;
constexpr TimeNs kServingHorizon = msToNs(20.0);
constexpr double kServingScale = 4.0;

struct ServingInstance {
  testbed::Instance inst;
  std::unique_ptr<admission::AdmissionController> adm;
  std::unique_ptr<workloads::ServingRuntime> rt;
};

ServingInstance servingSetup(const topo::Topology& topo,
                             const routing::RoutingAlgorithm& routing,
                             std::uint64_t seed) {
  ServingInstance s;
  testbed::InstanceOptions opt;
  opt.network.pfcEnabled = false;
  s.inst = testbed::makeFullTestbed(topo, routing, opt);
  s.adm = std::make_unique<admission::AdmissionController>(*s.inst.sim, s.inst.net(),
                                                           admission::Policy{});
  workloads::ServingConfig cfg;
  cfg.duration = kServingHorizon;
  cfg.seed = seed;
  s.rt = std::make_unique<workloads::ServingRuntime>(*s.inst.sim, s.inst.net(),
                                                     *s.inst.transport, cfg);
  s.rt->setAdmission(s.adm.get());
  workloads::PartitionAggregateSpec pa;  // gold
  pa.root = 0;
  pa.workers = {8, 9, 13, 14};
  s.rt->addPartitionAggregate(pa);
  for (const int aggregator : {4, 10}) {  // silver: 2 x 15 -> 1 incast
    workloads::IncastSpec incast;
    incast.aggregator = aggregator;
    for (int h = 0; h < topo.numHosts(); ++h) {
      if (h != aggregator) incast.senders.push_back(h);
    }
    incast.bytesPerFlow = 8 * kKiB;
    incast.meanRoundInterval = usToNs(100.0);
    s.rt->addIncast(incast);
  }
  workloads::ReplicationSpec repl;  // silver: replicated writes
  repl.client = 1;
  repl.primary = 6;
  repl.replicas = {9, 13};
  s.rt->addReplication(repl);
  workloads::BurstyMixSpec mix;  // bronze: bursty background
  for (int h = 0; h < topo.numHosts(); ++h) mix.hosts.push_back(h);
  mix.meanFlowInterval = usToNs(200.0);
  s.rt->addBurstyMix(mix);
  s.rt->setRateScale(kServingScale);
  return s;
}

Result runServing(const Options& o, Spans& spans, SpeedReference& ref) {
  Result r;
  r.workUnit = "hops";
  const topo::Topology topo = topo::makeFatTree(4);
  const int ops = opsFor(o, 0.2, 3);
  std::uint64_t events = 0;
  std::uint64_t lookups = 0;
  std::int64_t peakQueue = 0;
  PortTotals fabric;
  std::uint64_t samples = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  for (int op = 0; op < ops; ++op) {
    // A setup takes ~15 us and its speed drifts with the machine's over
    // seconds, so every op times a batch of back-to-back setups and runs on
    // the last one's instance: the setup samples then span the whole run.
    const double scale = ref.scale();  // before the setups, not between them and the op
    std::unique_ptr<routing::ShortestPathRouting> paths;
    ServingInstance s;
    for (int i = 0; i < setupsFor(o, kServingSetupsPerOp); ++i) {
      s = ServingInstance{};  // tearing down the previous setup is not timed
      paths.reset();
      const int setupSpan = spans.open("setup");
      const double s0 = wallNow();
      paths = std::make_unique<routing::ShortestPathRouting>(topo);
      s = servingSetup(topo, *paths, o.seed);
      r.setupSeconds.push_back(wallNow() - s0);
      spans.close(setupSpan);
    }
    requireSerialEngine(*s.inst.sim);

    const int span = spans.open("workloads.serving_run", op);
    const double t0 = wallNow();
    const double c0 = cpuNow();
    s.adm->start(kServingHorizon);
    s.rt->start();
    s.inst.sim->run();
    const double c1 = cpuNow();
    const double t1 = wallNow();
    spans.close(span);
    r.addOp(t1 - t0, c1 - c0, scale);

    Digest d;
    d.add(static_cast<std::uint64_t>(s.inst.sim->now()));
    d.add(s.rt->statsDigest());
    std::uint64_t opOffered = 0;
    for (const auto cls : {admission::Priority::kGold, admission::Priority::kSilver,
                           admission::Priority::kBronze}) {
      const auto cs = s.rt->classStats(cls);
      d.add(cs.offered);
      d.add(cs.completed);
      d.add(cs.shed);
      d.add(static_cast<std::uint64_t>(cs.sloGoodBytes));
      opOffered += cs.offered;
      offered += cs.offered;
      completed += cs.completed;
      const auto cc = s.adm->classCounters(cls);
      admitted += cc.admitted;
      shed += cc.shed;
    }
    const PortTotals pd = digestPorts(s.inst.net(), d);
    r.opDigests.push_back(d.hex());
    if (opOffered == 0) r.fail(op, "serving run offered no traffic");
    fabric.txPackets += pd.txPackets;
    fabric.drops += pd.drops;
    fabric.pauses += pd.pauses;
    events += s.inst.sim->eventsProcessed();
    lookups += flowLookups(s.inst.built.ofSwitches);
    peakQueue = std::max(peakQueue, s.inst.net().peakQueueBytes());
    samples += s.adm->samplesTaken();
  }
  r.work = fabric.txPackets;
  json::Object& c = r.counts;
  c["sim.events"] = static_cast<std::int64_t>(events);
  c["sim.hops"] = static_cast<std::int64_t>(fabric.txPackets);
  c["sim.drops"] = static_cast<std::int64_t>(fabric.drops);
  c["sim.pauses"] = static_cast<std::int64_t>(fabric.pauses);
  c["sim.peak_queue_bytes"] = peakQueue;
  c["openflow.lookups"] = static_cast<std::int64_t>(lookups);
  c["admission.samples"] = static_cast<std::int64_t>(samples);
  c["admission.admitted"] = static_cast<std::int64_t>(admitted);
  c["admission.shed"] = static_cast<std::int64_t>(shed);
  c["workloads.serving_offered"] = static_cast<std::int64_t>(offered);
  c["workloads.serving_completed"] = static_cast<std::int64_t>(completed);
  c["openflow.adds"] = static_cast<std::int64_t>(0);
  c["openflow.removes"] = static_cast<std::int64_t>(0);
  return r;
}

// ---- reroute_dragonfly_live -----------------------------------------------
//
// Dragonfly(4,9,2) deployed with dragonfly-minimal; each operation is one
// live two-phase routing flip (minimal <-> shortest) through planUpdate +
// ReconfigTransaction over a seeded lossy control channel, journaled to
// memory. No data traffic. After every transaction the flow tables are
// checked against invariants through public accessors.

constexpr int kRerouteSetups = 5;

using Table = std::vector<openflow::FlowEntry>;

/// Total order over rule identity (sameRule's fields), for multiset compares.
bool ruleLess(const openflow::FlowEntry& a, const openflow::FlowEntry& b) {
  const auto key = [](const openflow::FlowEntry& e) {
    const openflow::Match& m = e.match;
    return std::tie(e.priority, e.cookie, m.inPort, m.srcAddr, m.dstAddr, m.srcPort,
                    m.dstPort, m.protocol, m.trafficClass);
  };
  if (key(a) != key(b)) return key(a) < key(b);
  return std::lexicographical_compare(
      a.actions.begin(), a.actions.end(), b.actions.begin(), b.actions.end(),
      [](const openflow::Action& x, const openflow::Action& y) {
        return std::tie(x.type, x.arg) < std::tie(y.type, y.arg);
      });
}

/// Multiset equality of two tables under openflow::sameRule.
bool sameRules(Table a, Table b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end(), ruleLess);
  std::sort(b.begin(), b.end(), ruleLess);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!openflow::sameRule(a[i], b[i])) return false;
  }
  return true;
}

struct RerouteInstance {
  std::unique_ptr<controller::SdtController> ctl;
  controller::Deployment dep;
  std::unique_ptr<sim::Simulator> sim;
  sim::BuiltNetwork built;
  std::unique_ptr<sim::ControlChannel> channel;
  std::unique_ptr<controller::MemoryJournalStorage> storage;
  std::unique_ptr<controller::Journal> journal;
};

Result runReroute(const Options& o, Spans& spans, SpeedReference& ref) {
  Result r;
  r.workUnit = "flow_mods";
  const topo::Topology topo = topo::makeDragonfly(4, 9, 2);
  std::unique_ptr<routing::RoutingAlgorithm> minimal;
  std::unique_ptr<routing::RoutingAlgorithm> shortest;
  RerouteInstance in;
  for (int i = 0; i < setupsFor(o, kRerouteSetups); ++i) {
    in = RerouteInstance{};
    ref.sample();
    const int span = spans.open("setup");
    const double t0 = wallNow();
    minimal = spans.scoped("routing.build",
                           [&] { return buildRouting("dragonfly-minimal", topo); });
    shortest = spans.scoped("routing.build", [&] { return buildRouting("shortest", topo); });
    in.ctl = std::make_unique<controller::SdtController>(
        spans.scoped("projection.plan", [&] { return autoPlant(topo); }));
    auto dep = spans.scoped("controller.deploy", [&] { return in.ctl->deploy(topo, *minimal); });
    if (!dep) die("deploy: " + dep.error().message);
    in.dep = std::move(dep).value();
    spans.scoped("sim.build", [&] {
      in.sim = std::make_unique<sim::Simulator>();
      in.built = sim::buildProjectedNetwork(*in.sim, topo, in.dep.projection,
                                            in.ctl->plant(), in.dep.switches, {},
                                            {2.0, 1.0});
      return 0;
    });
    sim::ControlChannelConfig cc;
    cc.dropProb = 0.10;
    cc.dupProb = 0.05;
    cc.reorderProb = 0.05;
    in.channel = std::make_unique<sim::ControlChannel>(*in.sim, o.seed, cc);
    in.storage = std::make_unique<controller::MemoryJournalStorage>();
    in.journal = std::make_unique<controller::Journal>(*in.storage);
    r.setupSeconds.push_back(wallNow() - t0);
    spans.close(span);
  }
  requireSerialEngine(*in.sim);
  sim::Simulator& sim = *in.sim;

  controller::DeployOptions dopt;
  dopt.requireDeadlockFree = false;  // no data traffic; shortest path may cycle
  controller::ReconfigOptions topt;
  topt.journal = in.journal.get();

  const int ops = opsFor(o, 0.04, 20);
  const std::uint64_t events0 = sim.eventsProcessed();
  std::int64_t flowMods = 0;
  std::int64_t barriers = 0;
  std::int64_t retries = 0;
  std::int64_t roundsAcked = 0;
  std::int64_t rollbacks = 0;
  for (int op = 0; op < ops; ++op) {
    const routing::RoutingAlgorithm& target = op % 2 == 0 ? *shortest : *minimal;
    const double scale = ref.scale();
    std::vector<Table> preOp;
    for (const auto& sw : in.dep.switches) preOp.push_back(sw->table().entries());

    const int span = spans.open("controller.op", op);
    const double t0 = wallNow();
    const double c0 = cpuNow();
    auto plan = spans.scoped(
        "controller.plan", [&] { return in.ctl->planUpdate(in.dep, topo, target, dopt); },
        op);
    if (!plan) {
      const double c1 = cpuNow();
      const double t1 = wallNow();
      spans.close(span);
      r.addOp(t1 - t0, c1 - c0, scale);
      r.fail(op, "planUpdate: " + plan.error().message);
      continue;
    }
    const std::vector<Table> planned = plan.value().tables;
    const std::uint32_t toEpoch = plan.value().toEpoch;
    controller::ReconfigTransaction tx(sim, *in.channel, in.dep, std::move(plan).value(),
                                       topt);
    spans.scoped(
        "controller.tx",
        [&] {
          tx.start();
          sim.run();
          return 0;
        },
        op);
    const double c1 = cpuNow();
    const double t1 = wallNow();
    spans.close(span);
    r.addOp(t1 - t0, c1 - c0, scale);

    const controller::ReconfigReport& rep = tx.report();
    flowMods += rep.flowModsInstalled + rep.flowModsRolledBack + rep.flowModsGarbageCollected;
    barriers += rep.barrierRoundTrips;
    retries += rep.retriesTotal;
    rollbacks += rep.rolledBack ? 1 : 0;
    for (const controller::SwitchTxState& s : rep.switches) {
      roundsAcked += s.installAcked + s.barrierAcked + s.flipAcked + s.gcAcked +
                     s.rollbackAcked;
    }

    // Invariants (not timed). Committed: every table is exactly the plan's
    // compiled table and stamps toEpoch. Rolled back: every table is exactly
    // what it held before the op.
    std::string why;
    if (!tx.finished()) {
      why = "transaction did not finish";
    } else if (rep.committed) {
      for (std::size_t sw = 0; sw < in.dep.switches.size() && why.empty(); ++sw) {
        const openflow::Switch& ofs = *in.dep.switches[sw];
        if (!sameRules(ofs.table().entries(), planned[sw])) {
          why = "committed, but switch " + std::to_string(sw) + " holds " +
                std::to_string(ofs.table().size()) + " rules, plan has " +
                std::to_string(planned[sw].size());
        } else if (ofs.ingressEpoch() != toEpoch) {
          why = "committed, but switch " + std::to_string(sw) + " stamps epoch " +
                std::to_string(ofs.ingressEpoch());
        }
      }
    } else if (rep.rolledBack) {
      for (std::size_t sw = 0; sw < in.dep.switches.size() && why.empty(); ++sw) {
        if (!sameRules(in.dep.switches[sw]->table().entries(), preOp[sw])) {
          why = "rolled back, but switch " + std::to_string(sw) + " differs from its pre-op table";
        }
      }
    } else {
      why = "transaction neither committed nor rolled back";
    }
    if (!why.empty()) r.fail(op, why);
  }
  r.work = static_cast<std::uint64_t>(flowMods);
  const sim::ControlChannelStats& cs = in.channel->stats();
  json::Object& c = r.counts;
  c["sim.events"] = static_cast<std::int64_t>(sim.eventsProcessed() - events0);
  c["sim.hops"] = static_cast<std::int64_t>(0);
  c["sim.drops"] = static_cast<std::int64_t>(in.built.net->totalDrops());
  c["sim.pauses"] = static_cast<std::int64_t>(0);
  c["sim.ctrl_msgs_sent"] = static_cast<std::int64_t>(cs.sent);
  c["sim.ctrl_msgs_delivered"] = static_cast<std::int64_t>(cs.delivered);
  c["sim.ctrl_msgs_dropped"] = static_cast<std::int64_t>(cs.dropped);
  c["openflow.lookups"] = static_cast<std::int64_t>(flowLookups(in.dep.switches));
  c["controller.flow_mods"] = flowMods;
  c["controller.barrier_round_trips"] = barriers;
  c["controller.retries"] = retries;
  c["controller.rounds_acked"] = roundsAcked;
  c["controller.rollbacks"] = rollbacks;
  addTableTotals(in.dep.switches, c);
  return r;
}

// ---- main -----------------------------------------------------------------

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--setups") {
      o.setups = std::atoi(value().c_str());
    } else if (a == "--ops") {
      o.ops = std::atoi(value().c_str());
    } else if (a == "--trace") {
      o.trace = true;
    } else {
      die("unknown argument " + a);
    }
  }
  if (o.workload.empty()) die("--workload is required");
  if (!(o.seconds > 0.0)) die("--seconds must be positive");
  return o;
}

int main(int argc, char** argv) {
  const Options o = parseArgs(argc, argv);
  Spans spans(o.trace);
  SpeedReference ref(!o.trace);
  Result r;
  if (o.workload == "t4_torus3d_alltoall") {
    r = runT4(o, spans, ref);
  } else if (o.workload == "serving_overload_ft4") {
    r = runServing(o, spans, ref);
  } else if (o.workload == "reroute_dragonfly_live") {
    r = runReroute(o, spans, ref);
  } else {
    die("unknown workload " + o.workload);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  const auto array = [](const std::vector<double>& v) {
    json::Array a;
    for (const double x : v) a.emplace_back(x);
    return a;
  };
  json::Array digests;
  for (const std::string& d : r.opDigests) digests.emplace_back(d);
  json::Array failures;
  for (const std::string& f : r.failures) failures.emplace_back(f);
  json::Array opOk;
  for (const bool ok : r.opOk) opOk.emplace_back(ok);
  json::Object out{
      {"workload", o.workload},
      {"seed", std::to_string(o.seed)},
      {"setup_s", array(r.setupSeconds)},
      {"run_s", r.runSeconds},
      {"cpu_s", r.cpuSeconds},
      {"ref_run_s", r.refRunSeconds},
      {"ref_cpu_s", r.refCpuSeconds},
      {"op_ms", array(r.opMs)},
      {"op_scale", array(r.opScale)},
      {"ref_kernel_ms", array(ref.samples())},
      {"ref_nominal_ms", SpeedReference::kNominalMs},
      {"work", static_cast<std::int64_t>(r.work)},
      {"work_unit", r.workUnit},
      {"attempted", r.attempted},
      {"failed", r.failed},
      {"failures", std::move(failures)},
      {"op_digests", std::move(digests)},
      {"op_ok", std::move(opOk)},
      {"counts", std::move(r.counts)},
      {"timings", std::move(r.timings)},
      {"peak_rss_kb", static_cast<std::int64_t>(ru.ru_maxrss)},
      // Every instance passed requireSerialEngine(); these are what a
      // default-constructed Simulator reads from the environment.
      {"engine", json::Object{{"env_shards", sim::Simulator::envShards()},
                              {"env_workers", sim::Simulator::envWorkers()}}},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"gprof", PERFBENCH_GPROF != 0},
      {"hw_threads", static_cast<std::int64_t>(std::thread::hardware_concurrency())},
      {"compiler", "g++ " __VERSION__},
  };
  if (o.trace) {
    out["spans"] = spans.summary();
    out["span_records"] = spans.records();
  }
  const std::string text = json::Value(std::move(out)).dump();
  std::printf("%s\n", text.c_str());
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main(argc, argv); }
