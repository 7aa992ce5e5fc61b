// End-to-end host-clock benchmark of MND-MST.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Generates the workload's graph from the seed, solves it closed-loop (one
// solve at a time, from this one process) through mst::run_mnd_mst or
// mst::run_mnd_mst_streamed for S seconds after an untimed warm-up, and
// checks every forest against graph::kruskal_mst. End-to-end metrics come
// from the untraced solves. With --trace 1 the benchmark also times its own
// calls into each module's public functions and runs one separate traced
// solve, whose spans are folded into the per-layer table and written as a
// Chrome trace into D. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; metrics hold the
// end-to-end metrics with --trace 0 and the per-layer metrics with
// --trace 1. Exits nonzero when any solve failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/mndg.hpp"
#include "graph/reference_mst.hpp"
#include "hypar/partition.hpp"
#include "hypar/stream_load.hpp"
#include "layers.hpp"
#include "mst/mnd_mst.hpp"
#include "obs/export.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using mnd::graph::EdgeList;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// One pool thread per rank on every workload, so ranks x threads never
// exceeds nproc. rmat_stream, a single rank, is not run at nproc threads: on
// a 4-vCPU VM the pool's per-region worker wake-ups made its solve wall time
// track the host's CPU steal (wall up to 2.2x cpu_s at 4 threads and 1.45x
// at 2; solve_s spread 26% from run to run at 4 threads). The pool is
// measured standalone instead (util.*).
constexpr std::size_t kThreadsPerRank = 1;

// Why each workload exists is recorded in BENCHMARK.json.
struct Workload {
  std::string name;
  int ranks = 1;
  int group_size = 2;
  bool streamed = false;  // run_mnd_mst_streamed off an in-memory .mndg
  std::function<EdgeList(std::uint64_t)> generate;
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  w.push_back({"road_lattice", 4, 4, false, [](std::uint64_t seed) {
                 return mnd::graph::road_grid(1024, 1024, 0.03, 0.30, seed);
               }});
  w.push_back({"web_hub", 4, 2, false, [](std::uint64_t seed) {
                 mnd::graph::WebGraphParams p;
                 p.n = 1u << 17;
                 p.target_edges = 1'500'000;
                 p.locality_alpha = 0.55;
                 p.hub_fraction = 0.30;
                 p.num_hubs = 96;
                 p.seed = seed;
                 return mnd::graph::web_graph(p);
               }});
  w.push_back({"rmat_stream", 1, 2, true, [](std::uint64_t seed) {
                 return mnd::graph::rmat(17, 2'000'000, seed);
               }});
  return w;
}

// Every option that would otherwise resolve through an MND_* variable is
// set explicitly here.
mnd::mst::MndMstOptions pinned_options(const Workload& w) {
  mnd::mst::MndMstOptions o;
  o.num_nodes = w.ranks;
  o.threads = kThreadsPerRank;
  o.engine.group_size = w.group_size;
  o.engine.use_gpu = false;
  o.engine.wire = mnd::sim::WireFormat::kCompact;
  o.engine.filter.mode = mnd::mst::FilterMode::kOff;
  o.engine.schedule = mnd::hypar::ScheduleMode::kFixed;
  o.engine.backend = mnd::device::BackendKind::kSim;
  o.engine.validate = false;
  o.validate = false;
  o.partition = mnd::hypar::PartitionScheme::kDegree;
  o.faults = mnd::sim::FaultPlan{};
  return o;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return std::nullopt;
        a.trace = val == "1";
      } else if (key == "--out-dir") {
        a.out_dir = val;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !(a.seconds > 0.0)) {
    return std::nullopt;
  }
  return a;
}

// Names of MND_* environment variables, which would override the pinned
// configuration (MND_THREADS sizes the process pool on first use).
std::vector<std::string> mnd_env_vars() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MND_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  return names;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Resets the process's peak resident set to its current resident set.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

// VmHWM in MiB, or nullopt when /proc does not report it.
std::optional<double> peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      if (in >> kib) return kib / 1024.0;
    }
  }
  return std::nullopt;
}

// Host-wide (steal, total) CPU jiffies from /proc/stat, or nullopt where
// unavailable. Steal is time the hypervisor ran other guests on this
// machine's virtual CPUs: it inflates wall time without showing in cpu_s.
std::optional<std::pair<double, double>> host_steal_jiffies() {
  std::ifstream f("/proc/stat");
  std::string label;
  if (!(f >> label) || label != "cpu") return std::nullopt;
  // user nice system idle iowait irq softirq steal
  double field = 0.0, total = 0.0, steal = 0.0;
  for (int i = 0; i < 8 && f >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return std::make_pair(steal, total);
}

struct Solve {
  std::optional<mnd::mst::MndMstReport> report;  // empty when it threw
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::optional<double> peak_rss_mb;
};

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

void print_table(const std::string& title, const std::vector<e2e::Metric>& ms) {
  std::cout << title << "\n";
  for (const auto& m : ms) {
    std::cout << "  " << std::left << std::setw(36) << m.name << std::right
              << std::setw(22) << num(m.value) << "  " << m.unit << "\n";
  }
}

std::string metrics_json(const std::vector<e2e::Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

std::string manifest_json(const Args& a, const Workload& w, std::size_t nproc) {
  std::ostringstream os;
  os << "{\"manifest\": {\"workload\": \"" << w.name << "\", \"seed\": "
     << a.seed << ", \"seconds\": " << num(a.seconds)
     << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"nproc\": " << nproc
     << ", \"pool_threads\": " << mnd::default_thread_count()
     << ", \"build_type\": \"" << E2E_BUILD_TYPE << "\", \"compiler\": \""
     << E2E_COMPILER << "\", \"config\": {\"ranks\": " << w.ranks
     << ", \"threads_per_rank\": " << kThreadsPerRank
     << ", \"group_size\": " << w.group_size << ", \"input\": \""
     << (w.streamed ? "streamed .mndg (istringstream)" : "materialized edge list")
     << "\", \"wire\": \"compact\", \"filter\": \"off\", \"schedule\": "
        "\"fixed\", \"backend\": \"sim\", \"partition\": \"degree\", "
        "\"validate\": false, \"faults\": \"none\", \"gpu\": false}}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::cerr << "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n";
    return 2;
  }
  const Args& args = *parsed;
  if (const auto env = mnd_env_vars(); !env.empty()) {
    std::cerr << "e2e_bench: refusing to run with MND_* set (";
    for (std::size_t i = 0; i < env.size(); ++i) {
      std::cerr << (i ? ", " : "") << env[i];
    }
    std::cerr << "); the benchmark pins every option itself\n";
    return 2;
  }
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const auto all = workloads();
  const auto wl_it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (wl_it == all.end()) {
    std::cerr << "e2e_bench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const Workload& wl = *wl_it;
  const mnd::mst::MndMstOptions opts = pinned_options(wl);
  std::cout << manifest_json(args, wl, nproc) << std::endl;

  // ---- set-up: generate (and encode) several times, keep the last ----------
  constexpr int kSetupReps = 5;
  std::vector<double> setup_s, generate_s, encode_s;
  EdgeList el;
  std::string encoded;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    el = wl.generate(args.seed);
    generate_s.push_back(seconds_since(t0));
    if (wl.streamed) {
      const auto t1 = Clock::now();
      std::ostringstream out;
      mnd::graph::write_mndg(el, out);
      encoded = std::move(out).str();
      encode_s.push_back(seconds_since(t1));
    }
    setup_s.push_back(seconds_since(t0));
  }

  // ---- the oracle: sequential Kruskal, also the serial baseline -----------
  const auto k0 = Clock::now();
  mnd::graph::MstResult oracle = mnd::graph::kruskal_mst(el);
  const double kruskal_s = seconds_since(k0);
  e2e::Tally tally(std::move(oracle.edges));

  const bool rss_available = reset_peak_rss() && peak_rss_mb().has_value();
  // virtual_s and wire_bytes are deterministic: a solve whose values differ
  // from the warm-up's fails like a wrong forest.
  std::optional<std::pair<double, std::uint64_t>> reference;
  const auto solve = [&](bool traced) {
    mnd::mst::MndMstOptions o = opts;
    o.collect_traces = traced;
    std::optional<std::istringstream> in;
    if (wl.streamed) in.emplace(encoded);
    Solve s;
    // Hand the previous solve's freed heap back to the OS, so every solve
    // starts from the same resident set (the input and nothing left in
    // allocator arenas) and the peak below is this solve's own.
    malloc_trim(0);
    if (rss_available) reset_peak_rss();
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    try {
      s.report = wl.streamed ? mnd::mst::run_mnd_mst_streamed(*in, o)
                             : mnd::mst::run_mnd_mst(el, o);
    } catch (const std::exception& e) {
      std::cerr << "e2e_bench: solve threw: " << e.what() << "\n";
    }
    s.wall_s = seconds_since(t0);
    s.cpu_s = cpu_seconds() - cpu0;
    if (rss_available) s.peak_rss_mb = peak_rss_mb();
    if (!s.report) {
      tally.record_failure();
      return s;
    }
    const std::pair<double, std::uint64_t> outputs{
        s.report->total_seconds, s.report->run.total_bytes_sent()};
    const bool deterministic = !reference || *reference == outputs;
    if (!deterministic) {
      std::cerr << "e2e_bench: virtual time or wire bytes changed between solves\n";
    }
    if (!tally.record(s.report->forest.edges, deterministic)) {
      std::cerr << "e2e_bench: solve failed the check against kruskal_mst\n";
    }
    if (!reference) reference = outputs;
    return s;
  };

  // ---- closed loop: warm-up, then timed solves for --seconds ---------------
  const Solve warm = solve(false);
  std::vector<double> wall, cpu, rss;
  std::optional<mnd::mst::MndMstReport> last = warm.report;
  const auto steal0 = host_steal_jiffies();
  const auto loop0 = Clock::now();
  while (seconds_since(loop0) < args.seconds) {
    Solve s = solve(false);
    wall.push_back(s.wall_s);
    cpu.push_back(s.cpu_s);
    if (s.peak_rss_mb) rss.push_back(*s.peak_rss_mb);
    if (s.report) last = std::move(s.report);
  }
  const double solve_s = median(wall);
  const auto steal1 = host_steal_jiffies();

  std::vector<e2e::Metric> e2e_metrics = {
      {"setup_s", "s", median(setup_s)},
      {"solve_s", "s", solve_s},
      {"cpu_s", "s", median(cpu)},
  };
  // Missing, never 0, where /proc cannot reset the peak.
  if (!rss.empty()) e2e_metrics.push_back({"solve_peak_rss_mb", "MiB", median(rss)});
  if (reference) e2e_metrics.push_back({"virtual_s", "s", reference->first});

  // ---- per-layer table ------------------------------------------------------
  std::vector<e2e::Metric> layer_metrics;
  if (args.trace) {
    const std::size_t threads = kThreadsPerRank;
    auto t0 = Clock::now();
    const mnd::graph::Csr csr = mnd::graph::Csr::from_edge_list(el, threads);
    const double csr_s = seconds_since(t0);
    // The same CSR build with the pool at nproc threads.
    t0 = Clock::now();
    mnd::graph::Csr::from_edge_list(el, nproc);
    const double csr_nproc_s = seconds_since(t0);
    t0 = Clock::now();
    mnd::hypar::partition_by_degree(csr, wl.ranks, threads);
    const double partition_s = seconds_since(t0);
    double mndg_encode_s = median(encode_s);
    if (!wl.streamed) {
      t0 = Clock::now();
      std::ostringstream out;
      mnd::graph::write_mndg(el, out);
      encoded = std::move(out).str();
      mndg_encode_s = seconds_since(t0);
    }
    double stream_load_s = 0.0;
    {
      mnd::hypar::StreamLoadOptions so;
      so.ranks = wl.ranks;
      so.scheme = mnd::hypar::PartitionScheme::kDegree;
      so.threads = threads;
      std::istringstream in(encoded);
      t0 = Clock::now();
      mnd::hypar::stream_load_mndg(in, so);
      stream_load_s = seconds_since(t0);
    }

    // One separate traced solve; its spans stay in memory until folded.
    const Solve traced = solve(true);

    layer_metrics = {
        {"graph.generate_s", "s", median(generate_s)},
        {"graph.mndg_encode_s", "s", mndg_encode_s},
        {"graph.csr_build_s", "s", csr_s},
        {"graph.kruskal_s", "s", kruskal_s},
        {"hypar.stream_load_s", "s", stream_load_s},
        {"hypar.partition_s", "s", partition_s},
        {"util.csr_build_nproc_s", "s", csr_nproc_s},
        {"util.pool_speedup", "ratio", csr_s / csr_nproc_s},
    };
    if (traced.report) {
      for (auto& m : e2e::fold_trace(traced.report->run.rank_traces, traced.wall_s)) {
        layer_metrics.push_back(std::move(m));
      }
    }
    if (last) {
      for (auto& m : e2e::report_layers(*last)) layer_metrics.push_back(std::move(m));
    }
    layer_metrics.push_back({"obs.trace_overhead_s", "s", traced.wall_s - solve_s});

    if (traced.report) {
      std::filesystem::create_directories(args.out_dir);
      const std::string path = args.out_dir + "/" + wl.name + "-seed" +
                               std::to_string(args.seed) + ".trace.json";
      std::ofstream f(path);
      mnd::obs::write_chrome_trace(f, traced.report->run.rank_traces,
                                   &traced.report->run.rank_causality);
      std::cout << "chrome trace: " << path << "\n";
    }
  }

  // ---- report ---------------------------------------------------------------
  const int attempted = tally.attempted();
  const int failed = tally.failed();
  std::cout << "workload " << wl.name << " seed " << args.seed << ": "
            << wall.size() << " timed solves after 1 warm-up"
            << (args.trace ? " and 1 traced solve" : "") << "\n";
  print_table("end-to-end (untraced solves, medians)", e2e_metrics);
  std::cout << "  solve wall samples (s):";
  for (double w : wall) std::cout << " " << num(w);
  std::cout << "\n  solve cpu samples (s):";
  for (double c : cpu) std::cout << " " << num(c);
  std::cout << "\n";
  if (!rss_available) {
    std::cout << "  solve_peak_rss_mb: missing (/proc/self/clear_refs unavailable)\n";
  }
  if (steal0 && steal1 && steal1->second > steal0->second) {
    std::cout << "  host steal during timed solves: "
              << num(100.0 * (steal1->first - steal0->first) /
                     (steal1->second - steal0->second))
              << "% of host cpu time\n";
  }
  std::cout << "  failed_frac " << num(static_cast<double>(failed) / attempted)
            << " ratio (" << failed << " of " << attempted << " solves)\n";
  if (last) {
    std::cout << "  wire_bytes " << last->run.total_bytes_sent() << " bytes\n";
  }
  if (args.trace) print_table("per-layer", layer_metrics);

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": "
            << metrics_json(args.trace ? layer_metrics : e2e_metrics) << "}"
            << std::endl;
  return failed == 0 ? 0 : 1;
}
