#include "layers.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <numeric>

namespace e2e {

namespace {

constexpr int kLevels = 2;  // L0 and L1: the deepest hierarchy a workload has

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double wall_seconds(const mnd::obs::SpanRecord& s) {
  return (s.wall_end_us - s.wall_begin_us) * 1e-6;
}

// Integer annotation `key`, or `fallback` when the span does not carry it.
std::uint64_t int_arg(const mnd::obs::SpanRecord& s, const std::string& key,
                      std::uint64_t fallback) {
  for (const auto& a : s.args) {
    if (a.key == key && a.kind == mnd::obs::Annotation::Kind::Int) {
      return a.int_value;
    }
  }
  return fallback;
}

struct LevelSums {
  double wall = 0.0;
  double ring_wall = 0.0;
  double leader_wall = 0.0;
  double ring_rounds = 0.0;
};

}  // namespace

bool Tally::record(std::vector<mnd::graph::EdgeId> forest, bool deterministic) {
  ++attempted_;
  std::sort(forest.begin(), forest.end());
  const bool ok = deterministic && forest == expected_;
  if (!ok) ++failed_;
  return ok;
}

const std::vector<std::string>& traced_phases() {
  static const std::vector<std::string> kPhases = {
      "partGraph",  "makeGhost",   "indComp",
      "mergeParts", "postProcess", "collectResults"};
  return kPhases;
}

std::vector<Metric> fold_trace(const std::vector<mnd::obs::RankTraceData>& ranks,
                               double traced_wall_s) {
  const std::size_t p = ranks.size();
  // phase -> per-rank sums.
  std::map<std::string, std::vector<double>> wall, virt;
  for (const auto& name : traced_phases()) {
    wall[name].assign(p, 0.0);
    virt[name].assign(p, 0.0);
  }
  std::vector<std::array<LevelSums, kLevels>> levels(p);
  std::vector<double> covered(p, 0.0);
  double kernels = 0.0;
  double ring_sent = 0.0;
  double ring_raw = 0.0;

  for (std::size_t r = 0; r < p; ++r) {
    // Merge level of the enclosing top-level mergeParts span; -1 while
    // inside any other top-level span.
    long level = -1;
    for (const auto& s : ranks[r].spans) {
      if (s.track != mnd::obs::Tracer::kMainTrack) {
        if (s.name == "kernel:indComp") kernels += 1.0;
        continue;
      }
      const double w = wall_seconds(s);
      if (s.depth == 0) {
        covered[r] += w;
        auto it = wall.find(s.name);
        if (it != wall.end()) {
          it->second[r] += w;
          virt[s.name][r] += s.vt_seconds();
        }
        level = -1;
        if (s.name == "mergeParts") {
          level = static_cast<long>(int_arg(s, "level", 0));
          if (level < kLevels) levels[r][static_cast<std::size_t>(level)].wall += w;
        }
        continue;
      }
      if (level < 0 || level >= kLevels) continue;
      LevelSums& l = levels[r][static_cast<std::size_t>(level)];
      if (s.name == "ringRound") {
        l.ring_wall += w;
        l.ring_rounds += 1.0;
        ring_sent += static_cast<double>(int_arg(s, "sent_bytes", 0));
        ring_raw += static_cast<double>(int_arg(s, "raw_bytes", 0));
      } else if (s.name == "leaderMerge") {
        l.leader_wall += w;
      }
    }
  }

  std::vector<Metric> out;
  for (const auto& name : traced_phases()) {
    const double w = max_of(wall[name]);
    const double v = max_of(virt[name]);
    out.push_back({"hypar." + name + ".wall_s", "s", w});
    out.push_back({"hypar." + name + ".virtual_s", "s", v});
    out.push_back({"hypar." + name + ".wall_per_virtual", "ratio", ratio(w, v)});
  }
  for (const char* name : {"indComp", "mergeParts"}) {
    const auto& per_rank = wall[name];
    const double sum = std::accumulate(per_rank.begin(), per_rank.end(), 0.0);
    out.push_back({std::string("hypar.") + name + ".imbalance", "ratio",
                   ratio(max_of(per_rank), sum / static_cast<double>(p))});
  }
  for (int l = 0; l < kLevels; ++l) {
    std::vector<double> lw(p), rw(p), ldw(p), rr(p);
    for (std::size_t r = 0; r < p; ++r) {
      const LevelSums& s = levels[r][static_cast<std::size_t>(l)];
      lw[r] = s.wall;
      rw[r] = s.ring_wall;
      ldw[r] = s.leader_wall;
      rr[r] = s.ring_rounds;
    }
    const std::string prefix = "hypar.merge.L" + std::to_string(l) + ".";
    out.push_back({prefix + "wall_s", "s", max_of(lw)});
    out.push_back({prefix + "ring_wall_s", "s", max_of(rw)});
    out.push_back({prefix + "leader_wall_s", "s", max_of(ldw)});
    out.push_back({prefix + "ring_rounds", "count", max_of(rr)});
  }
  out.push_back({"mst.kernel_invocations", "count", kernels});
  out.push_back({"simcluster.wire_ratio", "ratio", ratio(ring_sent, ring_raw)});
  out.push_back({"obs.span_coverage", "ratio",
                 ratio(max_of(covered), traced_wall_s)});
  return out;
}

std::vector<Metric> report_layers(const mnd::mst::MndMstReport& report) {
  double ghost = 0.0, boundary = 0.0, comps = 0.0, frozen = 0.0;
  for (const auto& t : report.traces) {
    ghost += static_cast<double>(t.ghost_edges);
    boundary += static_cast<double>(t.boundary_vertices);
    comps += static_cast<double>(t.components_after_level0);
    frozen += static_cast<double>(t.frozen_after_level0);
  }
  double messages = 0.0, comm = 0.0, wait = 0.0;
  for (const auto& c : report.run.rank_comm) {
    messages += static_cast<double>(c.messages_sent);
    comm = std::max(comm, c.comm_seconds);
    wait = std::max(wait, c.wait_seconds);
  }
  double peak = 0.0;
  for (std::size_t b : report.run.rank_peak_memory) {
    peak = std::max(peak, static_cast<double>(b));
  }
  return {
      {"hypar.ghost_edges", "count", ghost},
      {"hypar.boundary_vertices", "count", boundary},
      {"mst.components_level0", "count", comps},
      {"mst.frozen_level0", "count", frozen},
      {"mst.frozen_ratio", "ratio", ratio(frozen, comps)},
      {"simcluster.messages", "count", messages},
      {"simcluster.comm_virtual_s", "s", comm},
      {"simcluster.wait_virtual_s", "s", wait},
      {"simcluster.wire_bytes", "bytes",
       static_cast<double>(report.run.total_bytes_sent())},
      {"simcluster.peak_rank_bytes", "bytes", peak},
  };
}

}  // namespace e2e
