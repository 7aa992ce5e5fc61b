// Self-test of the benchmark's own checks: the Kruskal comparison must
// count a wrong forest as a failure, and the span fold must agree with the
// engine's own per-rank counters. Exits 0 when every check holds.
#include <algorithm>
#include <iostream>
#include <map>
#include <string>

#include "graph/generators.hpp"
#include "graph/reference_mst.hpp"
#include "layers.hpp"
#include "mst/mnd_mst.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAILED: " << what << "\n";
    ++failures;
  }
}

}  // namespace

int main() {
  const mnd::graph::EdgeList el = mnd::graph::rmat(12, 30000, 5);
  mnd::mst::MndMstOptions o;
  o.num_nodes = 4;
  o.threads = 1;
  o.engine.group_size = 2;
  o.engine.wire = mnd::sim::WireFormat::kCompact;
  o.engine.filter.mode = mnd::mst::FilterMode::kOff;
  o.engine.schedule = mnd::hypar::ScheduleMode::kFixed;
  o.engine.backend = mnd::device::BackendKind::kSim;
  o.partition = mnd::hypar::PartitionScheme::kDegree;
  o.collect_traces = true;
  const mnd::mst::MndMstReport report = mnd::mst::run_mnd_mst(el, o);

  // The check has teeth: a forest with one edge removed, or one edge
  // swapped for a non-forest edge, is a failure; the real forest is not.
  e2e::Tally tally(mnd::graph::kruskal_mst(el).edges);
  expect(tally.record(report.forest.edges), "solver forest matches Kruskal");
  std::vector<mnd::graph::EdgeId> short_forest = report.forest.edges;
  short_forest.erase(short_forest.begin() + 3);
  expect(!tally.record(short_forest), "forest with one edge removed fails");
  std::vector<mnd::graph::EdgeId> swapped = report.forest.edges;
  mnd::graph::EdgeId outsider = 0;
  while (std::binary_search(swapped.begin(), swapped.end(), outsider)) ++outsider;
  swapped.back() = outsider;
  expect(!tally.record(swapped), "forest with a swapped edge fails");
  expect(!tally.record(report.forest.edges, /*deterministic=*/false),
         "right forest with changed virtual time fails");
  tally.record_failure();
  expect(tally.attempted() == 5 && tally.failed() == 4,
         "tally counts attempted and failed solves");

  // The fold against the engine's per-rank counters.
  std::map<std::string, double> m;
  for (const auto& x : e2e::fold_trace(report.run.rank_traces, 1.0)) {
    m[x.name] = x.value;
  }
  int ring_l0 = 0, ring_l1 = 0;
  for (const auto& t : report.traces) {
    if (t.levels.size() > 0) ring_l0 = std::max(ring_l0, t.levels[0].ring_rounds);
    if (t.levels.size() > 1) ring_l1 = std::max(ring_l1, t.levels[1].ring_rounds);
  }
  expect(m.at("hypar.merge.L0.ring_rounds") == ring_l0, "L0 ring rounds");
  expect(m.at("hypar.merge.L1.ring_rounds") == ring_l1, "L1 ring rounds");
  expect(m.at("hypar.merge.L1.wall_s") > 0.0, "two merge levels at group 2");
  expect(m.at("mst.kernel_invocations") > 0.0, "kernel spans counted");
  for (const auto& p : e2e::traced_phases()) {
    expect(m.at("hypar." + p + ".virtual_s") > 0.0, p + " has virtual time");
  }
  expect(m.at("hypar.mergeParts.wall_s") >= m.at("hypar.merge.L0.wall_s"),
         "mergeParts covers its levels");
  expect(m.at("obs.span_coverage") > 0.0, "coverage is positive");

  const auto layers = e2e::report_layers(report);
  const auto wire = std::find_if(layers.begin(), layers.end(), [](const auto& x) {
    return x.name == "simcluster.wire_bytes";
  });
  expect(wire != layers.end() &&
             wire->value == static_cast<double>(report.run.total_bytes_sent()),
         "wire bytes read from the report");

  if (failures == 0) std::cout << "e2e_bench selftest: ok\n";
  return failures == 0 ? 0 : 1;
}
