// Pieces of the end-to-end benchmark that its self-test exercises: the
// forest check against the Kruskal oracle and the fold of one traced
// solve's spans (plus the untraced report's counters) into the per-layer
// table.
#pragma once

#include <string>
#include <vector>

#include "graph/types.hpp"
#include "mst/mnd_mst.hpp"
#include "obs/trace.hpp"

namespace e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Counts solves and failures. A solve fails when it threw, when its
/// sorted forest edge ids differ from the oracle's, or when its
/// deterministic outputs (virtual time, wire bytes) differ from an earlier
/// solve's.
class Tally {
 public:
  /// `expected` must be sorted (kruskal_mst returns it sorted).
  explicit Tally(std::vector<mnd::graph::EdgeId> expected)
      : expected_(std::move(expected)) {}

  /// Records one solve's forest; returns true when it matches the oracle
  /// and `deterministic` holds.
  bool record(std::vector<mnd::graph::EdgeId> forest, bool deterministic = true);
  /// Records a solve that threw.
  void record_failure() {
    ++attempted_;
    ++failed_;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  std::vector<mnd::graph::EdgeId> expected_;
  int attempted_ = 0;
  int failed_ = 0;
};

/// The phases of Algorithm 1 reported as hypar.<P>.* layer metrics, in
/// pipeline order.
const std::vector<std::string>& traced_phases();

/// Folds one traced solve's spans into the traced layer metrics:
///  * hypar.<P>.{wall_s,virtual_s,wall_per_virtual}: per-rank sum of the
///    phase's top-level main-track spans, maxed over ranks;
///  * hypar.{indComp,mergeParts}.imbalance: max/mean over ranks of the
///    phase wall;
///  * hypar.merge.L<l>.{wall_s,ring_wall_s,leader_wall_s,ring_rounds} for
///    l in {0, 1}, grouped by the mergeParts spans' `level` annotation;
///  * mst.kernel_invocations: kernel:indComp spans on device tracks;
///  * simcluster.wire_ratio: sum of ringRound sent_bytes over raw_bytes;
///  * obs.span_coverage: max over ranks of the summed top-level main-track
///    span wall over `traced_wall_s`.
/// Absent phases and levels read 0.
std::vector<Metric> fold_trace(const std::vector<mnd::obs::RankTraceData>& ranks,
                               double traced_wall_s);

/// Layer counters read from an untraced solve's report: hypar ghost and
/// boundary totals, level-0 components and frozen components, and the
/// simulated cluster's messages, comm/wait virtual time, wire bytes and
/// peak rank bytes.
std::vector<Metric> report_layers(const mnd::mst::MndMstReport& report);

}  // namespace e2e
