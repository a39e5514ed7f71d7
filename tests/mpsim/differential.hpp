// Golden-trace harness of the simulator (docs/simulator.md).
//
// Runs a simulated program and checks everything observable (final virtual
// clocks, per-process stats, failed ranks, makespan, the trace CSV and,
// when the program reports them, extra lines such as a runtime's selections
// or ledger) against a committed fixture in tests/mpsim/golden/, then runs
// it a second time and checks that the two runs agree. The fixtures were recorded from
// the thread engine (one OS thread per simulated process) before it was
// deleted, at a commit where a dual-engine harness proved its output
// bit-identical to the event engine's. They pin that the one engine left
// still reproduces it.
//
// Trace masking: kMapperSearch and kEstCompile events carry *real*
// wall-clock durations in their CSV units column (docs/observability.md's
// event table), which legitimately differ between runs; those lines are
// dropped before comparison. Everything
// else on the trace timeline is virtual and must match exactly.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <ios>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../golden_text.hpp"
#include "hnoc/cluster.hpp"
#include "mpsim/trace.hpp"
#include "mpsim/world.hpp"

namespace hmpi::mp::testing {

/// Everything observable from one run.
struct EngineRun {
  World::RunResult result;
  std::string trace_csv;  ///< write_csv output with wall-clock kinds masked.
  bool threw = false;
  std::string error;  ///< what() of the body/world exception, if any.
  /// Lines the program reported after the run (empty for most programs).
  std::string appendix;
};

inline std::string mask_wall_clock_lines(const std::string& csv) {
  std::istringstream in(csv);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("mapper_search,", 0) == 0) continue;
    if (line.rfind("est_compile,", 0) == 0) continue;
    out << line << '\n';
  }
  return out.str();
}

/// Extra observables of one run, read once the world has finished.
using Appendix = std::function<std::string()>;

inline EngineRun run_traced(const hnoc::Cluster& cluster,
                            std::vector<int> placement,
                            const std::function<void(Proc&)>& body,
                            World::Options options = {},
                            const Appendix& appendix = nullptr) {
  Tracer tracer;
  options.tracer = &tracer;
  EngineRun run;
  try {
    run.result = World::run(cluster, std::move(placement), body, options);
  } catch (const std::exception& e) {
    run.threw = true;
    run.error = e.what();
  }
  std::ostringstream csv;
  tracer.write_csv(csv);
  run.trace_csv = mask_wall_clock_lines(csv.str());
  if (appendix) run.appendix = appendix();
  return run;
}

/// Canonical text of a run: one line per observable, doubles in hexfloat so
/// equal text means bit-identical values. A run that threw is reduced to its
/// error (the fixtures' thread engine tore an aborted world down at racy
/// points, so its partial state was not comparable).
inline std::string fingerprint(const EngineRun& run) {
  std::ostringstream out;
  out << std::hexfloat;
  if (run.threw) {
    out << "threw " << run.error << '\n';
    return out.str();
  }
  const World::RunResult& r = run.result;
  out << "makespan " << r.makespan << '\n';
  out << "failed";
  for (int rank : r.failed_ranks) out << ' ' << rank;
  out << '\n';
  for (std::size_t i = 0; i < r.clocks.size(); ++i) {
    const Stats& s = r.stats[i];
    out << "rank " << i << " clock " << r.clocks[i] << " sent " << s.msgs_sent
        << '/' << s.bytes_sent << " received " << s.msgs_received << '/'
        << s.bytes_received << " units " << s.compute_units << " compute "
        << s.compute_time << " wait " << s.wait_time << '\n';
  }
  out << "trace\n" << run.trace_csv;
  if (!run.appendix.empty()) out << "appendix\n" << run.appendix;
  return out.str();
}

using golden::first_difference;

/// Contents of tests/mpsim/golden/<name>; fails the test when it is missing.
inline std::string read_golden(const std::string& name) {
  const std::string path = std::string(HMPI_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden fixture " << path;
    return "";
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

inline void expect_identical_runs(const EngineRun& a, const EngineRun& b) {
  const std::string diff = first_difference(fingerprint(a), fingerprint(b));
  EXPECT_TRUE(diff.empty()) << "runs differ at " << diff;
}

/// Runs `body` twice. The first run must match tests/mpsim/golden/<name>.txt
/// byte for byte and the second run must match the first. `appendix`, when
/// set, is called after each run and its text joins the fingerprint. Returns
/// the first run.
inline EngineRun expect_matches_golden(const std::string& name,
                                       const hnoc::Cluster& cluster,
                                       const std::vector<int>& placement,
                                       const std::function<void(Proc&)>& body,
                                       const World::Options& options = {},
                                       const Appendix& appendix = nullptr) {
  EngineRun first = run_traced(cluster, placement, body, options, appendix);
  const std::string diff =
      first_difference(read_golden(name + ".txt"), fingerprint(first));
  EXPECT_TRUE(diff.empty()) << name << " differs from its fixture at " << diff;
  expect_identical_runs(
      first, run_traced(cluster, placement, body, options, appendix));
  return first;
}

}  // namespace hmpi::mp::testing
