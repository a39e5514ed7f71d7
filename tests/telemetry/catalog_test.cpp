// The metric catalogue (docs/observability.md, "Metrics catalog"): the
// registry and tools/telemetry_check accept exactly its names, and the docs
// table shows exactly its rows.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coll/policy.hpp"
#include "support/error.hpp"
#include "telemetry/metrics.hpp"

namespace hmpi::telemetry {
namespace {

constexpr MetricKind kKinds[] = {MetricKind::kCounter, MetricKind::kGauge,
                                 MetricKind::kHistogram};

// Registers `name` as `kind` in a fresh registry.
void register_as(std::string_view name, MetricKind kind) {
  MetricsRegistry reg;
  switch (kind) {
    case MetricKind::kCounter: reg.counter(name); break;
    case MetricKind::kGauge: reg.gauge(name); break;
    case MetricKind::kHistogram: reg.histogram(name); break;
  }
}

// The lookup tools/telemetry_check applies to every dumped name.
bool checker_accepts(std::string_view name, MetricKind kind) {
  return find_metric(name, kind, coll::names_collective) != nullptr;
}

TEST(MetricCatalog, PatternsAreWellFormedAndUnique) {
  const std::set<std::string> placeholders = {"<p>", "<src>", "<dst>", "<op>",
                                              "<algo>"};
  const std::set<std::string> units = {"count", "s",    "bytes",
                                       "ratio", "flag", "1/s"};
  std::set<std::string> patterns;
  for (const MetricSpec& spec : metric_catalog()) {
    const std::string pattern(spec.pattern);
    EXPECT_TRUE(patterns.insert(pattern).second) << pattern;
    EXPECT_TRUE(units.count(std::string(spec.unit))) << pattern;
    EXPECT_FALSE(spec.meaning.empty()) << pattern;
    // Each placeholder is a known one and a whole dot-separated segment.
    for (std::size_t open = pattern.find('<'); open != std::string::npos;
         open = pattern.find('<', open + 1)) {
      const std::size_t close = pattern.find('>', open);
      ASSERT_NE(close, std::string::npos) << pattern;
      EXPECT_TRUE(placeholders.count(pattern.substr(open, close - open + 1)))
          << pattern;
      EXPECT_TRUE(open > 0 && pattern[open - 1] == '.') << pattern;
      EXPECT_TRUE(close + 1 == pattern.size() || pattern[close + 1] == '.')
          << pattern;
    }
  }
}

// One row per namespace: a declared name, an undeclared one, and a declared
// name asked for under a kind the catalogue does not give it.
struct NamespaceRow {
  std::string declared;
  MetricKind kind;
  std::string undeclared;
  std::string wrong_kind_name;
  MetricKind wrong_kind;
};

TEST(MetricCatalog, EachNamespaceAcceptsOnlyDeclaredNamesOfTheirKind) {
  using K = MetricKind;
  const std::vector<NamespaceRow> rows = {
      {"group_migrations", K::kCounter, "groups_migrated", "cache_hit_rate",
       K::kCounter},
      {"machine.12.messages_sent", K::kCounter, "machine.x.messages_sent",
       "machine.0.compute_seconds", K::kGauge},
      {"coll.bcast.binomial", K::kCounter, "coll.Bcast.binomial",
       "coll.tuner.hits", K::kGauge},
      {"coll.allreduce.seconds", K::kHistogram, "coll.allreduce",
       "coll.feedback.bcast.flat", K::kCounter},
      {"crit.link.0.1.seconds", K::kGauge, "crit.link.0.seconds",
       "crit.path_seconds", K::kCounter},
      {"est.cache.hits", K::kCounter, "est.delta.x", "est.compile.seconds",
       K::kCounter},
      {"est.compile.count", K::kCounter, "est.compile.total",
       "est.cache.misses", K::kGauge},
      {"mapper.batch.chunks", K::kCounter, "mapper.batch.evaluated",
       "mapper.batch.candidates", K::kGauge},
      {"adapt.blame_share", K::kGauge, "adapt.migrated", "adapt.checks",
       K::kHistogram},
      {"sim.runs.event", K::kCounter, "sim.runs.thread", "sim.fibers",
       K::kCounter},
      {"sched.wait_seconds", K::kHistogram, "sched.queue_depth_max",
       "sched.queue_depth", K::kCounter},
  };
  for (const NamespaceRow& row : rows) {
    SCOPED_TRACE(row.declared);
    EXPECT_TRUE(checker_accepts(row.declared, row.kind));
    EXPECT_NO_THROW(register_as(row.declared, row.kind));
    for (MetricKind kind : kKinds) {
      EXPECT_FALSE(checker_accepts(row.undeclared, kind));
      EXPECT_THROW(register_as(row.undeclared, kind), InvalidArgument);
    }
    EXPECT_FALSE(checker_accepts(row.wrong_kind_name, row.wrong_kind));
    EXPECT_THROW(register_as(row.wrong_kind_name, row.wrong_kind),
                 InvalidArgument);
  }
}

TEST(MetricCatalog, RegistryErrorNamesTheMetricAndTheKind) {
  MetricsRegistry reg;
  reg.gauge("sched.queue_depth");
  try {
    reg.counter("sched.queue_depth");
    FAIL() << "a gauge's name registered as a counter";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "metric 'sched.queue_depth' is not declared as a counter"),
              std::string::npos)
        << e.what();
  }
  // The existing gauge is still returned without a check.
  EXPECT_EQ(&reg.gauge("sched.queue_depth"), &reg.gauge("sched.queue_depth"));
}

TEST(MetricCatalog, OpAndAlgoSegmentsResolveAgainstTheCollTables) {
  // The registry checks the grammar only; the checker also resolves the
  // segments, so a lower-case name that is no collective passes the first
  // and fails the second.
  const std::vector<std::pair<std::string, MetricKind>> unresolved = {
      {"coll.bcast.bogus", MetricKind::kCounter},
      {"coll.bcast.auto", MetricKind::kCounter},
      {"coll.tuner.bogus", MetricKind::kCounter},
      {"coll.gather.seconds", MetricKind::kHistogram},
      {"coll.feedback.barrier.ring", MetricKind::kGauge},
      {"crit.coll.op3.algo1.seconds", MetricKind::kGauge}};
  for (const auto& [name, kind] : unresolved) {
    EXPECT_NE(find_metric(name, kind), nullptr) << name;
    EXPECT_FALSE(checker_accepts(name, kind)) << name;
  }
  // coll.tuner.hits matches its own entry and coll.<op>.<algo>; the first
  // needs no resolving.
  EXPECT_TRUE(checker_accepts("coll.tuner.hits", MetricKind::kCounter));
  EXPECT_TRUE(checker_accepts("coll.feedback.barrier.tournament",
                              MetricKind::kGauge));
  EXPECT_TRUE(checker_accepts("crit.coll.reduce_scatter.pairwise.seconds",
                              MetricKind::kGauge));
}

// The rows of docs/observability.md's metrics table: (name, kind) ->
// (unit, meaning).
using DocRows = std::map<std::pair<std::string, std::string>,
                         std::pair<std::string, std::string>>;

std::string trim(const std::string& s) {
  const std::size_t first = s.find_first_not_of(' ');
  const std::size_t last = s.find_last_not_of(' ');
  return first == std::string::npos ? "" : s.substr(first, last - first + 1);
}

DocRows read_docs_table(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  DocRows rows;
  bool in_table = false;
  for (std::string line; std::getline(in, line);) {
    if (line == "| Name | Kind | Unit | Meaning |") {
      in_table = true;
      std::getline(in, line);  // the |---| separator
      continue;
    }
    if (!in_table) continue;
    if (line.empty() || line[0] != '|') break;
    std::vector<std::string> cells;
    std::istringstream row(line.substr(1));
    for (std::string cell; std::getline(row, cell, '|');) {
      cells.push_back(trim(cell));
    }
    EXPECT_EQ(cells.size(), 4u) << line;
    if (cells.size() != 4) continue;
    std::string name = cells[0];
    EXPECT_TRUE(name.size() > 2 && name.front() == '`' && name.back() == '`')
        << line;
    name = name.substr(1, name.size() - 2);
    EXPECT_TRUE(
        rows.emplace(std::pair{name, cells[1]}, std::pair{cells[2], cells[3]})
            .second)
        << "duplicate row " << line;
  }
  EXPECT_TRUE(in_table) << "no '| Name | Kind | Unit | Meaning |' table in "
                        << path;
  return rows;
}

TEST(MetricCatalog, DocsTableEqualsTheCatalogue) {
  DocRows docs = read_docs_table(HMPI_OBSERVABILITY_DOC);
  for (const MetricSpec& spec : metric_catalog()) {
    const std::pair<std::string, std::string> key{
        std::string(spec.pattern), metric_kind_name(spec.kind)};
    const auto it = docs.find(key);
    if (it == docs.end()) {
      ADD_FAILURE() << "docs table lacks " << key.second << " `" << key.first
                    << "`";
      continue;
    }
    EXPECT_EQ(it->second.first, spec.unit) << key.first;
    EXPECT_EQ(it->second.second, spec.meaning) << key.first;
    docs.erase(it);
  }
  for (const auto& [key, rest] : docs) {
    ADD_FAILURE() << "docs table lists " << key.second << " `" << key.first
                  << "`, which the catalogue does not declare";
  }
}

}  // namespace
}  // namespace hmpi::telemetry
