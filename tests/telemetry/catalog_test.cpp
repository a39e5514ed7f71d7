// The metric catalogue (docs/observability.md, "Metrics catalog"): the
// registry and tools/telemetry_check accept exactly its names, and the docs
// table shows exactly its rows. The event catalogue ("The causal event
// log") likewise: its docs table shows exactly its rows, and its entries
// obey the rules the exports rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coll/policy.hpp"
#include "support/error.hpp"
#include "telemetry/causal.hpp"
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
       "coll.tuner.misses", K::kHistogram},
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
      {"crit.coll.op3.algo1.seconds", MetricKind::kGauge}};
  for (const auto& [name, kind] : unresolved) {
    EXPECT_NE(find_metric(name, kind), nullptr) << name;
    EXPECT_FALSE(checker_accepts(name, kind)) << name;
  }
  // coll.tuner.hits matches its own entry and coll.<op>.<algo>; the first
  // needs no resolving.
  EXPECT_TRUE(checker_accepts("coll.tuner.hits", MetricKind::kCounter));
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

// The trimmed cells of each row of the docs table whose header is `header`.
std::vector<std::vector<std::string>> read_table(const std::string& path,
                                                 const std::string& header) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::vector<std::vector<std::string>> rows;
  bool in_table = false;
  for (std::string line; std::getline(in, line);) {
    if (line == header) {
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
    rows.push_back(std::move(cells));
  }
  EXPECT_TRUE(in_table) << "no '" << header << "' table in " << path;
  return rows;
}

DocRows read_docs_table(const std::string& path) {
  DocRows rows;
  for (const std::vector<std::string>& cells :
       read_table(path, "| Name | Kind | Unit | Meaning |")) {
    EXPECT_EQ(cells.size(), 4u);
    if (cells.size() != 4) continue;
    std::string name = cells[0];
    EXPECT_TRUE(name.size() > 2 && name.front() == '`' && name.back() == '`')
        << name;
    name = name.substr(1, name.size() - 2);
    EXPECT_TRUE(
        rows.emplace(std::pair{name, cells[1]}, std::pair{cells[2], cells[3]})
            .second)
        << "duplicate row " << name;
  }
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

// ---------------------------------------------------------------------------
// The event catalogue.
// ---------------------------------------------------------------------------

std::string field_name(EventField field) {
  switch (field) {
    case EventField::kZero: return "0";
    case EventField::kProc: return "proc";
    case EventField::kPeer: return "peer";
    case EventField::kTag: return "tag";
    case EventField::kContext: return "context";
    case EventField::kBytes: return "bytes";
    case EventField::kT0: return "t0";
    case EventField::kT1: return "t1";
    case EventField::kValue: return "value";
    case EventField::kCollOp: return "coll_op";
    case EventField::kCollAlgo: return "coll_algo";
  }
  return "?";
}

std::string path_name(PathRole path) {
  switch (path) {
    case PathRole::kNone: return "-";
    case PathRole::kCompute: return "compute";
    case PathRole::kElapse: return "elapse";
    case PathRole::kSend: return "send";
    case PathRole::kRecv: return "recv";
  }
  return "?";
}

// One docs row: kind, phase, path, kept, CSV units and end, Chrome args,
// meaning. An arg whose key is its field's name shows the key alone.
std::vector<std::string> docs_row(const EventSpec& spec) {
  std::string args;
  for (const EventArg& arg : spec.args) {
    if (arg.name.empty()) break;
    if (!args.empty()) args += ", ";
    args += arg.name;
    if (arg.name != field_name(arg.field)) args += "=" + field_name(arg.field);
  }
  return {"`" + std::string(spec.name) + "`",
          spec.phase == 0 ? "-" : std::string(1, spec.phase),
          path_name(spec.path),
          spec.traced_only ? "traced" : "always",
          field_name(spec.units) + ", " + field_name(spec.end),
          args.empty() ? "-" : args,
          std::string(spec.meaning)};
}

TEST(EventCatalog, KindsAreInOrderWithUniqueNames) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < event_catalog().size(); ++i) {
    const EventSpec& spec = event_catalog()[i];
    EXPECT_EQ(static_cast<std::size_t>(spec.kind), i) << spec.name;
    EXPECT_EQ(&event_spec(spec.kind), &spec);
    EXPECT_EQ(kind_name(spec.kind), spec.name);
    EXPECT_TRUE(names.insert(std::string(spec.name)).second) << spec.name;
    EXPECT_EQ(spec.name.find_first_not_of("abcdefghijklmnopqrstuvwxyz_"),
              std::string_view::npos)
        << spec.name;
    EXPECT_FALSE(spec.meaning.empty()) << spec.name;
  }
}

TEST(EventCatalog, EntriesObeyTheExportRules) {
  for (const EventSpec& spec : event_catalog()) {
    SCOPED_TRACE(std::string(spec.name));
    EXPECT_TRUE(spec.phase == 'X' || spec.phase == 'i' || spec.phase == 0);
    // An instant ends where it starts, whatever it keeps in t1.
    EXPECT_EQ(spec.phase == 'i', spec.end == EventField::kT0);
    // The ring keeps every kind the path walk reads.
    EXPECT_TRUE(spec.path == PathRole::kNone || !spec.traced_only);
    // Message kinds keep their arrival in value: it is no quantity.
    if (spec.path == PathRole::kSend || spec.path == PathRole::kRecv) {
      EXPECT_EQ(spec.units, EventField::kZero);
    }
    std::set<std::string_view> keys = {"processor"};
    for (const EventArg& arg : spec.args) {
      if (arg.name.empty()) continue;
      EXPECT_TRUE(keys.insert(arg.name).second) << arg.name;
    }
  }
}

TEST(EventCatalog, EventArgReadsTheDeclaredField) {
  CausalEvent e;
  e.kind = CausalEvent::Kind::kMapperSearch;
  e.proc = 3;
  e.peer = 4;
  e.bytes = 250;
  e.t1 = 0.75;
  e.value = 0.5;
  EXPECT_EQ(event_arg(e, "processor"), 3.0);
  EXPECT_EQ(event_arg(e, "threads"), 4.0);
  EXPECT_EQ(event_arg(e, "evaluations"), 250.0);
  EXPECT_EQ(event_arg(e, "hit_rate"), 0.75);
  EXPECT_EQ(event_arg(e, "wall_seconds"), 0.5);
  EXPECT_TRUE(std::isnan(event_arg(e, "units")));
  // A 64-bit count reads as signed: an unset group id stays -1.
  e.kind = CausalEvent::Kind::kAdaptTrigger;
  e.bytes = static_cast<std::uint64_t>(-1LL);
  EXPECT_EQ(event_arg(e, "group_id"), -1.0);
}

TEST(EventCatalog, DocsTableEqualsTheCatalogue) {
  const auto rows = read_table(
      HMPI_OBSERVABILITY_DOC,
      "| Kind | Phase | Path | Kept | CSV units, end | Chrome args | Meaning |");
  ASSERT_EQ(rows.size(), event_catalog().size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], docs_row(event_catalog()[i])) << "row " << i + 1;
  }
}

}  // namespace
}  // namespace hmpi::telemetry
