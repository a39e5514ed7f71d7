#include "hnoc/cluster_io.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "support/error.hpp"

namespace hmpi::hnoc {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw InvalidArgument("cluster description line " + std::to_string(line) +
                        ": " + message);
}

/// `token` parsed whole as a T by std::from_chars; false otherwise.
template <typename T>
bool parse_whole(const std::string& token, T& out) {
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, out);
  return error == std::errc{} && stop == end;
}

/// A finite decimal number.
double parse_number(const std::string& token, int line, const char* what) {
  double value = 0.0;
  if (!parse_whole(token, value) || !std::isfinite(value)) {
    fail(line, std::string("malformed ") + what + " '" + token +
                   "' (expected a finite decimal number)");
  }
  return value;
}

/// The shortest text that std::from_chars reads back as exactly `value`.
std::string number(double value) {
  char buffer[32];
  return std::string(buffer,
                     std::to_chars(buffer, buffer + sizeof(buffer), value).ptr);
}

/// Parses `latency <x> bandwidth <y>` from the remaining tokens.
LinkParams parse_link_params(const std::vector<std::string>& tokens,
                             std::size_t start, int line) {
  if (tokens.size() != start + 4 || tokens[start] != "latency" ||
      tokens[start + 2] != "bandwidth") {
    fail(line, "expected 'latency <seconds> bandwidth <bytes/s>'");
  }
  LinkParams params;
  params.latency_s = parse_number(tokens[start + 1], line, "latency");
  params.bandwidth_bps = parse_number(tokens[start + 3], line, "bandwidth");
  return params;
}

}  // namespace

Cluster parse_cluster(std::string_view text) {
  ClusterBuilder builder;
  std::map<std::string, int> names;
  struct PendingLink {
    std::string a, b;
    LinkParams params;
    bool symmetric;
    int line;
  };
  std::vector<PendingLink> pending_links;
  struct PendingLan {
    std::string name;
    int id;
    int line;
  };
  std::vector<PendingLan> pending_lans;
  LinkParams intra_lan{50e-6, 125e6};
  LinkParams inter_lan{5e-3, 1.25e6};
  int next_index = 0;

  std::istringstream stream{std::string(text)};
  std::string raw_line;
  int line_no = 0;
  while (std::getline(stream, raw_line)) {
    ++line_no;
    const std::size_t hash = raw_line.find('#');
    if (hash != std::string::npos) raw_line.resize(hash);
    std::istringstream words(raw_line);
    std::vector<std::string> tokens;
    for (std::string word; words >> word;) tokens.push_back(word);
    if (tokens.empty()) continue;

    const std::string& directive = tokens[0];
    if (directive == "network" || directive == "shared_memory") {
      const LinkParams params = parse_link_params(tokens, 1, line_no);
      if (directive == "network") {
        builder.network(params.latency_s, params.bandwidth_bps);
      } else {
        builder.shared_memory(params.latency_s, params.bandwidth_bps);
      }
    } else if (directive == "processor") {
      if (tokens.size() < 4 || tokens[2] != "speed") {
        fail(line_no, "expected 'processor <name> speed <value> [load ...]'");
      }
      const std::string& name = tokens[1];
      if (!names.emplace(name, next_index).second) {
        fail(line_no, "duplicate processor '" + name + "'");
      }
      ++next_index;
      const double speed = parse_number(tokens[3], line_no, "speed");
      std::vector<LoadProfile::Step> steps;
      for (std::size_t i = 4; i + 1 < tokens.size(); i += 2) {
        const std::string& key = tokens[i];
        const double mult = parse_number(tokens[i + 1], line_no, "load multiplier");
        if (key == "load") {
          steps.push_back({std::numeric_limits<double>::lowest(), mult});
        } else if (key.rfind("load@", 0) == 0) {
          steps.push_back({parse_number(key.substr(5), line_no, "load time"), mult});
        } else {
          fail(line_no, "unknown processor attribute '" + key + "'");
        }
      }
      if (tokens.size() > 4 && (tokens.size() - 4) % 2 != 0) {
        fail(line_no, "dangling processor attribute");
      }
      builder.add(name, speed, steps.empty() ? LoadProfile() : LoadProfile(steps));
    } else if (directive == "link" || directive == "symmetric_link") {
      if (tokens.size() < 3) {
        fail(line_no, "expected '" + directive + " <from> <to> latency ... bandwidth ...'");
      }
      pending_links.push_back({tokens[1], tokens[2],
                               parse_link_params(tokens, 3, line_no),
                               directive == "symmetric_link", line_no});
    } else if (directive == "intra_lan" || directive == "inter_lan") {
      const LinkParams params = parse_link_params(tokens, 1, line_no);
      (directive == "intra_lan" ? intra_lan : inter_lan) = params;
    } else if (directive == "lan") {
      if (tokens.size() != 3) {
        fail(line_no, "expected 'lan <processor> <id>'");
      }
      int id = -1;
      if (!parse_whole(tokens[2], id) || id < 0) {
        fail(line_no, "LAN id must be a non-negative int, got '" + tokens[2] +
                          "'");
      }
      pending_lans.push_back({tokens[1], id, line_no});
    } else {
      fail(line_no, "unknown directive '" + directive + "'");
    }
  }

  // Links may reference processors declared later; resolve at the end.
  for (const PendingLink& link : pending_links) {
    auto a = names.find(link.a);
    auto b = names.find(link.b);
    if (a == names.end()) fail(link.line, "unknown processor '" + link.a + "'");
    if (b == names.end()) fail(link.line, "unknown processor '" + link.b + "'");
    if (link.symmetric) {
      builder.symmetric_link_override(a->second, b->second, link.params.latency_s,
                                      link.params.bandwidth_bps);
    } else {
      builder.link_override(a->second, b->second, link.params.latency_s,
                            link.params.bandwidth_bps);
    }
  }
  if (!pending_lans.empty()) {
    std::vector<int> lan_of(static_cast<std::size_t>(next_index), -1);
    for (const PendingLan& lan : pending_lans) {
      auto it = names.find(lan.name);
      if (it == names.end()) fail(lan.line, "unknown processor '" + lan.name + "'");
      lan_of[static_cast<std::size_t>(it->second)] = lan.id;
    }
    for (std::size_t p = 0; p < lan_of.size(); ++p) {
      if (lan_of[p] < 0) {
        throw InvalidArgument("cluster description: processor index " +
                              std::to_string(p) +
                              " has no 'lan' assignment (a two-level cluster "
                              "needs one per processor)");
      }
    }
    builder.two_level(std::move(lan_of), intra_lan.latency_s,
                      intra_lan.bandwidth_bps, inter_lan.latency_s,
                      inter_lan.bandwidth_bps);
  }
  return builder.build();
}

std::string to_description(const Cluster& cluster) {
  std::ostringstream os;
  os << "network latency " << number(cluster.default_link().latency_s)
     << " bandwidth " << number(cluster.default_link().bandwidth_bps) << "\n";
  os << "shared_memory latency " << number(cluster.self_link().latency_s)
     << " bandwidth " << number(cluster.self_link().bandwidth_bps) << "\n";
  for (int p = 0; p < cluster.size(); ++p) {
    const Processor& proc = cluster.processor(p);
    os << "processor " << proc.name << " speed " << number(proc.speed);
    for (const LoadProfile::Step& step : proc.load.steps()) {
      if (step.time == std::numeric_limits<double>::lowest()) {
        os << " load " << number(step.multiplier);
      } else {
        os << " load@" << number(step.time) << " " << number(step.multiplier);
      }
    }
    os << "\n";
  }
  for (const auto& [pair, params] : cluster.link_overrides()) {
    os << "link " << cluster.processor(pair.first).name << " "
       << cluster.processor(pair.second).name << " latency "
       << number(params.latency_s) << " bandwidth "
       << number(params.bandwidth_bps) << "\n";
  }
  if (cluster.two_level()) {
    os << "intra_lan latency " << number(cluster.intra_link().latency_s)
       << " bandwidth " << number(cluster.intra_link().bandwidth_bps) << "\n";
    os << "inter_lan latency " << number(cluster.inter_link().latency_s)
       << " bandwidth " << number(cluster.inter_link().bandwidth_bps) << "\n";
    for (int p = 0; p < cluster.size(); ++p) {
      os << "lan " << cluster.processor(p).name << " " << cluster.lan_of(p)
         << "\n";
    }
  }
  return os.str();
}

}  // namespace hmpi::hnoc
