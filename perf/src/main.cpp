// hmpi_perf — the repository benchmark (README.md in this directory).
//
//   hmpi_perf run --all [--passes N] [--seed S] [--seconds T] [--trace 0|1]
//   hmpi_perf run --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//   hmpi_perf compare [--benchmark BENCHMARK.json] A.json B.json
//
// `run --all` starts one process per workload and pass; each writes its
// result, and the parent merges them into one results file (--out,
// default hmpi_perf_results.json in the build directory).
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "compare.hpp"
#include "telemetry/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace hmpi::perf {
namespace {

using telemetry::json_number;
using telemetry::json_quote;

int usage() {
  std::fprintf(stderr,
               "usage: hmpi_perf run (--all | --workload NAME) [--passes N]\n"
               "         [--seed S] [--seconds T] [--trace 0|1] [--out FILE]\n"
               "       hmpi_perf compare [--benchmark FILE] A.json B.json\n"
               "workloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_value(std::ostream& os, const telemetry::JsonValue& v) {
  using Type = telemetry::JsonValue::Type;
  switch (v.type) {
    case Type::kNull: os << "null"; break;
    case Type::kBool: os << (v.boolean ? "true" : "false"); break;
    case Type::kNumber: os << json_number(v.number); break;
    case Type::kString: os << json_quote(v.string); break;
    case Type::kArray:
      os << "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) os << ", ";
        write_value(os, v.array[i]);
      }
      os << "]";
      break;
    case Type::kObject:
      os << "{";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) os << ", ";
        os << json_quote(v.object[i].first) << ": ";
        write_value(os, v.object[i].second);
      }
      os << "}";
      break;
  }
}

void write_run(std::ostream& os, const Result& r) {
  os << "{\"workload\": " << json_quote(r.workload)
     << ", \"seed\": " << r.options.seed
     << ", \"seconds\": " << json_number(r.options.seconds)
     << ", \"traced\": " << (r.options.traced ? "true" : "false")
     << ", \"correct\": " << (r.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"input_hash\": " << json_quote(r.input_hash) << ",\n  \"errors\": [";
  for (std::size_t i = 0; i < r.errors.size(); ++i) {
    os << (i > 0 ? ", " : "") << json_quote(r.errors[i]);
  }
  os << "],\n  \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i > 0 ? ",\n    " : "\n    ") << json_quote(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_quote(m.unit) << "}";
  }
  os << "},\n  \"spans\": [";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    os << (i > 0 ? ",\n    " : "\n    ") << "{\"name\": " << json_quote(s.name)
       << ", \"op\": " << s.op << ", \"id\": " << s.id
       << ", \"parent\": " << s.parent
       << ", \"start_ms\": " << json_number(s.start_ms)
       << ", \"end_ms\": " << json_number(s.end_ms) << "}";
  }
  os << "]}";
}

void print_run(const Result& r) {
  std::printf("== %s (seed %llu, %s, %g s)\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.options.seed),
              r.options.traced ? "traced" : "untraced", r.options.seconds);
  for (const Metric& m : r.metrics) {
    std::printf("%-14s %-26s %.9g %s\n", r.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf("%-14s %-26s %s\n", r.workload.c_str(), "input_hash",
              r.input_hash.c_str());
  std::printf("%-14s %-26s %s (attempted %lld, failed %lld)\n",
              r.workload.c_str(), "outputs",
              r.failed == 0 ? "correct" : "INCORRECT", r.attempted, r.failed);
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "%s: %s\n", r.workload.c_str(), e.c_str());
  }
  std::fflush(stdout);
}

struct RunArgs {
  bool all = false;
  std::string workload;
  int passes = 1;
  Options options;
  std::string out = HMPI_PERF_BUILD_DIR "/hmpi_perf_results.json";
};

/// Runs one workload in this process and writes a one-run results file.
int run_in_process(const RunArgs& args, const Workload& workload) {
  clear_library_env();
  const std::string reference_text = read_file(HMPI_PERF_REFERENCE);
  std::optional<telemetry::JsonValue> reference;
  if (!reference_text.empty()) reference = telemetry::parse_json(reference_text);
  Options options = args.options;
  options.reference = reference ? &*reference : nullptr;

  Result result;
  try {
    result = workload.run(options);
  } catch (const std::exception& e) {
    result.workload = std::string(workload.name);
    result.options = options;
    ++result.attempted;
    ++result.failed;
    result.errors.push_back(std::string("workload threw: ") + e.what());
  }
  if (options.seed == kDefaultSeed && !reference) {
    result.check(false, "cannot read " HMPI_PERF_REFERENCE);
  }
  print_run(result);
  std::ofstream os(args.out);
  os << "{\"benchmark\": \"hmpi_perf\", \"runs\": [\n";
  write_run(os, result);
  os << "\n]}\n";
  if (!os) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 2;
  }
  return result.failed == 0 ? 0 : 1;
}

/// Re-runs this binary for one workload and returns its exit status.
int spawn_child(const std::string& self, const RunArgs& args,
                std::string_view workload, const std::string& out) {
  std::vector<std::string> argv = {
      self, "run", "--workload", std::string(workload),
      "--seed", std::to_string(args.options.seed),
      "--seconds", json_number(args.options.seconds),
      "--trace", args.options.traced ? "1" : "0",
      "--out", out};
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, self.c_str(), nullptr, nullptr, cargv.data(),
                  environ) != 0) {
    std::fprintf(stderr, "cannot start %s\n", self.c_str());
    return 2;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return 2;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 2;
}

int run_all(const RunArgs& args) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) return 2;
  self[len] = '\0';

  int status = 0;
  std::vector<std::string> runs;
  for (int pass = 0; pass < args.passes; ++pass) {
    for (const Workload& w : kWorkloads) {
      const std::string part = args.out + "." + std::string(w.name) + "-" +
                               std::to_string(pass) + ".json.tmp";
      const int code = spawn_child(self, args, w.name, part);
      if (code != 0) status = status == 0 ? code : status;
      const auto doc = telemetry::parse_json(read_file(part));
      std::remove(part.c_str());
      const telemetry::JsonValue* list = doc ? doc->find("runs") : nullptr;
      if (!list || !list->is_array() || list->array.empty()) {
        std::fprintf(stderr, "%.*s pass %d left no result\n",
                     static_cast<int>(w.name.size()), w.name.data(), pass);
        status = 2;
        continue;
      }
      std::ostringstream text;
      write_value(text, list->array.front());
      runs.push_back(text.str());
    }
  }
  std::ofstream os(args.out);
  os << "{\"benchmark\": \"hmpi_perf\", \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    os << (i > 0 ? ",\n" : "") << runs[i];
  }
  os << "\n]}\n";
  std::printf("wrote %s (%zu runs)%s\n", args.out.c_str(), runs.size(),
              status == 0 ? "" : ", with failures");
  return os ? status : 2;
}

int cmd_run(int argc, char** argv) {
  RunArgs args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--all") {
      args.all = true;
    } else if (a == "--workload") {
      args.workload = value();
    } else if (a == "--passes") {
      args.passes = std::stoi(value());
    } else if (a == "--seed") {
      args.options.seed = std::stoull(value());
    } else if (a == "--seconds") {
      args.options.seconds = std::stod(value());
    } else if (a == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.options.traced = t == "1";
    } else if (a == "--out") {
      args.out = value();
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (args.passes < 1 || !(args.options.seconds > 0.0)) {
    throw std::invalid_argument("--passes and --seconds must be positive");
  }
  if (args.all == !args.workload.empty()) return usage();
  if (args.all) return run_all(args);
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) return run_in_process(args, w);
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return usage();
}

int cmd_compare(int argc, char** argv) {
  std::string benchmark = HMPI_PERF_BENCHMARK;
  std::vector<std::string> files;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--benchmark" && i + 1 < argc) {
      benchmark = argv[++i];
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) return usage();
  return compare_results(benchmark, files[0], files[1]);
}

}  // namespace
}  // namespace hmpi::perf

int main(int argc, char** argv) {
  using namespace hmpi::perf;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "run") return cmd_run(argc - 2, argv + 2);
    if (command == "compare") return cmd_compare(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hmpi_perf: %s\n", e.what());
    return 2;
  }
  return usage();
}
