// `hmpi_perf compare A.json B.json`: per (workload, metric), is B better,
// worse, unchanged or unresolved against A under BENCHMARK.json's bounds?
#pragma once

#include <string>

namespace hmpi::perf {

/// Prints one verdict line per (workload, metric) and returns the process
/// exit code: 1 when an end-to-end metric got worse or fail_frac rose,
/// 2 on unreadable input, else 0.
int compare_results(const std::string& benchmark_path, const std::string& a_path,
                    const std::string& b_path);

}  // namespace hmpi::perf
