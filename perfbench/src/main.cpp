// Benchmark binary: runs one workload in this process, or the self-tests.
//
//   perfbench --workload <biblio-sim|stock-threaded|biblio-churn>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//   perfbench --self-test
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace perfbench {
int run_self_tests();
}

int main(int argc, char** argv) {
  perfbench::Options options;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string{argv[++i]} == "1";
    } else if (arg == "--trace-dir" && has_value) {
      options.trace_dir = argv[++i];
    } else {
      std::cerr << "unknown or incomplete argument '" << arg << "'\n";
      return 2;
    }
  }
  try {
    if (self_test) return perfbench::run_self_tests();
    if (options.workload.empty() || options.seconds <= 0.0) {
      std::cerr << "need --workload and --seconds > 0\n";
      return 2;
    }
    return perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
