// perfbench: the repository's end-to-end benchmark binary.
//
//   perfbench --workload <grow_staged|grow_bitmap|grow_sharded|service_mixed>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//             [--trace-out <file>] [--scale <f>] [--tamper-reference]
//
// Prints progress on stderr, then two lines on stdout: an info object (the
// resolved configuration, host and per-op checks) and, last, the result
// object {"correct", "attempted", "failed", "metrics"}. Exits 0 only when
// every op was correct. perfbench/run.py builds this and forwards its flags.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper-reference") {
      options->tamper_reference = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--work-dir") {
      options->work_dir = value;
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else if (flag == "--scale") {
      options->scale = std::strtod(value.c_str(), &end);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", flag.c_str(),
                   value.c_str());
      return false;
    }
  }
  return !options->workload.empty() && !options->work_dir.empty() &&
         options->seconds > 0 && options->scale > 0;
}

/// The library reads SQLCLASS_* variables at run time (thread counts,
/// engine switches, fault injection, bench scale); any of them would
/// silently change the workload being measured.
bool EnvironmentIsClean() {
  bool clean = true;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "SQLCLASS_", 9) == 0) {
      const char* eq = std::strchr(*env, '=');
      const size_t len = eq == nullptr ? std::strlen(*env) : eq - *env;
      std::fprintf(stderr, "perfbench: refusing to run with %.*s set\n",
                   static_cast<int>(len), *env);
      clean = false;
    }
  }
  return clean;
}

void PrintResult(const RunReport& report) {
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!first) line += ", ";
    first = false;
    line += Quote(name) + ": {\"value\": " + Num(metric.value) +
            ", \"unit\": " + Quote(metric.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", report.info_json.c_str());
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --work-dir <dir> [--trace-out <file>] "
                 "[--scale <f>] [--tamper-reference]\n");
    return 2;
  }
  if (!EnvironmentIsClean()) return 2;

  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.work_dir.c_str());
    return 2;
  }

  RunReport report;
  FillSheet(options.trace, &report);
  bool ran = false;
  if (options.workload == "grow_staged" || options.workload == "grow_bitmap" ||
      options.workload == "grow_sharded") {
    ran = RunGrowWorkload(options, &report);
  } else if (options.workload == "service_mixed") {
    ran = RunServiceWorkload(options, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 options.workload.c_str());
  }
  std::filesystem::remove_all(options.work_dir, ec);
  if (!ran) return 1;
  for (const std::string& name : report.unknown) {
    std::fprintf(stderr, "perfbench: %s is not on the metric sheet\n",
                 name.c_str());
  }
  if (!report.unknown.empty()) return 3;

  for (const std::string& why : report.failures) {
    std::fprintf(stderr, "perfbench: FAILED op: %s\n", why.c_str());
  }
  PrintResult(report);
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
