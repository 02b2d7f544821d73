// perfbench — the benchmark binary. Runs one workload and prints its
// notes, a provenance line and one RESULT line of JSON; perfbench/run.py
// builds this binary, times set-up and assembles the final result.
//
//   perfbench --workload <split-allpaths|mapping-suite|serve-mixed>
//             --seed N --seconds S --trace 0|1 [--setup-only]
//             [--trace-path FILE] [--work-dir DIR] [--cli PATH]

#include <charconv>
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "util/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace {

using perfbench::RunOptions;
using perfbench::RunResult;
namespace json = nocmap::util::json;

/// Shortest round-trip form, so every measured digit survives.
std::string number(double value) {
    if (!std::isfinite(value)) return "null";
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
    return ec == std::errc() ? std::string(buf, end) : "null";
}

bool is_release() {
#ifdef NDEBUG
    return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
    return false;
#endif
}

int usage(const std::string& why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload W --seed N --seconds S --trace 0|1 "
                 "[--setup-only] [--trace-path F] [--work-dir D] [--cli P]\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    RunOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") opt.workload = value();
            else if (arg == "--seed") opt.seed = std::stoull(value());
            else if (arg == "--seconds") opt.seconds = std::stod(value());
            else if (arg == "--trace") opt.trace = value() == "1";
            else if (arg == "--setup-only") opt.setup_only = true;
            else if (arg == "--trace-path") opt.trace_path = value();
            else if (arg == "--work-dir") opt.work_dir = value();
            else if (arg == "--cli") opt.cli_path = value();
            else return usage("unknown argument " + arg);
        } catch (const std::exception& e) {
            return usage(e.what());
        }
    }
    if (!(opt.seconds > 0)) return usage("--seconds must be positive");
    if (opt.trace_path.empty())
        opt.trace_path = opt.work_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) +
                         ".json";

    // Provenance: what produced these numbers. A non-Release build is
    // refused: its timings say nothing about the shipped program.
    std::cout << "PROVENANCE {\"build_type\": " << json::quoted(PERFBENCH_BUILD_TYPE)
              << ", \"release\": " << (is_release() ? "true" : "false")
              << ", \"compiler\": " << json::quoted(PERFBENCH_COMPILER)
              << "}" << std::endl;
    if (!is_release()) {
        std::cerr << "perfbench: refusing to measure a non-Release build ("
                  << PERFBENCH_BUILD_TYPE << ")\n";
        return 3;
    }

    RunResult result;
    try {
        if (opt.workload == "split-allpaths") result = perfbench::run_split_allpaths(opt);
        else if (opt.workload == "mapping-suite") result = perfbench::run_mapping_suite(opt);
        else if (opt.workload == "serve-mixed") result = perfbench::run_serve_mixed(opt);
        else return usage("unknown workload '" + opt.workload + "'");
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << opt.workload << " aborted: " << e.what() << '\n';
        return 1;
    }
    if (opt.setup_only) return 0;

    for (const std::string& note : result.notes) std::cout << "note: " << note << '\n';
    for (const std::string& failure : result.failures) std::cout << "FAILED: " << failure << '\n';
    std::cout << "RESULT {\"attempted\": " << result.attempted << ", \"failed\": " << result.failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const perfbench::Metric& m = result.metrics[i];
        std::cout << (i ? ", " : "") << json::quoted(m.name) << ": {\"value\": " << number(m.value)
                  << ", \"unit\": " << json::quoted(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
