// Distributed portfolio sharding: grids/sec of the shard coordinator at
// 1/2/4 workers on a grid of eight random 128-core apps (seeds 1-8) on mesh,
// mapped by nmap with its default eval. One grid is eight independent
// mapping runs, the unit the coordinator scatters.
//
// Workers are in-process service::Service instances behind WorkerLink: the
// coordinator's fan-out threads drive them concurrently, so the scaling
// measured here is the scatter/merge pipeline itself, with the socket
// transport (identical line protocol) as the only part not exercised.
//
// Correctness is asserted on every run, at every worker count: the merged
// report must be byte-identical to a single-node PortfolioRunner run of the
// same grid (the shard determinism contract). `--smoke` additionally gates
// >= 1.5x grids/sec at 4 workers vs 1 — only when the host has >= 4
// hardware threads (a 1-core CI box cannot scale; parity still must hold) —
// and exits non-zero on any violation. Results land in shard_scaling.csv
// and the BENCH_shard.json trajectory file.

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/random_graph.hpp"
#include "portfolio/report.hpp"
#include "portfolio/runner.hpp"
#include "portfolio/scenario.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker_link.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

#include "bench_common.hpp"

namespace {

using namespace nocmap;

constexpr std::size_t kCores = 128; ///< cores per app
constexpr std::uint64_t kApps = 8;  ///< random apps per grid, seeds 1..kApps

std::vector<portfolio::Scenario> scenario_grid() {
    std::vector<std::pair<std::string, std::shared_ptr<const graph::CoreGraph>>> apps;
    for (std::uint64_t seed = 1; seed <= kApps; ++seed) {
        graph::RandomGraphConfig config;
        config.core_count = kCores;
        config.average_out_degree = 2.5;
        config.seed = seed;
        apps.emplace_back(
            "random" + std::to_string(kCores) + "-s" + std::to_string(seed),
            std::make_shared<const graph::CoreGraph>(graph::generate_random_core_graph(config)));
    }
    return portfolio::make_grid(apps, portfolio::parse_topology_list("mesh", 1e9), "nmap",
                                {}, 0);
}

std::string stable_json(const std::vector<portfolio::ScenarioResult>& results) {
    portfolio::JsonOptions json;
    json.timings = false;
    return portfolio::to_json(results, portfolio::PortfolioRunner::rank_topologies(results),
                              json);
}

std::vector<std::unique_ptr<shard::WorkerLink>> in_process_links(std::size_t count) {
    std::vector<std::unique_ptr<shard::WorkerLink>> links;
    for (std::size_t i = 0; i < count; ++i) links.push_back(shard::in_process_worker());
    return links;
}

struct ScaleRow {
    std::size_t workers = 0;
    double wall_ms = std::numeric_limits<double>::infinity();
    double grids_per_sec = 0.0;
    double speedup = 1.0; ///< vs the 1-worker row
    bool parity = true;
};

/// Best-of-repeats wall time of one sharded grid at `workers`, with the
/// byte-parity check against `expected` applied to every repeat.
ScaleRow measure(const std::vector<portfolio::Scenario>& grid, std::size_t workers,
                 std::size_t repeats, const std::string& expected) {
    ScaleRow row;
    row.workers = workers;
    for (std::size_t r = 0; r < repeats; ++r) {
        shard::Coordinator coordinator(in_process_links(workers), shard::ShardOptions{});
        const auto start = std::chrono::steady_clock::now();
        const auto results = coordinator.run_grid(grid);
        row.wall_ms = std::min(row.wall_ms, bench::ms_since(start));
        if (stable_json(results) != expected) row.parity = false;
    }
    row.grids_per_sec = 1000.0 / row.wall_ms;
    return row;
}

/// host_cores recorded in an existing BENCH_shard.json (0 when the file is
/// absent or unreadable). A trajectory measured on a bigger host must not be
/// silently replaced by one from a smaller host: the rows would "regress"
/// only because the hardware shrank, poisoning the bench-regression baseline.
std::size_t recorded_host_cores(const std::string& path) {
    std::ifstream in(path);
    if (!in) return 0;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    try {
        const auto doc = util::json::parse(text);
        if (const auto* cores = doc.find("host_cores"))
            return static_cast<std::size_t>(cores->as_number());
    } catch (const std::exception&) {
        // Unparseable file: treat as absent and overwrite with a valid one.
    }
    return 0;
}

void write_trajectory(const std::vector<ScaleRow>& rows, std::size_t tiles,
                      std::size_t host_cores, bool gate_enforced,
                      const std::string& skip_reason) {
    const std::size_t existing = recorded_host_cores("BENCH_shard.json");
    if (existing > host_cores) {
        std::cerr << "BENCH_shard.json: existing trajectory was measured on "
                  << existing << " cores, this host has " << host_cores
                  << "; refusing to overwrite (delete the file to force)\n";
        return;
    }
    std::ofstream out("BENCH_shard.json");
    if (!out) {
        std::cerr << "BENCH_shard.json: cannot open for writing\n";
        return;
    }
    out << "{\n  \"bench\": \"shard_scaling\",\n"
        << "  \"metric\": \"sharded grids (8 mapping runs each) per second vs worker count\",\n"
        << "  \"host_cores\": " << host_cores << ",\n  \"tiles\": " << tiles
        << ",\n  \"gate\": {\"floor_speedup_at_4\": 1.5, \"enforced\": "
        << (gate_enforced ? "true" : "false") << ", \"skip_reason\": \""
        << skip_reason << "\"},\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const ScaleRow& r = rows[i];
        out << "    {\"workers\": " << r.workers << ", \"wall_ms\": " << r.wall_ms
            << ", \"grids_per_sec\": " << r.grids_per_sec
            << ", \"speedup_vs_1\": " << r.speedup
            << ", \"byte_parity\": " << (r.parity ? "true" : "false") << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

int run_report(bool smoke) {
    const auto grid = scenario_grid();
    const std::size_t repeats = smoke ? 2 : 3;
    const std::size_t host_cores =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());

    // The reference bytes every sharded run must reproduce.
    portfolio::PortfolioRunner runner{portfolio::PortfolioOptions{}};
    const auto reference = runner.run(grid);
    const std::string expected = stable_json(reference);
    const std::size_t tiles = reference.front().tiles;

    std::vector<ScaleRow> rows;
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}})
        rows.push_back(measure(grid, workers, repeats, expected));
    for (ScaleRow& row : rows) row.speedup = rows.front().wall_ms / row.wall_ms;

    util::Table table("Sharded portfolio scaling — " + std::to_string(kApps) + " random" +
                      std::to_string(kCores) + " apps on mesh (" + std::to_string(tiles) +
                      " tiles, nmap default eval)");
    table.set_header({"workers", "wall (ms)", "grids/s", "speedup vs 1", "byte parity"});
    for (const ScaleRow& row : rows)
        table.add_row({util::Table::num(static_cast<long long>(row.workers)),
                       util::Table::num(row.wall_ms, 2),
                       util::Table::num(row.grids_per_sec, 3),
                       util::Table::num(row.speedup, 2), row.parity ? "yes" : "NO"});
    table.print(std::cout);
    std::cout << "(acceptance: every worker count byte-identical to single-node; smoke "
                 "gate: >= 1.5x grids/sec at 4 workers on hosts with >= 4 threads; "
                 "this host: "
              << host_cores << ")\n";

    bool ok = true;
    for (const ScaleRow& row : rows)
        if (!row.parity) {
            std::cerr << "shard_scaling: " << row.workers
                      << "-worker run diverged from the single-node bytes\n";
            ok = false;
        }
    // The gate verdict goes into BENCH_shard.json too (not just stderr/
    // stdout): a scraped artifact must explain on its own why a 1-core run
    // shows no scaling.
    const bool gate_enforced = host_cores >= 4;
    const std::string skip_reason =
        gate_enforced ? ""
                      : "host has " + std::to_string(host_cores) +
                            " hardware threads < 4: in-process workers cannot "
                            "scale; byte parity still enforced";
    if (smoke) {
        if (gate_enforced && rows.back().speedup < 1.5) {
            std::cerr << "smoke: 4-worker speedup " << rows.back().speedup
                      << "x below the 1.5x gate\n";
            ok = false;
        } else if (!gate_enforced) {
            std::cout << "smoke: speedup gate skipped (" << skip_reason << ")\n";
        }
    }

    std::vector<std::vector<std::string>> csv;
    for (const ScaleRow& row : rows)
        csv.push_back({std::to_string(row.workers), util::Table::num(row.wall_ms, 3),
                       util::Table::num(row.grids_per_sec, 4),
                       util::Table::num(row.speedup, 3), row.parity ? "1" : "0"});
    bench::try_write_csv("shard_scaling.csv",
                         {"workers", "wall_ms", "grids_per_sec", "speedup", "parity"},
                         csv);
    write_trajectory(rows, tiles, host_cores, gate_enforced, skip_reason);
    return ok ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    return run_report(smoke);
}
