#include "portfolio/report.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

#include "portfolio/pareto.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace nocmap::portfolio {

namespace {

// JSON string literal / number ("null" for the infinities scalar scores
// use) formatting shared with the service protocol.
using util::json::quoted;
const auto json_number = util::json::number;

} // namespace

void write_json(std::ostream& os, const std::vector<ScenarioResult>& results,
                const std::vector<TopologyRanking>& topology_ranking,
                const JsonOptions& options) {
    os << "{\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ScenarioResult& r = results[i];
        os << "    {\"index\": " << r.index << ", \"name\": " << quoted(r.name)
           << ", \"app\": " << quoted(r.app) << ", \"topology\": " << quoted(r.topology)
           << ", \"fabric\": " << quoted(r.fabric) << ", \"mapper\": " << quoted(r.mapper)
           << ", \"ok\": " << (r.ok ? "true" : "false")
           << ", \"feasible\": " << (r.ok && r.result.feasible ? "true" : "false")
           << ", \"tiles\": " << r.tiles << ", \"links\": " << r.links
           << ", \"comm_cost\": " << json_number(r.result.comm_cost)
           << ", \"energy_mw\": " << json_number(r.energy_mw)
           << ", \"area_mm2\": " << json_number(r.area_mm2)
           << ", \"avg_hops\": " << json_number(r.avg_hops)
           << ", \"scalar_score\": " << json_number(r.scalar_score);
        // Simulated-evaluation block: only when the scenario ran the
        // simulated backend, so default documents keep their exact bytes.
        if (r.sim.present) {
            const eval::SimMetrics& s = r.sim;
            os << ", \"sim\": {\"p50_latency_cycles\": " << json_number(s.p50_latency_cycles)
               << ", \"p95_latency_cycles\": " << json_number(s.p95_latency_cycles)
               << ", \"p99_latency_cycles\": " << json_number(s.p99_latency_cycles)
               << ", \"avg_latency_cycles\": " << json_number(s.avg_latency_cycles)
               << ", \"jitter_cycles\": " << json_number(s.jitter_cycles)
               << ", \"packets\": " << s.packets << ", \"cycles\": " << s.cycles
               << ", \"stalled\": " << (s.stalled ? "true" : "false")
               << ", \"refine_trials\": " << s.refine_trials
               << ", \"refine_accepted\": " << s.refine_accepted
               << ", \"note\": " << (s.note.empty() ? "null" : quoted(s.note)) << "}";
        }
        if (options.timings) os << ", \"elapsed_ms\": " << json_number(r.elapsed_ms);
        os << ", \"error\": " << (r.error.empty() ? "null" : quoted(r.error));
        // The structured failure object only appears on failed scenarios,
        // so successful documents keep their pre-redesign bytes.
        if (!r.ok)
            os << ", \"error_code\": "
               << (r.error_code.empty() ? "null" : quoted(r.error_code));
        os << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"ranking\": [";
    const auto order = PortfolioRunner::ranking(results);
    for (std::size_t i = 0; i < order.size(); ++i)
        os << order[i] << (i + 1 < order.size() ? ", " : "");
    os << "],\n  \"topology_ranking\": [\n";
    for (std::size_t i = 0; i < topology_ranking.size(); ++i) {
        const TopologyRanking& t = topology_ranking[i];
        os << "    {\"topology\": " << quoted(t.topology) << ", \"scenarios\": " << t.scenarios
           << ", \"feasible\": " << t.feasible
           << ", \"mean_score\": " << json_number(t.mean_score) << "}"
           << (i + 1 < topology_ranking.size() ? "," : "") << "\n";
    }
    os << "  ]";
    // Per-app Pareto fronts over (cost, sim p99, energy): emitted only when
    // simulated metrics exist, keeping analytic documents byte-identical.
    if (has_sim_metrics(results)) {
        const auto fronts = pareto_fronts(results);
        os << ",\n  \"pareto\": [\n";
        for (std::size_t a = 0; a < fronts.size(); ++a) {
            os << "    {\"app\": " << quoted(fronts[a].app) << ", \"fronts\": [";
            for (std::size_t f = 0; f < fronts[a].fronts.size(); ++f) {
                os << "[";
                const auto& front = fronts[a].fronts[f];
                for (std::size_t i = 0; i < front.size(); ++i)
                    os << front[i] << (i + 1 < front.size() ? ", " : "");
                os << "]" << (f + 1 < fronts[a].fronts.size() ? ", " : "");
            }
            os << "]}" << (a + 1 < fronts.size() ? "," : "") << "\n";
        }
        os << "  ]";
    }
    if (options.cache)
        os << ",\n  \"cache\": {\"fabrics\": " << options.cache->size()
           << ", \"hits\": " << options.cache->hits()
           << ", \"misses\": " << options.cache->misses() << "}";
    os << "\n}\n";
}

std::string to_json(const std::vector<ScenarioResult>& results,
                    const std::vector<TopologyRanking>& topology_ranking,
                    const JsonOptions& options) {
    std::ostringstream os;
    write_json(os, results, topology_ranking, options);
    return os.str();
}

void print_report(std::ostream& os, const std::vector<ScenarioResult>& results,
                  const std::vector<TopologyRanking>& topology_ranking) {
    util::Table scenarios("Portfolio scenarios (best first)");
    scenarios.set_header({"scenario", "fabric", "tiles", "feasible", "cost (hops*MB/s)",
                          "energy (mW)", "area (mm2)", "score", "ms"});
    for (const std::size_t i : PortfolioRunner::ranking(results)) {
        const ScenarioResult& r = results[i];
        const bool feasible = r.ok && r.result.feasible;
        scenarios.add_row({r.name, r.fabric.empty() ? r.topology : r.fabric,
                           util::Table::num(static_cast<long long>(r.tiles)),
                           r.ok ? (feasible ? "yes" : "no") : "error: " + r.error,
                           std::isfinite(r.result.comm_cost)
                               ? util::Table::num(r.result.comm_cost, 0)
                               : "-",
                           util::Table::num(r.energy_mw, 1), util::Table::num(r.area_mm2, 1),
                           std::isfinite(r.scalar_score) ? util::Table::num(r.scalar_score, 3)
                                                         : "-",
                           util::Table::num(r.elapsed_ms, 1)});
    }
    scenarios.print(os);

    if (has_sim_metrics(results)) {
        const auto ranks = pareto_ranks(results);
        util::Table sim("Simulated evaluation (p50/p95/p99 packet latency; Pareto rank over "
                        "cost x p99 x energy per app, 1 = non-dominated)");
        sim.set_header({"scenario", "p50 (cy)", "p95 (cy)", "p99 (cy)", "jitter (cy)",
                        "packets", "pareto", "status"});
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ScenarioResult& r = results[i];
            if (!r.sim.present) continue;
            std::string status = "ok";
            if (!r.sim.note.empty())
                status = r.sim.note;
            else if (r.sim.stalled)
                status = "stalled";
            sim.add_row({r.name, util::Table::num(r.sim.p50_latency_cycles, 1),
                         util::Table::num(r.sim.p95_latency_cycles, 1),
                         util::Table::num(r.sim.p99_latency_cycles, 1),
                         util::Table::num(r.sim.jitter_cycles, 2),
                         util::Table::num(static_cast<long long>(r.sim.packets)),
                         ranks[i] > 0 ? util::Table::num(static_cast<long long>(ranks[i]))
                                      : "-",
                         status});
        }
        sim.print(os);
    }

    util::Table fabrics("Topology portfolio ranking (weighted cost/energy/area, per-app "
                        "normalized; lower is better)");
    fabrics.set_header({"topology", "apps feasible", "mean score"});
    for (const TopologyRanking& t : topology_ranking)
        fabrics.add_row({t.topology,
                         util::Table::num(static_cast<long long>(t.feasible)) + "/" +
                             util::Table::num(static_cast<long long>(t.scenarios)),
                         std::isfinite(t.mean_score) ? util::Table::num(t.mean_score, 3) : "-"});
    fabrics.print(os);
}

} // namespace nocmap::portfolio
