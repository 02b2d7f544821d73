// Ablation: communication energy of the produced mappings under the
// Hu–Marculescu bit-energy model (the objective of the paper's reference
// [8]). The paper argues NMAP's hop-weighted cost is a delay proxy; this
// bench shows the same mappings also order correctly under the energy
// metric (cost and energy are affine for fixed demand), and quantifies the
// extra link energy split routing pays for its bandwidth savings.

#include <benchmark/benchmark.h>

#include <iostream>

#include "apps/registry.hpp"
#include "baselines/annealing.hpp"
#include "baselines/gmap.hpp"
#include "baselines/pbb.hpp"
#include "baselines/pmap.hpp"
#include "bench_common.hpp"
#include "lp/mcf.hpp"
#include "nmap/single_path.hpp"
#include "noc/commodity.hpp"
#include "noc/energy.hpp"
#include "util/table.hpp"

namespace {

using namespace nocmap;

double energy_of(const graph::CoreGraph& g, const noc::Topology& topo,
                 const noc::Mapping& mapping) {
    return noc::mapping_energy_mw(topo, noc::build_commodities(g, mapping));
}

void print_reproduction() {
    util::Table table("Ablation — communication energy (mW, bit-energy model of [8])");
    table.set_header({"app", "PMAP", "GMAP", "PBB", "NMAP", "SA", "NMAP split"});
    for (const auto& info : apps::video_applications()) {
        const auto g = info.factory();
        const auto topo = bench::ample_mesh_for(g);
        const auto ctx = noc::EvalContext::borrow(topo);
        const auto pmap = baselines::pmap_map(g, ctx);
        const auto gmap = baselines::gmap_map(g, ctx);
        baselines::PbbOptions pbb_opt;
        const auto pbb = baselines::pbb_map(g, ctx, pbb_opt);
        const auto nm = nmap::map_with_single_path(g, ctx);
        baselines::AnnealingOptions sa_opt;
        const auto sa = baselines::annealing_map(g, ctx, sa_opt);

        // Split routing pays extra traversals when it detours (TA): charge
        // the actual fractional flows.
        const auto d = noc::build_commodities(g, nm.mapping);
        lp::McfOptions ta;
        ta.objective = lp::McfObjective::MinMaxLoad;
        const auto split = lp::solve_mcf(topo, d, ta);
        const double split_energy = noc::split_flow_energy_mw(topo, d, split.flows);

        table.add_row({info.name, util::Table::num(energy_of(g, topo, pmap.mapping), 1),
                       util::Table::num(energy_of(g, topo, gmap.mapping), 1),
                       util::Table::num(energy_of(g, topo, pbb.mapping), 1),
                       util::Table::num(energy_of(g, topo, nm.mapping), 1),
                       util::Table::num(energy_of(g, topo, sa.mapping), 1),
                       util::Table::num(split_energy, 1)});
    }
    table.print(std::cout);
    std::cout << "(split routing trades a little link energy for ~2x bandwidth relief)\n";
}

void BM_AnnealingMapper(benchmark::State& state, const char* app) {
    const auto g = apps::make_application(app);
    const noc::EvalContext ctx(bench::ample_mesh_for(g));
    baselines::AnnealingOptions opt;
    for (auto _ : state)
        benchmark::DoNotOptimize(baselines::annealing_map(g, ctx, opt).comm_cost);
}

} // namespace

int main(int argc, char** argv) {
    print_reproduction();
    benchmark::RegisterBenchmark("ablation/sa/vopd", BM_AnnealingMapper, "vopd")
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
