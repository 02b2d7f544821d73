#include "engine/mapping_result.hpp"

#include <sstream>

namespace nocmap::engine {

std::string describe(const MappingResult& result, const graph::CoreGraph& graph,
                     const noc::EvalContext& ctx) {
    std::ostringstream os;
    os << "feasible: " << (result.feasible ? "yes" : "no") << '\n';
    if (result.comm_cost == kMaxValue)
        os << "comm cost: maxvalue (bandwidth constraints violated)\n";
    else
        os << "comm cost: " << result.comm_cost << " hops*MB/s\n";
    os << "peak link load: " << noc::max_load(result.loads) << " MB/s\n";
    os << "evaluations: " << result.evaluations << '\n';
    os << result.mapping.to_string(graph, ctx.topology());
    return os.str();
}

} // namespace nocmap::engine
