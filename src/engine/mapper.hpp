#pragma once
// engine::Mapper — the uniform interface over every mapping algorithm, and
// the string-keyed registry that constructs them by name.
//
// The registry replaces per-binary if-chains (CLI, benches, tests) with one
// factory table. The eight built-in algorithms (nmap, nmap-split, nmap-tm,
// pmap, gmap, pbb, sa, exhaustive) are pre-registered; new mappers register
// through Registry::add() — see docs/ARCHITECTURE.md for a worked example.
//
// A mapper's one entry point is run(MapRequest): it validates the request's
// Params against the ParamSpec list the mapper publishes (unknown key /
// out-of-range -> typed MapError, never a silent default) and returns a
// MapOutcome. The instance is the request's noc::EvalContext; callers that
// hold only a Topology borrow a context over it (EvalContext::borrow).
// map_by_name() is the one throwing convenience over registry().run().

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/map_api.hpp"
#include "engine/mapping_result.hpp"
#include "engine/params.hpp"
#include "graph/core_graph.hpp"
#include "noc/eval_context.hpp"
#include "noc/topology.hpp"

namespace nocmap::engine {

struct MapperInfo {
    std::string name;        ///< registry key, lower-case, stable
    std::string description; ///< one-line summary for --list-algos etc.
};

/// Introspection record of one registered algorithm: its info plus the
/// parameter schema it publishes (what --describe-algo and the service's
/// `describe` verb render).
struct MapperDescription {
    MapperInfo info;
    std::vector<ParamSpec> params;
};

class Mapper {
public:
    virtual ~Mapper() = default;
    virtual const MapperInfo& info() const = 0;

    /// The parameter schema this mapper accepts; empty = no knobs. run()
    /// validates every request against it.
    virtual const std::vector<ParamSpec>& param_specs() const;

    /// The entry point. Implementations must validate request.params
    /// against param_specs() (validate_params does the work) and report
    /// instance-shaped failures (search-space guards, |V| > |U|) as
    /// MapError outcomes rather than throwing. The instance is
    /// request.context.
    virtual MapOutcome run(const MapRequest& request) const = 0;
};

class Registry {
public:
    using Factory = std::function<std::unique_ptr<Mapper>()>;

    /// Registers a factory; throws std::invalid_argument on an empty or
    /// duplicate name.
    void add(MapperInfo info, Factory factory);

    bool contains(std::string_view name) const;

    /// Constructs the mapper registered under `name`; throws
    /// std::invalid_argument listing all valid names when unknown.
    std::unique_ptr<Mapper> create(std::string_view name) const;

    /// Validates and runs `request` on the mapper registered under `name`.
    /// An unknown name yields an UnknownMapper outcome (listing the valid
    /// names), never a throw — the front ends' entry point. A request that
    /// names only a topology runs on a context borrowed over it.
    MapOutcome run(std::string_view name, const MapRequest& request) const;

    /// Introspection: info + ParamSpec list of one mapper (throws like
    /// create() on unknown names) or of every mapper, sorted by name.
    MapperDescription describe(std::string_view name) const;
    std::vector<MapperDescription> describe_all() const;

    /// Registered names, sorted.
    std::vector<std::string> names() const;
    /// Registered infos, sorted by name.
    std::vector<MapperInfo> infos() const;

private:
    struct Entry {
        MapperInfo info;
        Factory factory;
    };
    const Entry* find(std::string_view name) const;

    std::vector<Entry> entries_;
};

/// The process-wide registry, with the built-in algorithms pre-registered on
/// first use (explicit registration instead of static initializers, so a
/// static-library build cannot silently drop mappers).
Registry& registry();

/// Convenience: registry().run() with default parameters; throws
/// std::invalid_argument with the error's to_string() on a failed outcome
/// (an unknown name included).
MappingResult map_by_name(std::string_view name, const graph::CoreGraph& graph,
                          const noc::EvalContext& ctx);
/// The typed-outcome variant: registry().run() on the process registry.
MapOutcome run_by_name(std::string_view name, const MapRequest& request);

/// Serializes one description as the deterministic JSON document the CLI's
/// `--describe-algo <name> --json` writes and the service's `describe` verb
/// embeds (object with "name", "description" and a "params" array; numeric
/// range bounds only when finite).
std::string describe_json(const MapperDescription& description);

namespace detail {
/// Defined in builtin_mappers.cpp — the one translation unit that wires the
/// concrete algorithm layers (nmap/, baselines/) into the engine registry.
void register_builtin_mappers(Registry& registry);
} // namespace detail

} // namespace nocmap::engine
