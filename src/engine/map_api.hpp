#pragma once
// engine::MapRequest / engine::MapOutcome — the typed request/outcome pair
// every registered mapper runs on, and engine::MapError — the structured
// failure that replaces std::invalid_argument throws on that path.
//
// A request names the instance (graph + shared EvalContext), carries an
// engine::Params set validated against the mapper's published ParamSpec
// list, a seed for the RNG-using algorithms, and an optional cooperative
// cancellation hook. The outcome is either a MappingResult or a
// MapError{code, message, param}; front ends (CLI, portfolio runner, serve
// daemon) branch on the code instead of parsing exception text.

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/mapping_result.hpp"
#include "engine/params.hpp"
#include "graph/core_graph.hpp"
#include "noc/eval_context.hpp"
#include "noc/topology.hpp"

namespace nocmap::engine {

enum class MapErrorCode {
    UnknownMapper,       ///< registry key not registered
    UnknownParam,        ///< key not in the mapper's ParamSpec list
    InvalidParamValue,   ///< value cannot carry the spec'd type
    ParamOutOfRange,     ///< outside the spec's range / enum values
    UnsupportedInstance, ///< the algorithm cannot handle this graph/fabric
    SearchSpaceExceeded, ///< a search-space guard refused the instance
    Cancelled,           ///< the request's cancellation hook fired
    DeadlineExceeded,    ///< the request's wall-clock deadline expired
    Internal,            ///< malformed request or unexpected failure
};

/// Stable lower-kebab-case code name ("param-out-of-range", ...) used in
/// CLI error lines and service/report JSON.
std::string_view to_string(MapErrorCode code) noexcept;

struct MapError {
    MapErrorCode code = MapErrorCode::Internal;
    std::string message;
    /// Offending parameter name, when the failure is about one ("" else).
    std::string param;

    /// "code: message (param 'name')" — what map_by_name() throws.
    std::string to_string() const;
};

struct MapRequest {
    const graph::CoreGraph* graph = nullptr;
    /// The instance every mapper runs on: the fabric plus its precomputed
    /// distance and energy tables.
    const noc::EvalContext* context = nullptr;
    /// Edge convenience for callers that hold only a Topology: when
    /// `context` is unset, Registry::run() borrows one context over it, so
    /// a mapper's run() only ever reads `context`. Ignored when `context`
    /// is set.
    const noc::Topology* topology = nullptr;
    Params params;
    /// Seed for the RNG-using mappers; 0 = unset (algorithm default). An
    /// explicit "seed" param outranks this field.
    std::uint64_t seed = 0;
    /// Optional cooperative cancellation: mappers poll it at phase
    /// boundaries (sweep rows, SA temperature steps) and return a
    /// Cancelled outcome / their best-so-far when it reads true.
    std::function<bool()> cancelled;
};

class MapOutcome {
public:
    static MapOutcome success(MappingResult result);
    static MapOutcome failure(MapError error);
    static MapOutcome failure(MapErrorCode code, std::string message,
                              std::string param = "");

    bool ok() const noexcept { return ok_; }
    explicit operator bool() const noexcept { return ok_; }

    /// The mapping result; throws std::logic_error when !ok().
    const MappingResult& result() const;
    MappingResult& result();
    /// The error; throws std::logic_error when ok().
    const MapError& error() const;

    /// Moves the result out, or throws std::invalid_argument with
    /// error().to_string() — what map_by_name() throws.
    MappingResult take_or_throw();

private:
    bool ok_ = false;
    MappingResult result_;
    MapError error_;
};

/// Validates `params` against `specs`: every key must name a spec (unknown
/// key -> UnknownParam — never a silent default), carry its type
/// (InvalidParamValue) and sit inside its range / enum values
/// (ParamOutOfRange). Returns std::nullopt when valid.
std::optional<MapError> validate_params(const Params& params,
                                        const std::vector<ParamSpec>& specs);

} // namespace nocmap::engine
