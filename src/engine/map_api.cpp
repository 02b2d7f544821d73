#include "engine/map_api.hpp"

#include <algorithm>
#include <stdexcept>

namespace nocmap::engine {

std::string_view to_string(MapErrorCode code) noexcept {
    switch (code) {
    case MapErrorCode::UnknownMapper: return "unknown-mapper";
    case MapErrorCode::UnknownParam: return "unknown-param";
    case MapErrorCode::InvalidParamValue: return "invalid-param-value";
    case MapErrorCode::ParamOutOfRange: return "param-out-of-range";
    case MapErrorCode::UnsupportedInstance: return "unsupported-instance";
    case MapErrorCode::SearchSpaceExceeded: return "search-space-exceeded";
    case MapErrorCode::Cancelled: return "cancelled";
    case MapErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case MapErrorCode::Internal: return "internal";
    }
    return "internal";
}

std::string MapError::to_string() const {
    std::string text(engine::to_string(code));
    text += ": ";
    text += message;
    if (!param.empty()) {
        text += " (param '";
        text += param;
        text += "')";
    }
    return text;
}

MapOutcome MapOutcome::success(MappingResult result) {
    MapOutcome outcome;
    outcome.ok_ = true;
    outcome.result_ = std::move(result);
    return outcome;
}

MapOutcome MapOutcome::failure(MapError error) {
    MapOutcome outcome;
    outcome.ok_ = false;
    outcome.error_ = std::move(error);
    return outcome;
}

MapOutcome MapOutcome::failure(MapErrorCode code, std::string message, std::string param) {
    return failure(MapError{code, std::move(message), std::move(param)});
}

const MappingResult& MapOutcome::result() const {
    if (!ok_) throw std::logic_error("MapOutcome::result on a failed outcome");
    return result_;
}

MappingResult& MapOutcome::result() {
    if (!ok_) throw std::logic_error("MapOutcome::result on a failed outcome");
    return result_;
}

const MapError& MapOutcome::error() const {
    if (ok_) throw std::logic_error("MapOutcome::error on a successful outcome");
    return error_;
}

MappingResult MapOutcome::take_or_throw() {
    // map_by_name()'s contract: request-shaped failures surface as
    // std::invalid_argument.
    if (!ok_) throw std::invalid_argument(error_.to_string());
    return std::move(result_);
}

std::optional<MapError> validate_params(const Params& params,
                                        const std::vector<ParamSpec>& specs) {
    for (const auto& [key, value] : params) {
        const auto spec_it =
            std::find_if(specs.begin(), specs.end(),
                         [&key = key](const ParamSpec& s) { return s.name == key; });
        if (spec_it == specs.end()) {
            std::string known;
            for (const ParamSpec& s : specs) {
                if (!known.empty()) known += ", ";
                known += s.name;
            }
            return MapError{MapErrorCode::UnknownParam,
                            "unknown parameter '" + key + "'" +
                                (known.empty() ? " (this mapper has no parameters)"
                                               : "; known: " + known),
                            key};
        }
        const ParamSpec& spec = *spec_it;
        switch (spec.type) {
        case ParamType::Int:
        case ParamType::Double: {
            double numeric = 0.0;
            try {
                numeric = spec.type == ParamType::Int
                              ? static_cast<double>(value.as_int())
                              : value.as_double();
            } catch (const std::exception&) {
                return MapError{MapErrorCode::InvalidParamValue,
                                "parameter '" + key + "' must be " +
                                    std::string(param_type_name(spec.type)) + ", got '" +
                                    value.print() + "'",
                                key};
            }
            if (numeric < spec.min_value || numeric > spec.max_value)
                return MapError{MapErrorCode::ParamOutOfRange,
                                "parameter '" + key + "' = " + value.print() +
                                    " out of range [" + ParamValue::of_double(spec.min_value).print() +
                                    ", " + ParamValue::of_double(spec.max_value).print() + "]",
                                key};
            break;
        }
        case ParamType::Bool:
            try {
                value.as_bool();
            } catch (const std::exception&) {
                return MapError{MapErrorCode::InvalidParamValue,
                                "parameter '" + key + "' must be bool, got '" +
                                    value.print() + "'",
                                key};
            }
            break;
        case ParamType::String:
            break; // every carrier prints
        case ParamType::Enum: {
            const std::string text = value.as_string();
            if (std::find(spec.enum_values.begin(), spec.enum_values.end(), text) ==
                spec.enum_values.end()) {
                std::string admissible;
                for (const std::string& v : spec.enum_values) {
                    if (!admissible.empty()) admissible += "|";
                    admissible += v;
                }
                return MapError{MapErrorCode::ParamOutOfRange,
                                "parameter '" + key + "' = '" + text +
                                    "' not one of " + admissible,
                                key};
            }
            break;
        }
        }
    }
    return std::nullopt;
}

} // namespace nocmap::engine
