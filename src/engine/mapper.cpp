#include "engine/mapper.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/json.hpp"
#include "util/string_util.hpp"

namespace nocmap::engine {

const std::vector<ParamSpec>& Mapper::param_specs() const {
    static const std::vector<ParamSpec> kNone;
    return kNone;
}

void Registry::add(MapperInfo info, Factory factory) {
    if (info.name.empty())
        throw std::invalid_argument("Registry::add: empty mapper name");
    if (!factory) throw std::invalid_argument("Registry::add: null factory");
    if (find(info.name))
        throw std::invalid_argument("Registry::add: duplicate mapper '" + info.name + "'");
    entries_.push_back(Entry{std::move(info), std::move(factory)});
}

const Registry::Entry* Registry::find(std::string_view name) const {
    for (const Entry& entry : entries_)
        if (entry.info.name == name) return &entry;
    return nullptr;
}

bool Registry::contains(std::string_view name) const { return find(name) != nullptr; }

std::unique_ptr<Mapper> Registry::create(std::string_view name) const {
    if (const Entry* entry = find(name)) return entry->factory();
    std::string message = "unknown mapper '" + std::string(name) + "'; valid names: ";
    message += util::join(names(), ", ");
    throw std::invalid_argument(message);
}

MapOutcome Registry::run(std::string_view name, const MapRequest& request) const {
    const Entry* entry = find(name);
    if (!entry)
        return MapOutcome::failure(MapErrorCode::UnknownMapper,
                                   "unknown mapper '" + std::string(name) +
                                       "'; valid names: " + util::join(names(), ", "));
    if (!request.context && request.topology) {
        const noc::EvalContext ctx = noc::EvalContext::borrow(*request.topology);
        MapRequest borrowed = request;
        borrowed.context = &ctx;
        return entry->factory()->run(borrowed);
    }
    return entry->factory()->run(request);
}

MapperDescription Registry::describe(std::string_view name) const {
    const std::unique_ptr<Mapper> mapper = create(name);
    return MapperDescription{mapper->info(), mapper->param_specs()};
}

std::vector<MapperDescription> Registry::describe_all() const {
    std::vector<MapperDescription> result;
    result.reserve(entries_.size());
    for (const std::string& name : names()) result.push_back(describe(name));
    return result;
}

std::vector<std::string> Registry::names() const {
    std::vector<std::string> result;
    result.reserve(entries_.size());
    for (const Entry& entry : entries_) result.push_back(entry.info.name);
    std::sort(result.begin(), result.end());
    return result;
}

std::vector<MapperInfo> Registry::infos() const {
    std::vector<MapperInfo> result;
    result.reserve(entries_.size());
    for (const Entry& entry : entries_) result.push_back(entry.info);
    std::sort(result.begin(), result.end(),
              [](const MapperInfo& a, const MapperInfo& b) { return a.name < b.name; });
    return result;
}

Registry& registry() {
    static Registry instance = [] {
        Registry r;
        detail::register_builtin_mappers(r);
        return r;
    }();
    return instance;
}

MappingResult map_by_name(std::string_view name, const graph::CoreGraph& graph,
                          const noc::EvalContext& ctx) {
    MapRequest request;
    request.graph = &graph;
    request.context = &ctx;
    return registry().run(name, request).take_or_throw();
}

MapOutcome run_by_name(std::string_view name, const MapRequest& request) {
    return registry().run(name, request);
}

std::string describe_json(const MapperDescription& description) {
    using util::json::quoted;
    std::string out = "{\n  \"name\": " + quoted(description.info.name) +
                      ",\n  \"description\": " + quoted(description.info.description) +
                      ",\n  \"params\": [";
    for (std::size_t i = 0; i < description.params.size(); ++i) {
        const ParamSpec& spec = description.params[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"name\": " + quoted(spec.name) + ", \"type\": " +
               quoted(std::string(param_type_name(spec.type))) + ", \"default\": " +
               quoted(spec.default_value);
        if (std::isfinite(spec.min_value))
            out += ", \"min\": " + print_bound(spec, spec.min_value);
        if (std::isfinite(spec.max_value))
            out += ", \"max\": " + print_bound(spec, spec.max_value);
        if (!spec.enum_values.empty()) {
            out += ", \"values\": [";
            for (std::size_t v = 0; v < spec.enum_values.size(); ++v) {
                if (v > 0) out += ", ";
                out += quoted(spec.enum_values[v]);
            }
            out += "]";
        }
        out += ", \"doc\": " + quoted(spec.doc) + "}";
    }
    out += description.params.empty() ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

} // namespace nocmap::engine
