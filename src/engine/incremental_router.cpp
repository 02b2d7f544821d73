#include "engine/incremental_router.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace nocmap::engine {

namespace {

/// Must match the default eps of noc::satisfies_bandwidth — the router's
/// violation counting reproduces that predicate link by link.
constexpr double kBandwidthEps = 1e-6;

constexpr double kInfeasibleCost = std::numeric_limits<double>::infinity();

} // namespace

IncrementalRouter::IncrementalRouter(const graph::CoreGraph& graph,
                                     const noc::EvalContext& ctx, noc::Mapping mapping,
                                     RerouteOptions options)
    : graph_(&graph), ctx_(ctx), options_(options) {
    bind(std::move(mapping));
}

void IncrementalRouter::bind(noc::Mapping mapping) {
    if (!mapping.is_complete())
        throw std::invalid_argument("IncrementalRouter: mapping must be complete");
    mapping_ = std::move(mapping);
    commodities_ = noc::build_commodities(*graph_, mapping_);
    order_ = noc::routing_order(commodities_);
    pos_of_.assign(commodities_.size(), 0);
    value_at_.assign(commodities_.size(), 0.0);
    for (std::size_t p = 0; p < order_.size(); ++p) {
        pos_of_[order_[p]] = static_cast<Pos>(p);
        value_at_[p] = commodities_[order_[p]].value;
    }
    incident_flag_.assign(commodities_.size(), 0);
    link_slot_.assign(fabric().link_count(), -1);
    modified_links_.clear();
    base_prefix_.assign(fabric().link_count(), 0.0);
    cand_prefix_.assign(fabric().link_count(), 0.0);
    prefix_stamp_.assign(fabric().link_count(), 0);
    prefix_epoch_ = 0; // stamps start stale: every link lazily initializes
    prefix_first_ = 0;
    diff_flag_.assign(fabric().link_count(), 0);
    in_diff_list_.assign(fabric().link_count(), 0);
    diff_links_.clear();
    diff_count_ = 0;
    full_route();
    refresh_committed_eval();
    commits_since_resync_ = 0;
}

void IncrementalRouter::full_route() {
    routes_.assign(commodities_.size(), {});
    ledger_.assign(fabric().link_count(), {});
    loads_.assign(fabric().link_count(), 0.0);
    for (std::size_t p = 0; p < order_.size(); ++p) {
        const std::size_t slot = order_[p];
        const noc::Commodity& c = commodities_[slot];
        noc::Route route = noc::least_congested_min_path(
            ctx_, c.src_tile, c.dst_tile,
            [&](noc::LinkId l) { return loads_[static_cast<std::size_t>(l)]; }, scratch_);
        ++dijkstras_;
        for (const noc::LinkId l : route) {
            loads_[static_cast<std::size_t>(l)] += c.value;
            ledger_[static_cast<std::size_t>(l)].push_back(static_cast<Pos>(p));
        }
        routes_[slot] = std::move(route);
    }
    ++full_reroutes_;
}

void IncrementalRouter::refresh_committed_eval() {
    eval_.max_load = noc::max_load(loads_);
    violations_ = 0;
    for (std::size_t l = 0; l < loads_.size(); ++l)
        if (loads_[l] > link_capacity(l) + kBandwidthEps) ++violations_;
    eval_.feasible = violations_ == 0;
    if (eval_.feasible) {
        double cost = 0.0;
        for (const noc::Commodity& c : commodities_)
            cost += c.value * static_cast<double>(distance(c.src_tile, c.dst_tile));
        eval_.cost = cost;
    } else {
        eval_.cost = kInfeasibleCost;
    }
}

double IncrementalRouter::ledger_sum(const std::vector<Pos>& crossings) const {
    // In routing order, exactly the accumulation sequence of the sequential
    // router — bit-identical loads.
    double sum = 0.0;
    for (const Pos q : crossings) sum += value_at_[static_cast<std::size_t>(q)];
    return sum;
}

IncrementalRouter::PendingLink& IncrementalRouter::pending_link(noc::LinkId l) {
    const std::int32_t slot = link_slot_[static_cast<std::size_t>(l)];
    if (slot >= 0) return pending_pool_[static_cast<std::size_t>(slot)];
    const auto fresh = static_cast<std::int32_t>(modified_links_.size());
    link_slot_[static_cast<std::size_t>(l)] = fresh;
    if (pending_pool_.size() <= static_cast<std::size_t>(fresh)) pending_pool_.emplace_back();
    PendingLink& pl = pending_pool_[static_cast<std::size_t>(fresh)];
    const std::vector<Pos>& committed = ledger_[static_cast<std::size_t>(l)];
    pl.crossings.assign(committed.begin(), committed.end());
    modified_links_.push_back(l);
    return pl;
}

void IncrementalRouter::collect_incident(noc::TileId a, noc::TileId b) {
    for (const std::size_t slot : incident_slots_) incident_flag_[slot] = 0;
    incident_slots_.clear();
    const auto add_core = [&](graph::NodeId core) {
        if (core == graph::kInvalidNode) return;
        for (const std::int32_t e : graph_->out_edges(core))
            if (!incident_flag_[static_cast<std::size_t>(e)]) {
                incident_flag_[static_cast<std::size_t>(e)] = 1;
                incident_slots_.push_back(static_cast<std::size_t>(e));
            }
        for (const std::int32_t e : graph_->in_edges(core))
            if (!incident_flag_[static_cast<std::size_t>(e)]) {
                incident_flag_[static_cast<std::size_t>(e)] = 1;
                incident_slots_.push_back(static_cast<std::size_t>(e));
            }
    };
    add_core(mapping_.core_at(a));
    add_core(mapping_.core_at(b));
    std::sort(incident_slots_.begin(), incident_slots_.end(),
              [&](std::size_t x, std::size_t y) { return pos_of_[x] < pos_of_[y]; });
}

RerouteEval IncrementalRouter::reroute_swap(noc::TileId a, noc::TileId b) {
    if (pending_)
        throw std::logic_error("IncrementalRouter: reroute_swap with a pending evaluation "
                               "open (commit or rollback first)");
    pending_ = true;
    pending_full_ = false;
    pending_a_ = a;
    pending_b_ = b;
    collect_incident(a, b);
    if (incident_slots_.empty() || a == b) {
        // Swapping empty tiles or edgeless cores: routes and loads are
        // untouched, only the mapping moves at commit.
        pending_eval_ = eval_;
        pending_violations_ = violations_;
        return pending_eval_;
    }
    if (options_.mode == RerouteMode::Exact)
        exact_eval();
    else
        fast_eval();
    return pending_eval_;
}

void IncrementalRouter::ensure_prefix(std::size_t l) {
    if (prefix_stamp_[l] == prefix_epoch_) return;
    prefix_stamp_[l] = prefix_epoch_;
    // The prefix load of link `l` right before the replay's first position:
    // the in-order partial sum of its committed crossings below it —
    // identical in both passes until an advance diverges them.
    double sum = 0.0;
    for (const Pos q : ledger_[l]) {
        if (q >= prefix_first_) break;
        sum += value_at_[static_cast<std::size_t>(q)];
    }
    base_prefix_[l] = sum;
    cand_prefix_[l] = sum;
}

void IncrementalRouter::exact_eval() {
    // Replay the sequential routing pass from the first incident commodity
    // on, re-running the quadrant Dijkstra only where the candidate's
    // prefix loads differ from the committed ones. Identical weights pick
    // identical routes (deterministic tie-breaking), so untouched
    // commodities keep their committed route and the final state is
    // bit-identical to a from-scratch re-route of the swapped mapping.
    //
    // Two replay load arrays run alongside the walk — the committed pass's
    // prefix (base) and the candidate's (cand) — built by the same
    // ascending-position additions as a fresh routing, so the Dijkstra
    // weight is one array load and bit-identical to the sequential
    // router's. A commodity re-routes only when some link of its quadrant
    // currently carries different prefix loads in the two arrays.
    //
    // Tempting but WRONG sharpening: skipping the Dijkstra when all
    // differing quadrant links increased and lie off the committed route.
    // The old route stays an argmin then, but an increased-weight node can
    // tie another heap key and pop earlier (ties break by tile id), handing
    // a path node a different equal-cost predecessor — the returned route
    // changes even though its cost does not. Only weight-equality is
    // tie-safe.
    const auto a = pending_a_;
    const auto b = pending_b_;
    const auto translate = [&](noc::TileId t) { return t == a ? b : (t == b ? a : t); };
    const Pos count = static_cast<Pos>(order_.size());
    const Pos first = pos_of_[incident_slots_.front()];
    const Pos last_incident = pos_of_[incident_slots_.back()];

    // Prefix loads right before position `first` are identical in both
    // passes: the in-order partial sums of the committed ledger. Filling
    // them eagerly costs O(links + ledger entries below `first`) per
    // candidate, yet the replay only ever reads the links on committed or
    // re-routed routes plus the Dijkstra frontiers. Epoch-stamp instead of
    // clearing: bump the epoch, and let ensure_prefix() initialize a
    // link's pair of entries lazily on first touch.
    ++prefix_epoch_;
    prefix_first_ = first;

    const auto touch = [&](noc::LinkId l) {
        const auto i = static_cast<std::size_t>(l);
        const bool differs = cand_prefix_[i] != base_prefix_[i];
        if (differs != (diff_flag_[i] != 0)) {
            diff_flag_[i] = differs ? 1 : 0;
            diff_count_ += differs ? 1 : -1;
        }
        if (differs && !in_diff_list_[i]) {
            in_diff_list_[i] = 1;
            diff_links_.push_back(l);
        }
    };

    for (Pos p = first; p < count; ++p) {
        const std::size_t slot = order_[static_cast<std::size_t>(p)];
        const noc::Commodity& c = commodities_[slot];
        const bool incident = incident_flag_[slot] != 0;
        const noc::TileId src = incident ? translate(c.src_tile) : c.src_tile;
        const noc::TileId dst = incident ? translate(c.dst_tile) : c.dst_tile;
        bool dirty = incident;
        if (!dirty && diff_count_ != 0) {
            // Re-route only when a differing link could enter this
            // commodity's Dijkstra: both endpoints in the quadrant and
            // pointing toward the destination.
            for (const noc::LinkId l : diff_links_) {
                if (!diff_flag_[static_cast<std::size_t>(l)]) continue; // no longer differs
                const noc::Link& link = fabric().link(l);
                if (!ctx_.in_quadrant(link.src, src, dst) ||
                    !ctx_.in_quadrant(link.dst, src, dst))
                    continue;
                if (ctx_.distance(link.dst, dst) >= ctx_.distance(link.src, dst)) continue;
                dirty = true;
                break;
            }
        }

        const noc::Route& committed = routes_[slot];
        const double value = value_at_[static_cast<std::size_t>(p)];
        const noc::Route* chosen = &committed;
        if (dirty) {
            ++dijkstras_;
            noc::Route route = noc::least_congested_min_path(
                ctx_, src, dst,
                [&](noc::LinkId l) {
                    const auto i = static_cast<std::size_t>(l);
                    ensure_prefix(i);
                    return cand_prefix_[i];
                },
                scratch_);
            if (incident || route != committed) {
                for (const noc::LinkId l : committed) {
                    PendingLink& pl = pending_link(l);
                    pl.crossings.erase(
                        std::lower_bound(pl.crossings.begin(), pl.crossings.end(), p));
                }
                for (const noc::LinkId l : route) {
                    PendingLink& pl = pending_link(l);
                    pl.crossings.insert(
                        std::lower_bound(pl.crossings.begin(), pl.crossings.end(), p), p);
                }
                pending_routes_.emplace_back(slot, std::move(route));
                chosen = &pending_routes_.back().second;
            }
        }

        // Advance both replay passes (ascending-position adds keep every
        // array value an in-order prefix sum).
        if (chosen == &committed) {
            for (const noc::LinkId l : committed) {
                const auto i = static_cast<std::size_t>(l);
                ensure_prefix(i);
                base_prefix_[i] += value;
                cand_prefix_[i] += value;
                touch(l);
            }
        } else {
            for (const noc::LinkId l : committed) {
                const auto i = static_cast<std::size_t>(l);
                ensure_prefix(i);
                base_prefix_[i] += value;
                touch(l);
            }
            for (const noc::LinkId l : *chosen) {
                const auto i = static_cast<std::size_t>(l);
                ensure_prefix(i);
                cand_prefix_[i] += value;
                touch(l);
            }
        }

        // Both passes agree on every link and no incident commodity left:
        // the rest of the pass keeps its committed routes.
        if (diff_count_ == 0 && p >= last_incident) break;
    }
    score_pending();
}

void IncrementalRouter::fast_eval() {
    // Pure rip-up-and-reroute: pull the incident commodities off the
    // ledger and re-route them, in value order, against the absolute
    // current loads. O(deg) Dijkstras, no replay of the sequential pass.
    const auto a = pending_a_;
    const auto b = pending_b_;
    const auto translate = [&](noc::TileId t) { return t == a ? b : (t == b ? a : t); };
    fast_loads_ = loads_;
    for (const std::size_t slot : incident_slots_)
        for (const noc::LinkId l : routes_[slot])
            fast_loads_[static_cast<std::size_t>(l)] -= commodities_[slot].value;
    for (const std::size_t slot : incident_slots_) {
        const noc::Commodity& c = commodities_[slot];
        const Pos p = pos_of_[slot];
        ++dijkstras_;
        noc::Route route = noc::least_congested_min_path(
            ctx_, translate(c.src_tile), translate(c.dst_tile),
            [&](noc::LinkId l) { return fast_loads_[static_cast<std::size_t>(l)]; },
            scratch_);
        for (const noc::LinkId l : route)
            fast_loads_[static_cast<std::size_t>(l)] += c.value;
        for (const noc::LinkId l : routes_[slot]) {
            PendingLink& pl = pending_link(l);
            pl.crossings.erase(std::lower_bound(pl.crossings.begin(), pl.crossings.end(), p));
        }
        for (const noc::LinkId l : route) {
            PendingLink& pl = pending_link(l);
            pl.crossings.insert(
                std::lower_bound(pl.crossings.begin(), pl.crossings.end(), p), p);
        }
        pending_routes_.emplace_back(slot, std::move(route));
    }
    score_pending();
    if (!pending_eval_.feasible && options_.confirm_infeasible) {
        // The quick answer says infeasible; confirm with a full sequential
        // re-route so Fast mode never reports infeasible when the
        // sequential router would not.
        std::vector<noc::Commodity> candidate = commodities_;
        for (const std::size_t slot : incident_slots_) {
            candidate[slot].src_tile = translate(candidate[slot].src_tile);
            candidate[slot].dst_tile = translate(candidate[slot].dst_tile);
        }
        pending_all_routes_.assign(candidate.size(), {});
        pending_all_ledger_.assign(fabric().link_count(), {});
        pending_all_loads_.assign(fabric().link_count(), 0.0);
        for (std::size_t p = 0; p < order_.size(); ++p) {
            const std::size_t slot = order_[p];
            const noc::Commodity& c = candidate[slot];
            noc::Route route = noc::least_congested_min_path(
                ctx_, c.src_tile, c.dst_tile,
                [&](noc::LinkId l) { return pending_all_loads_[static_cast<std::size_t>(l)]; },
                scratch_);
            ++dijkstras_;
            for (const noc::LinkId l : route) {
                pending_all_loads_[static_cast<std::size_t>(l)] += c.value;
                pending_all_ledger_[static_cast<std::size_t>(l)].push_back(
                    static_cast<Pos>(p));
            }
            pending_all_routes_[slot] = std::move(route);
        }
        ++full_reroutes_;
        pending_full_ = true;
        pending_violations_ = 0;
        for (std::size_t l = 0; l < pending_all_loads_.size(); ++l)
            if (pending_all_loads_[l] > link_capacity(l) + kBandwidthEps)
                ++pending_violations_;
        pending_eval_.max_load = noc::max_load(pending_all_loads_);
        pending_eval_.feasible = pending_violations_ == 0;
        pending_eval_.cost = pending_eval_.feasible ? pending_cost() : kInfeasibleCost;
    }
}

void IncrementalRouter::score_pending() {
    pending_violations_ = violations_;
    double changed_max = 0.0;
    bool peak_shrank = false;
    for (const noc::LinkId l : modified_links_) {
        PendingLink& pl =
            pending_pool_[static_cast<std::size_t>(link_slot_[static_cast<std::size_t>(l)])];
        pl.new_load = ledger_sum(pl.crossings);
        const double old_load = loads_[static_cast<std::size_t>(l)];
        const double capacity = link_capacity(static_cast<std::size_t>(l));
        pending_violations_ += (pl.new_load > capacity + kBandwidthEps ? 1u : 0u);
        pending_violations_ -= (old_load > capacity + kBandwidthEps ? 1u : 0u);
        changed_max = std::max(changed_max, pl.new_load);
        if (old_load == eval_.max_load && pl.new_load < old_load) peak_shrank = true;
    }
    if (!peak_shrank) {
        // Lazy max: no former peak link decreased, so the committed peak
        // still lower-bounds every unchanged link.
        pending_eval_.max_load = std::max(eval_.max_load, changed_max);
    } else {
        double peak = changed_max;
        for (std::size_t l = 0; l < loads_.size(); ++l)
            if (link_slot_[l] < 0) peak = std::max(peak, loads_[l]);
        pending_eval_.max_load = peak;
    }
    pending_eval_.feasible = pending_violations_ == 0;
    pending_eval_.cost = pending_eval_.feasible ? pending_cost() : kInfeasibleCost;
}

double IncrementalRouter::pending_cost() const {
    // Slot order, mirroring noc::communication_cost — same summation
    // sequence, bit-identical value.
    const auto a = pending_a_;
    const auto b = pending_b_;
    double cost = 0.0;
    for (std::size_t k = 0; k < commodities_.size(); ++k) {
        const noc::Commodity& c = commodities_[k];
        noc::TileId src = c.src_tile;
        noc::TileId dst = c.dst_tile;
        if (incident_flag_[k]) {
            src = src == a ? b : (src == b ? a : src);
            dst = dst == a ? b : (dst == b ? a : dst);
        }
        cost += c.value * static_cast<double>(distance(src, dst));
    }
    return cost;
}

void IncrementalRouter::commit() {
    if (!pending_) throw std::logic_error("IncrementalRouter: commit without pending state");
    const auto a = pending_a_;
    const auto b = pending_b_;
    const auto translate = [&](noc::TileId t) { return t == a ? b : (t == b ? a : t); };
    mapping_.swap_tiles(a, b);
    for (const std::size_t slot : incident_slots_) {
        commodities_[slot].src_tile = translate(commodities_[slot].src_tile);
        commodities_[slot].dst_tile = translate(commodities_[slot].dst_tile);
    }
    if (pending_full_) {
        routes_ = std::move(pending_all_routes_);
        ledger_ = std::move(pending_all_ledger_);
        loads_ = std::move(pending_all_loads_);
    } else {
        for (auto& [slot, route] : pending_routes_) routes_[slot] = std::move(route);
        for (const noc::LinkId l : modified_links_) {
            PendingLink& pl = pending_pool_[static_cast<std::size_t>(
                link_slot_[static_cast<std::size_t>(l)])];
            // swap, not move: the pool entry keeps the old ledger vector's
            // capacity for the next evaluation.
            std::swap(ledger_[static_cast<std::size_t>(l)], pl.crossings);
            loads_[static_cast<std::size_t>(l)] = pl.new_load;
        }
    }
    eval_ = pending_eval_;
    violations_ = pending_violations_;
    rollback(); // clears the pending containers
    ++commits_;
    ++commits_since_resync_;
    if (options_.resync_cadence && commits_since_resync_ >= options_.resync_cadence) resync();
}

void IncrementalRouter::rollback() {
    for (const std::size_t slot : incident_slots_) incident_flag_[slot] = 0;
    incident_slots_.clear();
    pending_routes_.clear();
    for (const noc::LinkId l : modified_links_) link_slot_[static_cast<std::size_t>(l)] = -1;
    modified_links_.clear();
    for (const noc::LinkId l : diff_links_) {
        diff_flag_[static_cast<std::size_t>(l)] = 0;
        in_diff_list_[static_cast<std::size_t>(l)] = 0;
    }
    diff_links_.clear();
    diff_count_ = 0;
    pending_all_routes_.clear();
    pending_all_ledger_.clear();
    pending_all_loads_.clear();
    pending_ = false;
    pending_full_ = false;
}

void IncrementalRouter::rebase(const noc::Mapping& mapping) {
    if (pending_) rollback();
    if (mapping.core_count() != mapping_.core_count() ||
        mapping.tile_count() != mapping_.tile_count())
        throw std::invalid_argument("IncrementalRouter: rebase mapping shape mismatch");
    if (!mapping.is_complete())
        throw std::invalid_argument("IncrementalRouter: mapping must be complete");
    noc::TileId first = noc::kInvalidTile;
    noc::TileId second = noc::kInvalidTile;
    std::size_t differing = 0;
    for (std::size_t t = 0; t < mapping.tile_count(); ++t) {
        const auto tile = static_cast<noc::TileId>(t);
        if (mapping_.core_at(tile) == mapping.core_at(tile)) continue;
        ++differing;
        if (differing == 1)
            first = tile;
        else if (differing == 2)
            second = tile;
        else
            break;
    }
    if (differing == 0) return;
    if (differing == 2 && mapping_.core_at(first) == mapping.core_at(second) &&
        mapping_.core_at(second) == mapping.core_at(first)) {
        // One tile swap away: the O(deg) path. In Exact mode this lands on
        // exactly the state a full re-route of `mapping` would produce.
        reroute_swap(first, second);
        commit();
        return;
    }
    bind(mapping);
}

void IncrementalRouter::resync() {
    if (pending_)
        throw std::logic_error("IncrementalRouter: resync with a pending evaluation open");
    if (options_.mode == RerouteMode::Exact && options_.audit) {
        const std::vector<noc::Route> routes_before = routes_;
        const noc::LinkLoads loads_before = loads_;
        const RerouteEval eval_before = eval_;
        full_route();
        refresh_committed_eval();
        if (routes_ != routes_before || loads_ != loads_before ||
            eval_.max_load != eval_before.max_load || eval_.feasible != eval_before.feasible ||
            eval_.cost != eval_before.cost)
            throw std::logic_error(
                "IncrementalRouter audit: ledger state diverged from evaluate_mapping");
    } else {
        full_route();
        refresh_committed_eval();
    }
    commits_since_resync_ = 0;
}

} // namespace nocmap::engine
