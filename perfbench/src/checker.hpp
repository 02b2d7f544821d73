#pragma once
// Independent result checker.
//
// Deliberately written against plain data — a list of demands, a list of
// directed links, a core -> tile array, the reported cost, loads and
// flows — and sharing no code with the mapper: hop distances come from its
// own BFS over the link list, costs and flow balances are recomputed from
// first principles. A mapping result passes only when
//
//   * the placement is injective and every core sits on a real tile;
//   * single-path results: comm_cost equals sum(bandwidth * hops);
//   * split results: every commodity's flow is conserved at every tile,
//     link loads equal the summed flows and stay within capacity, the total
//     flow equals comm_cost within 1e-9 relative, and the cost is never
//     below the shortest-path bound (equal to it for minimum-path splits).

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench::check {

struct Link {
    int src = -1;
    int dst = -1;
    double capacity = 0.0;
};

struct Fabric {
    std::size_t tiles = 0;
    std::vector<Link> links;
};

struct Demand {
    int src_core = -1;
    int dst_core = -1;
    double bandwidth = 0.0;
};

struct Instance {
    std::size_t cores = 0;
    std::vector<Demand> demands; ///< demand k is commodity k of a split answer
    Fabric fabric;
};

enum class Routing {
    SinglePath,    ///< one minimum path per demand (nmap, pbb, sa, gmap, pmap)
    SplitMinPaths, ///< flow split over minimum paths only (nmap-tm)
    SplitAllPaths, ///< flow split over any path (nmap-split)
};

struct Answer {
    std::vector<int> tile_of_core;
    double comm_cost = 0.0;
    bool feasible = false;
    std::vector<double> loads;              ///< per link (may be empty)
    std::vector<std::vector<double>> flows; ///< [demand][link], split answers only
};

/// All-pairs hop distances over the directed links (BFS from every tile);
/// -1 where a tile cannot reach another.
std::vector<std::vector<int>> hop_distances(const Fabric& fabric);

/// sum(bandwidth * hops) of a placement.
double shortest_path_cost(const Instance& instance, const std::vector<int>& tile_of_core,
                          const std::vector<std::vector<int>>& hops);

/// "" when `answer` passes every check for `routing`, else the first
/// violation found.
std::string verify(const Instance& instance, const Answer& answer, Routing routing,
                   const std::vector<std::vector<int>>& hops);

} // namespace perfbench::check
