// PBB parity pins: the mapping, its cost and all five PbbStats fields of
// the partial branch-and-bound, hashed against digests recorded from the
// search that stored every child in its open list and trimmed the list
// back to queue_capacity after each expansion. A change to how the open
// list is stored or trimmed must reproduce the same search exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <string>

#include "apps/registry.hpp"
#include "baselines/pbb.hpp"
#include "noc/eval_context.hpp"

namespace nocmap::baselines {
namespace {

class Digest {
public:
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void f64(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL; // FNV-1a 64
};

enum class Fabric { Mesh, Torus, Ring, Hypercube };

noc::Topology fabric_for(const graph::CoreGraph& g, Fabric fabric) {
    const noc::Topology mesh = noc::Topology::smallest_mesh_for(g.node_count(), 1e9);
    switch (fabric) {
    case Fabric::Mesh: return mesh;
    case Fabric::Torus: // wraparound links need at least three tiles per row/column
        return noc::Topology::torus(std::max(3, mesh.width()), std::max(3, mesh.height()), 1e9);
    case Fabric::Ring: return noc::Topology::ring(std::max<std::size_t>(3, g.node_count()), 1e9);
    case Fabric::Hypercube:
        return noc::Topology::hypercube(
            static_cast<std::size_t>(std::ceil(std::log2(static_cast<double>(g.node_count())))),
            1e9);
    }
    return mesh;
}

std::uint64_t pbb_digest(const graph::CoreGraph& g, Fabric fabric, const PbbOptions& options) {
    const noc::EvalContext ctx(fabric_for(g, fabric));
    PbbStats stats;
    const auto result = pbb_map(g, ctx, options, &stats);
    Digest d;
    for (std::size_t c = 0; c < g.node_count(); ++c)
        d.u64(static_cast<std::uint64_t>(result.mapping.tile_of(static_cast<graph::NodeId>(c))));
    d.f64(result.comm_cost);
    d.u64(result.feasible ? 1 : 0);
    d.u64(stats.expansions);
    d.u64(stats.generated);
    d.u64(stats.pruned_by_bound);
    d.u64(stats.dropped_by_capacity);
    d.u64(stats.exhausted ? 1 : 0);
    return d.value();
}

struct AppPins {
    const char* app;
    std::uint64_t mesh, torus, ring, hypercube;
    std::uint64_t capacity64; ///< mesh, queue_capacity = 64
};

/// Test names and ctest labels show the app, not the struct's bytes.
void PrintTo(const AppPins& pins, std::ostream* os) { *os << pins.app; }

class PbbParity : public ::testing::TestWithParam<AppPins> {};

TEST_P(PbbParity, DefaultOptionsOnFourFabrics) {
    const AppPins& pins = GetParam();
    const auto g = apps::make_application(pins.app);
    const PbbOptions options;
    const std::uint64_t mesh = pbb_digest(g, Fabric::Mesh, options);
    const std::uint64_t torus = pbb_digest(g, Fabric::Torus, options);
    const std::uint64_t ring = pbb_digest(g, Fabric::Ring, options);
    const std::uint64_t hypercube = pbb_digest(g, Fabric::Hypercube, options);
    EXPECT_EQ(mesh, pins.mesh) << std::hex << "mesh 0x" << mesh;
    EXPECT_EQ(torus, pins.torus) << std::hex << "torus 0x" << torus;
    EXPECT_EQ(ring, pins.ring) << std::hex << "ring 0x" << ring;
    EXPECT_EQ(hypercube, pins.hypercube) << std::hex << "hypercube 0x" << hypercube;
}

TEST_P(PbbParity, QueueCapacity64) {
    const AppPins& pins = GetParam();
    PbbOptions options;
    options.queue_capacity = 64;
    const std::uint64_t digest =
        pbb_digest(apps::make_application(pins.app), Fabric::Mesh, options);
    EXPECT_EQ(digest, pins.capacity64) << std::hex << "capacity64 0x" << digest;
}

INSTANTIATE_TEST_SUITE_P(
    PaperApps, PbbParity,
    ::testing::Values(
        AppPins{"mpeg4", 0x3772e883856fed80ULL, 0x259ca8f332d74b5fULL, 0x671831e7562aba07ULL,
                0x8754e47fad8d5212ULL, 0xc36199daea0b208bULL},
        AppPins{"vopd", 0x85b80d38454dc199ULL, 0x827e3fabc815075cULL, 0xb9296a33e9ce9c57ULL,
                0x3d8dce683fb686d4ULL, 0xacb5701d9250de34ULL},
        AppPins{"pip", 0xd935ed70b766f664ULL, 0xa10ad582a4ffd202ULL, 0x9c4d2010aff45d5dULL,
                0x1f38a81071b31e6fULL, 0x822ba0d2ef862d3aULL},
        AppPins{"mwa", 0xb1a8af2956ddd01bULL, 0xd04fc2bdebf07bb1ULL, 0x93a2670709b0f0b9ULL,
                0xf1f3c5c51dc2b76cULL, 0xd1a25146a43b2ad0ULL},
        AppPins{"mwag", 0xbbbda9dd938cf3c4ULL, 0x235d5dc8fa95c9dcULL, 0x888008b971db9344ULL,
                0x617bbdac4c1ddef9ULL, 0x5e842fe1c00a97eaULL},
        AppPins{"dsd", 0xc486a3501c49c7d8ULL, 0x8553057947f3d0efULL, 0x868054ad66e9f4adULL,
                0xb49b1142d12c2199ULL, 0x7ae6879cbb65f802ULL},
        AppPins{"dsp", 0xdc04aa06a67797ffULL, 0xded02ab68bbb7c7fULL, 0x9008eef1aada17acULL,
                0x39b50e1f0244103aULL, 0xdc04aa06a67797ffULL}));

TEST(PbbParityUnbounded, PipAndDsp) {
    PbbOptions options;
    options.queue_capacity = 0;
    const std::uint64_t pip = pbb_digest(apps::make_application("pip"), Fabric::Mesh, options);
    const std::uint64_t dsp = pbb_digest(apps::make_application("dsp"), Fabric::Mesh, options);
    EXPECT_EQ(pip, 0xd935ed70b766f664ULL) << std::hex << "pip 0x" << pip;
    EXPECT_EQ(dsp, 0xdc04aa06a67797ffULL) << std::hex << "dsp 0x" << dsp;
}

} // namespace
} // namespace nocmap::baselines
