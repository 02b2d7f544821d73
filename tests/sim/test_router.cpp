#include "sim/router.hpp"

#include <gtest/gtest.h>

namespace nocmap::sim {
namespace {

TEST(Router, PortLayout) {
    const auto topo = noc::Topology::mesh(3, 3, 100.0);
    const noc::TileId centre = topo.tile_at(1, 1);
    Router r(topo, centre, 8);
    // Centre tile: 4 incoming links + local port.
    EXPECT_EQ(r.input_count(), 5u);
    EXPECT_EQ(r.tile(), centre);
    for (const noc::LinkId l : topo.in_links(centre)) {
        const PortIndex p = r.port_of_in_link(l);
        EXPECT_GT(p, 0);
        EXPECT_LT(static_cast<std::size_t>(p), r.input_count());
    }
    // Output ports are positional: output(i) serves out_links()[i], in
    // topo.out_links() order.
    const auto out = topo.out_links(centre);
    EXPECT_EQ(r.out_links(), std::vector<noc::LinkId>(out.begin(), out.end()));
}

TEST(Router, LocalPortIsUnbounded) {
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    Router r(topo, 0, 4);
    auto& local = r.input(kLocalPort);
    EXPECT_EQ(local.capacity, 0u);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(local.has_space());
        local.fifo.push_back(Flit{});
    }
}

TEST(Router, LinkPortRespectsDepth) {
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    const noc::TileId t = 0;
    Router r(topo, t, 2);
    const noc::LinkId in = topo.in_links(t)[0];
    auto& buffer = r.input(r.port_of_in_link(in));
    EXPECT_TRUE(buffer.has_space());
    buffer.fifo.push_back(Flit{});
    buffer.reserved = 1; // one more in flight
    EXPECT_FALSE(buffer.has_space());
}

TEST(Router, RejectsForeignLinks) {
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    Router r(topo, 0, 4);
    // A link that neither enters nor leaves tile 0.
    noc::LinkId foreign = noc::kInvalidLink;
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
        const noc::Link& link = topo.link(static_cast<noc::LinkId>(l));
        if (link.src != 0 && link.dst != 0) {
            foreign = static_cast<noc::LinkId>(l);
            break;
        }
    }
    ASSERT_NE(foreign, noc::kInvalidLink);
    EXPECT_THROW(r.port_of_in_link(foreign), std::invalid_argument);
}

TEST(Router, BufferedFlitCount) {
    const auto topo = noc::Topology::mesh(2, 2, 100.0);
    Router r(topo, 0, 4);
    EXPECT_EQ(r.buffered_flits(), 0u);
    r.input(kLocalPort).fifo.push_back(Flit{});
    r.input(1).fifo.push_back(Flit{});
    r.input(1).fifo.push_back(Flit{});
    EXPECT_EQ(r.buffered_flits(), 3u);
}

} // namespace
} // namespace nocmap::sim
