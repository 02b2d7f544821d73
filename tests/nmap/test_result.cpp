#include "nmap/result.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "apps/registry.hpp"
#include "nmap/single_path.hpp"

namespace nocmap::nmap {
namespace {

TEST(Result, DescribeFeasibleMapping) {
    const auto g = apps::make_application("dsp");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 2, 1e9));
    const auto result = map_with_single_path(g, ctx);
    const auto text = describe(result, g, ctx);
    EXPECT_NE(text.find("feasible: yes"), std::string::npos);
    EXPECT_NE(text.find("comm cost: 2600"), std::string::npos);
    EXPECT_NE(text.find("peak link load: 600"), std::string::npos);
    // Every core appears with a coordinate.
    for (std::size_t v = 0; v < g.node_count(); ++v)
        EXPECT_NE(text.find(g.label(static_cast<graph::NodeId>(v)) + " @ ("),
                  std::string::npos);
}

TEST(Result, DescribeInfeasibleMapping) {
    const auto g = apps::make_application("dsp");
    const noc::EvalContext ctx(noc::Topology::mesh(3, 2, 1.0)); // 1 MB/s links
    const auto result = map_with_single_path(g, ctx);
    const auto text = describe(result, g, ctx);
    EXPECT_NE(text.find("feasible: no"), std::string::npos);
    EXPECT_NE(text.find("maxvalue"), std::string::npos);
}

TEST(Result, MinBandwidthIsPeakLoad) {
    MappingResult r;
    r.loads = {10.0, 70.0, 30.0};
    EXPECT_DOUBLE_EQ(r.min_bandwidth(), 70.0);
    MappingResult empty;
    EXPECT_DOUBLE_EQ(empty.min_bandwidth(), 0.0);
}

TEST(Result, MaxValueIsInfinite) {
    EXPECT_TRUE(std::isinf(kMaxValue));
    EXPECT_GT(kMaxValue, 1e300);
}

} // namespace
} // namespace nocmap::nmap
