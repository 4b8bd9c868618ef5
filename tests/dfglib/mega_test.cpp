// Property sweep for dfglib::make_mega_design: every (shape, size,
// width, seed) combination — degenerate single-layer and max-fanout
// widths included — must validate, hit its operation budget exactly, be
// deterministic per seed, and round-trip serialize -> streaming parse
// byte-exactly (the contract bench_scale and the scale tests lean on).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cdfg/serialize.h"
#include "cdfg/validate.h"
#include "dfglib/synth.h"

namespace lwm::dfglib {
namespace {

using cdfg::Graph;

struct MegaCase {
  MegaShape shape;
  int operations;
  int width;
  std::uint64_t seed;
};

std::string case_name(const ::testing::TestParamInfo<MegaCase>& info) {
  const char* shape = info.param.shape == MegaShape::kLayeredDeep
                          ? "layered"
                          : (info.param.shape == MegaShape::kUnrolledKernel
                                 ? "unrolled"
                                 : "stitched");
  return std::string(shape) + "_ops" + std::to_string(info.param.operations) +
         "_w" + std::to_string(info.param.width) + "_s" +
         std::to_string(info.param.seed);
}

class MegaDesignTest : public ::testing::TestWithParam<MegaCase> {};

MegaConfig config_of(const MegaCase& c) {
  MegaConfig cfg;
  cfg.name = "mega";
  cfg.shape = c.shape;
  cfg.operations = c.operations;
  cfg.width = c.width;
  cfg.seed = c.seed;
  return cfg;
}

TEST_P(MegaDesignTest, ValidatesAndHitsBudget) {
  const MegaConfig cfg = config_of(GetParam());
  const Graph g = make_mega_design(cfg);
  EXPECT_TRUE(cdfg::validate(g).empty());
  EXPECT_EQ(g.operation_count(), static_cast<std::size_t>(cfg.operations));
}

TEST_P(MegaDesignTest, DeterministicPerSeed) {
  const MegaConfig cfg = config_of(GetParam());
  EXPECT_EQ(cdfg::to_text(make_mega_design(cfg)),
            cdfg::to_text(make_mega_design(cfg)));
}

TEST_P(MegaDesignTest, StreamingRoundTripIsByteExact) {
  const MegaConfig cfg = config_of(GetParam());
  const Graph g = make_mega_design(cfg);
  const std::string text = cdfg::to_text(g);
  std::istringstream in(text);
  auto parsed = cdfg::parse_cdfg(io::LineCursor(in), "mega.cdfg");
  ASSERT_TRUE(parsed.ok()) << parsed.diag().to_string();
  EXPECT_EQ(cdfg::to_text(parsed.value()), text);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MegaDesignTest,
    ::testing::Values(
        // Degenerate floor: a single operation.
        MegaCase{MegaShape::kLayeredDeep, 1, 1, 1},
        MegaCase{MegaShape::kUnrolledKernel, 1, 8, 1},
        MegaCase{MegaShape::kStitchedClones, 1, 4, 1},
        // Single-layer shape: width far above the op budget.
        MegaCase{MegaShape::kLayeredDeep, 5, 1000, 7},
        // Max-fanout shape: width 1 forces a deep narrow spine.
        MegaCase{MegaShape::kLayeredDeep, 300, 1, 11},
        MegaCase{MegaShape::kStitchedClones, 300, 1, 11},
        // Mid-size sweep over all three shapes and two seeds.
        MegaCase{MegaShape::kLayeredDeep, 500, 8, 1},
        MegaCase{MegaShape::kLayeredDeep, 500, 8, 42},
        MegaCase{MegaShape::kUnrolledKernel, 500, 16, 1},
        MegaCase{MegaShape::kUnrolledKernel, 500, 16, 42},
        MegaCase{MegaShape::kStitchedClones, 500, 8, 1},
        MegaCase{MegaShape::kStitchedClones, 500, 8, 42},
        // Large enough to span many layers / blocks / lanes.
        MegaCase{MegaShape::kLayeredDeep, 3000, 32, 3},
        MegaCase{MegaShape::kUnrolledKernel, 3000, 64, 3},
        MegaCase{MegaShape::kStitchedClones, 3000, 16, 3}),
    case_name);

TEST(MegaDesignTest, SeedChangesTheGraph) {
  MegaConfig a;
  a.operations = 400;
  a.seed = 1;
  MegaConfig b = a;
  b.seed = 2;
  EXPECT_NE(cdfg::to_text(make_mega_design(a)),
            cdfg::to_text(make_mega_design(b)));
}

TEST(MegaDesignTest, RejectsBadConfigs) {
  MegaConfig cfg;
  cfg.operations = 0;
  EXPECT_THROW((void)make_mega_design(cfg), std::invalid_argument);
  cfg.operations = 10;
  cfg.width = 0;
  EXPECT_THROW((void)make_mega_design(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace lwm::dfglib
