#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "foresight/sweep.hpp"

namespace cosmo::foresight {
namespace {

Field ramp_field() {
  Field f("ramp", Dims::d1(100));
  for (std::size_t i = 0; i < 100; ++i) f.data[i] = static_cast<float>(i);  // range 99
  return f;
}

SweepAxis range_axis(double lo, double hi, std::size_t count) {
  return {.mode = "abs", .kind = SweepAxis::Kind::kRangeFractions, .lo = lo, .hi = hi,
          .count = count};
}

TEST(Sweep, AbsSweepScalesWithFieldRange) {
  const Field f = ramp_field();
  const auto configs = configs_for_axis(range_axis(1e-4, 1e-2, 3), f);
  ASSERT_EQ(configs.size(), 3u);
  for (const auto& c : configs) EXPECT_EQ(c.mode, "abs");
  EXPECT_NEAR(configs.front().value, 99.0 * 1e-4, 1e-9);
  EXPECT_NEAR(configs.back().value, 99.0 * 1e-2, 1e-9);
  // Log spacing: middle point is the geometric mean.
  EXPECT_NEAR(configs[1].value, std::sqrt(configs[0].value * configs[2].value), 1e-9);
}

TEST(Sweep, PwrelSweepLogSpaced) {
  const auto configs = configs_for_axis(
      {.mode = "pw_rel", .kind = SweepAxis::Kind::kLogValues, .lo = 0.001, .hi = 0.1, .count = 5},
      ramp_field());
  ASSERT_EQ(configs.size(), 5u);
  EXPECT_EQ(configs[0].mode, "pw_rel");
  EXPECT_NEAR(configs[0].value, 0.001, 1e-12);
  EXPECT_NEAR(configs[4].value, 0.1, 1e-9);
  for (std::size_t i = 1; i < configs.size(); ++i) {
    EXPECT_NEAR(configs[i].value / configs[i - 1].value,
                configs[1].value / configs[0].value, 1e-6);
  }
}

TEST(Sweep, RateSweepPassesThrough) {
  const auto configs = configs_for_axis({.mode = "rate", .values = {4.0, 8.0}}, ramp_field());
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_EQ(configs[0].mode, "rate");
  EXPECT_EQ(configs[1].value, 8.0);
}

TEST(Sweep, DefaultCandidatesPerCodec) {
  const Field f = ramp_field();
  EXPECT_EQ(default_grid_candidates("cuzfp", f)[0].mode, "rate");
  EXPECT_EQ(default_grid_candidates("zfp-cpu", f).size(), 4u);
  EXPECT_EQ(default_grid_candidates("gpu-sz", f)[0].mode, "abs");
  EXPECT_EQ(default_grid_candidates("sz-cpu", f).size(), 4u);
  EXPECT_THROW(default_grid_candidates("nope", f), InvalidArgument);
}

TEST(Sweep, InvalidRangesRejected) {
  const Field f = ramp_field();
  EXPECT_THROW(configs_for_axis(range_axis(0.0, 1.0, 3), f), InvalidArgument);
  EXPECT_THROW(configs_for_axis(range_axis(1.0, 0.5, 3), f), InvalidArgument);
  EXPECT_THROW(configs_for_axis(range_axis(1e-4, 1e-2, 1), f), InvalidArgument);
  EXPECT_THROW(configs_for_axis({.mode = "rate"}, f), InvalidArgument);
  EXPECT_THROW(configs_for_axis({.mode = "pw_rel",
                                 .kind = SweepAxis::Kind::kLogValues,
                                 .lo = 0.1,
                                 .hi = 0.01,
                                 .count = 3},
                                f),
               InvalidArgument);
  Field flat("flat", Dims::d1(4), {1, 1, 1, 1});
  EXPECT_THROW(configs_for_axis(range_axis(1e-4, 1e-2, 3), flat), InvalidArgument);
}

}  // namespace
}  // namespace cosmo::foresight
