#include "uld3d/phys/timing.hpp"

#include <gtest/gtest.h>

#include "uld3d/util/check.hpp"

namespace uld3d::phys {
namespace {

tech::StdCellLibrary lib() { return tech::StdCellLibrary::make_si_cmos_130nm(); }

TEST(Timing, RelaxedTargetIsMetAt130nm) {
  // The paper's 20 MHz target (50 ns period) is easy for 130 nm logic.
  const TimingReport r =
      estimate_timing(lib(), {}, /*wire=*/5000.0, 1500.0, 20.0);
  EXPECT_TRUE(r.meets_target);
  EXPECT_GT(r.slack_ns, 0.0);
  EXPECT_DOUBLE_EQ(r.achieved_frequency_mhz, 20.0);  // clocked at target
}

TEST(Timing, AggressiveTargetFails) {
  const TimingReport r =
      estimate_timing(lib(), {}, /*wire=*/5000.0, 1500.0, 500.0);
  EXPECT_FALSE(r.meets_target);
  EXPECT_LT(r.slack_ns, 0.0);
  EXPECT_LT(r.achieved_frequency_mhz, 500.0);
}

TEST(Timing, LogicDelayScalesWithDepth) {
  TimingParams deep;
  deep.logic_depth = 48;
  const TimingReport shallow = estimate_timing(lib(), {}, 0.0, 1500.0, 20.0);
  const TimingReport deeper = estimate_timing(lib(), deep, 0.0, 1500.0, 20.0);
  EXPECT_NEAR(deeper.logic_delay_ns / shallow.logic_delay_ns, 2.0, 1e-9);
}

TEST(Timing, LongerWiresSlower) {
  const TimingReport near =
      estimate_timing(lib(), {}, 1000.0, 1500.0, 20.0);
  const TimingReport far =
      estimate_timing(lib(), {}, 12000.0, 1500.0, 20.0);
  EXPECT_GT(far.wire_delay_ns, near.wire_delay_ns);
  EXPECT_GT(far.critical_path_ns, near.critical_path_ns);
}

TEST(Timing, BufferingMakesWireDelayNearLinear) {
  // Doubling a well-buffered wire should roughly double its delay, not
  // quadruple it (the unbuffered quadratic regime).
  const double d1 =
      estimate_timing(lib(), {}, 15000.0, 1500.0, 20.0).wire_delay_ns;
  const double d2 =
      estimate_timing(lib(), {}, 30000.0, 1500.0, 20.0).wire_delay_ns;
  EXPECT_LT(d2 / d1, 2.5);
  EXPECT_GT(d2 / d1, 1.7);
}

TEST(Timing, DerateAndUncertaintyApplied) {
  TimingParams ideal;
  ideal.derate = 1.0;
  ideal.clock_uncertainty_ns = 0.0;
  const TimingReport r_ideal = estimate_timing(lib(), ideal, 0.0, 1500.0, 20.0);
  const TimingReport r_real = estimate_timing(lib(), {}, 0.0, 1500.0, 20.0);
  EXPECT_GT(r_real.critical_path_ns, r_ideal.critical_path_ns);
}

TEST(Timing, Validation) {
  EXPECT_THROW(static_cast<void>(
                   estimate_timing(lib(), {}, -1.0, 1500.0, 20.0)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(estimate_timing(lib(), {}, 0.0, 0.0, 20.0)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(estimate_timing(lib(), {}, 0.0, 1500.0, 0.0)),
               PreconditionError);
  TimingParams bad;
  bad.logic_depth = 0;
  EXPECT_THROW(static_cast<void>(
                   estimate_timing(lib(), bad, 0.0, 1500.0, 20.0)),
               PreconditionError);
}

}  // namespace
}  // namespace uld3d::phys
