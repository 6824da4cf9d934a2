#include "uld3d/phys/wirelength.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "uld3d/util/check.hpp"

namespace uld3d::phys {
namespace {

TEST(Wirelength, AverageGrowsWithGateCount) {
  const WirelengthParams p;
  const double small = donath_average_wirelength_um(10000, 1.0e6, p);
  const double large = donath_average_wirelength_um(1000000, 1.0e8, p);
  EXPECT_GT(large, small);  // same pitch, more gates -> longer average
}

TEST(Wirelength, DonathExponentLaw) {
  // At fixed pitch, L_avg ~ N^(p-0.5).
  const WirelengthParams p;
  const double pitch_area = 100.0;  // um^2 per gate
  const double l1 = donath_average_wirelength_um(1 << 10, pitch_area * (1 << 10), p);
  const double l2 = donath_average_wirelength_um(1 << 20, pitch_area * (1 << 20), p);
  EXPECT_NEAR(l2 / l1, std::pow(2.0, (p.rent_exponent - 0.5) * 10.0), 1e-6);
}

TEST(Wirelength, LowRentIsLocal) {
  WirelengthParams p;
  p.rent_exponent = 0.4;
  const double avg = donath_average_wirelength_um(1000000, 1.0e8, p);
  EXPECT_NEAR(avg, 2.0 * 10.0, 1e-9);  // 2 pitches at 10 um pitch
}

TEST(Wirelength, TotalIsAverageTimesWires) {
  const WirelengthParams p;
  const double avg = donath_average_wirelength_um(50000, 5.0e6, p);
  EXPECT_NEAR(donath_total_wirelength_um(50000, 5.0e6, p),
              avg * p.wires_per_gate * 50000.0, 1e-6);
}

TEST(Wirelength, FoldingScale) {
  EXPECT_DOUBLE_EQ(folding_scale(1), 1.0);
  EXPECT_NEAR(folding_scale(2), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(folding_scale(4), 0.5, 1e-12);
  // Two-tier folding shortens wires ~29% — the [3-4] folding regime.
  EXPECT_NEAR(1.0 - folding_scale(2), 0.293, 0.01);
}

TEST(Wirelength, BufferCountLinearInLength) {
  const WirelengthParams p;
  EXPECT_EQ(estimate_buffers(0.0, p), 0);
  EXPECT_EQ(estimate_buffers(15000.0, p), 10);  // 1500 um interval
  EXPECT_EQ(estimate_buffers(30000.0, p), 2 * estimate_buffers(15000.0, p));
}

TEST(Wirelength, Validation) {
  const WirelengthParams p;
  EXPECT_THROW(static_cast<void>(donath_average_wirelength_um(0, 1.0, p)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(donath_average_wirelength_um(10, 0.0, p)),
               PreconditionError);
  EXPECT_THROW(static_cast<void>(folding_scale(0)), PreconditionError);
  EXPECT_THROW(static_cast<void>(estimate_buffers(-1.0, p)), PreconditionError);
  WirelengthParams bad;
  bad.rent_exponent = 1.0;
  EXPECT_THROW(static_cast<void>(donath_average_wirelength_um(10, 1.0, bad)),
               PreconditionError);
}

}  // namespace
}  // namespace uld3d::phys
