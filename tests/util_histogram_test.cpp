#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "util/histogram.hpp"

namespace {

namespace util = hupc::util;

// The `Histogram` cases pin the plain power-of-two layout,
// LogHistogram(1.0, 0, n): buckets [0,1), [1,2), [2,4), ..., doubling.

TEST(Histogram, BucketBoundariesArePowersOfTwo) {
  const util::LogHistogram h(1.0, 0, 8);
  EXPECT_DOUBLE_EQ(h.bucket_floor(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(2), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(5), 16.0);
}

TEST(Histogram, ValuesLandInCorrectBuckets) {
  util::LogHistogram h(1.0, 0, 10);
  h.add(0.5);    // [0,1)
  h.add(1.0);    // [1,2)
  h.add(3.9);    // [2,4)
  h.add(4.0);    // [4,8)
  h.add(1000.0); // [512,1024): index = 1+floor(log2(1000)) = 10
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, OverflowClampsToTopBucket) {
  util::LogHistogram h(1.0, 0, 4);  // top bucket index 4: [8, 16)
  h.add(1e12);
  EXPECT_EQ(h.buckets(), 5);
  EXPECT_EQ(h.bucket(4), 1u);
}

TEST(Histogram, WeightsAccumulate) {
  util::LogHistogram h(1.0, 0, 8);
  h.add(2.0, 10);
  h.add(2.5, 5);
  EXPECT_EQ(h.bucket(2), 15u);
  EXPECT_EQ(h.total(), 15u);
}

TEST(Histogram, PercentileCeiling) {
  util::LogHistogram h(1.0, 0, 8);
  for (int i = 0; i < 90; ++i) h.add(1.5);   // bucket [1,2)
  for (int i = 0; i < 10; ++i) h.add(100.0); // bucket [64,128)
  EXPECT_DOUBLE_EQ(h.percentile_ceiling(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile_ceiling(0.9), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile_ceiling(0.99), 128.0);
  EXPECT_DOUBLE_EQ(util::LogHistogram(1.0, 0, 4).percentile_ceiling(0.5), 0.0);
}

TEST(LogHistogram, SubBucketsRefineOctaves) {
  // sub_bits=2: octave [1,2) splits into [1,1.25) [1.25,1.5) [1.5,1.75)
  // [1.75,2).
  util::LogHistogram h(1.0, 2, 8);
  EXPECT_DOUBLE_EQ(h.bucket_floor(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(2), 1.25);
  EXPECT_DOUBLE_EQ(h.bucket_floor(5), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_floor(6), 2.5);
  h.add(1.3);
  EXPECT_EQ(h.bucket(2), 1u);
  h.add(2.6);
  EXPECT_EQ(h.bucket(6), 1u);
}

TEST(LogHistogram, UnitScalesTheFirstBucket) {
  util::LogHistogram h(1e-6, 0, 8);  // microsecond unit
  h.add(0.5e-6);  // below the unit: bucket 0
  h.add(3e-6);    // [2us, 4us): bucket 2 (octave 1)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_floor(2), 2e-6);
}

TEST(LogHistogram, PercentileInterpolatesAndClampsToExactExtrema) {
  util::LogHistogram h(1.0, 4, 16);
  for (int i = 0; i < 99; ++i) h.add(10.0);
  h.add(100.0);
  // p50 lands in 10's sub-bucket but can never undershoot the exact min.
  EXPECT_GE(h.percentile(0.50), 10.0);
  EXPECT_LE(h.percentile(0.50), 10.625);  // 10's sub-bucket ceiling
  EXPECT_LE(h.percentile(0.999), 100.0);  // clamped to exact max
  EXPECT_GE(h.percentile(0.995), 10.0);
  EXPECT_DOUBLE_EQ(h.min_value(), 10.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 100.0);
  EXPECT_DOUBLE_EQ(util::LogHistogram().percentile(0.5), 0.0);  // empty
}

TEST(LogHistogram, MergeFoldsCountsAndExtrema) {
  util::LogHistogram a(1.0, 2, 8);
  util::LogHistogram b(1.0, 2, 8);
  a.add(1.0, 3);
  b.add(6.0, 2);
  a.merge(b);
  EXPECT_EQ(a.total(), 5u);
  EXPECT_DOUBLE_EQ(a.min_value(), 1.0);
  EXPECT_DOUBLE_EQ(a.max_value(), 6.0);
  util::LogHistogram other_geometry(2.0, 2, 8);
  EXPECT_THROW(a.merge(other_geometry), std::invalid_argument);
}

TEST(Histogram, PrintRendersNonEmptyBuckets) {
  util::LogHistogram h(1.0, 0, 6);
  h.add(3.0, 4);
  std::ostringstream os;
  h.print(os, "B");
  EXPECT_NE(os.str().find("[2, 4) B: 4"), std::string::npos);
  std::ostringstream empty;
  util::LogHistogram(1.0, 0, 4).print(empty);
  EXPECT_EQ(empty.str(), "(empty)\n");
}

}  // namespace
