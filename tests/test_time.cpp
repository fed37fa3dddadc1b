// Unit tests for sim::Time helpers.
#include <gtest/gtest.h>

#include "sim/time.hpp"

namespace mnp::sim {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(usec(5), 5);
  EXPECT_EQ(msec(5), 5000);
  EXPECT_EQ(sec(5), 5000000);
  EXPECT_EQ(minutes(2), 120000000);
  EXPECT_EQ(hours(1), 3600000000LL);
}

TEST(Time, ToSecondsAndBack) {
  EXPECT_DOUBLE_EQ(to_seconds(sec(90)), 90.0);
  EXPECT_DOUBLE_EQ(to_ms(msec(250)), 250.0);
  EXPECT_DOUBLE_EQ(to_minutes(minutes(3)), 3.0);
}

TEST(Time, FormatSubMinute) {
  EXPECT_EQ(format_time(msec(1500)), "1.500s");
}

TEST(Time, FormatMinutes) {
  EXPECT_EQ(format_time(sec(90)), "1m30.0s");
  EXPECT_EQ(format_time(minutes(25)), "25m00.0s");
}

TEST(Time, FormatCarriesRoundingIntoMinutes) {
  // 50m59.96s rounds to a whole minute: the carry must reach the minutes
  // field instead of printing "50m60.0s".
  EXPECT_EQ(format_time(minutes(50) + sec(59) + msec(960)), "51m00.0s");
  EXPECT_EQ(format_time(minutes(50) + sec(59) + msec(949)), "50m59.9s");
  // Just under a minute rounds up to one, in the minutes format.
  EXPECT_EQ(format_time(sec(59) + usec(999600)), "1m00.0s");
  EXPECT_EQ(format_time(sec(59) + usec(999400)), "59.999s");
  EXPECT_EQ(format_time(sec(9) + usec(999500)), "10.000s");
  EXPECT_EQ(format_time(0), "0.000s");
}

TEST(Time, FormatNever) { EXPECT_EQ(format_time(kNever), "never"); }

}  // namespace
}  // namespace mnp::sim
