#include "sim/time.hpp"

#include <cinttypes>
#include <cstdio>

namespace mnp::sim {

std::string format_time(Time t) {
  if (t < 0) return "never";
  // Round to the printed precision in integer microseconds before
  // splitting into minutes and seconds, so a carry reaches the minutes:
  // 50m59.96s prints "51m00.0s", not "50m60.0s".
  char buf[64];
  const Time ms = (t + 500) / 1000;
  if (ms < 60 * 1000) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64 "s", ms / 1000,
                  ms % 1000);
  } else {
    const Time tenths = (t + 50000) / 100000;
    std::snprintf(buf, sizeof(buf), "%" PRId64 "m%02" PRId64 ".%" PRId64 "s",
                  tenths / 600, tenths % 600 / 10, tenths % 10);
  }
  return buf;
}

}  // namespace mnp::sim
