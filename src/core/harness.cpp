#include "core/harness.hpp"

namespace adcc::core {

NormalizedTime normalize(double seconds, double native_seconds) {
  NormalizedTime n;
  n.seconds = seconds;
  n.normalized = native_seconds > 0 ? seconds / native_seconds : 0.0;
  return n;
}

}  // namespace adcc::core
