// Byte-level fingerprint of a recorded trace, for tests that pin a trace bit
// for bit. A value comparison lets -0.0 stand in for +0.0; a hash of the raw
// frame bytes does not.

#ifndef LIRA_TESTS_MOBILITY_TRACE_BYTES_H_
#define LIRA_TESTS_MOBILITY_TRACE_BYTES_H_

#include <cstddef>
#include <cstdint>

#include "lira/mobility/trace.h"

namespace lira {

/// FNV-1a 64 over the raw bytes of every Trace::FrameData row, frame by
/// frame.
inline uint64_t TraceBytesHash(const Trace& trace) {
  uint64_t hash = 1469598103934665603ULL;
  const size_t row_bytes =
      4 * sizeof(float) * static_cast<size_t>(trace.num_nodes());
  for (int32_t f = 0; f < trace.num_frames(); ++f) {
    const auto* bytes =
        reinterpret_cast<const unsigned char*>(trace.FrameData(f));
    for (size_t i = 0; i < row_bytes; ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ULL;
    }
  }
  return hash;
}

}  // namespace lira

#endif  // LIRA_TESTS_MOBILITY_TRACE_BYTES_H_
