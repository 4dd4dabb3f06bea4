// Trace persistence: CSV export/import so externally produced position
// traces (e.g. from a real road-network trace generator like the paper's)
// can drive every experiment in this repository, and synthetic traces can
// be archived for exact reproduction.
//
// Format: a header line `frame,node,x,y,vx,vy` followed by one row per
// (frame, node) in row-major order; dt is carried in a `# dt=<seconds>`
// comment on the first line. All frames must cover all nodes 0..n-1.

#ifndef LIRA_MOBILITY_TRACE_IO_H_
#define LIRA_MOBILITY_TRACE_IO_H_

#include <string>

#include "lira/common/status.h"
#include "lira/mobility/trace.h"

namespace lira {

/// Writes the trace to `path`; overwrites an existing file.
Status SaveTraceCsv(const Trace& trace, const std::string& path);

/// Reads a trace written by SaveTraceCsv (or produced externally in the
/// same format). Fails with a descriptive error on malformed input:
/// missing header, non-numeric fields, a dt or state value that is not
/// finite (or a dt that is not positive), out-of-order or missing rows.
StatusOr<Trace> LoadTraceCsv(const std::string& path);

}  // namespace lira

#endif  // LIRA_MOBILITY_TRACE_IO_H_
