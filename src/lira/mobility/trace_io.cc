#include "lira/mobility/trace_io.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

namespace lira {

Status SaveTraceCsv(const Trace& trace, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return InvalidArgumentError("cannot open for writing: " + path);
  }
  std::fprintf(file, "# dt=%.9g\n", trace.dt());
  std::fprintf(file, "frame,node,x,y,vx,vy\n");
  for (int32_t f = 0; f < trace.num_frames(); ++f) {
    for (NodeId id = 0; id < trace.num_nodes(); ++id) {
      const Point p = trace.Position(f, id);
      const Vec2 v = trace.Velocity(f, id);
      std::fprintf(file, "%d,%d,%.6f,%.6f,%.6f,%.6f\n", f, id, p.x, p.y, v.x,
                   v.y);
    }
  }
  if (std::fclose(file) != 0) {
    return InternalError("write failed: " + path);
  }
  return OkStatus();
}

StatusOr<Trace> LoadTraceCsv(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return NotFoundError("cannot open: " + path);
  }
  char line[256];
  double dt = 0.0;
  if (std::fgets(line, sizeof(line), file) == nullptr ||
      std::sscanf(line, "# dt=%lf", &dt) != 1 || !Trace::ValidDt(dt)) {
    std::fclose(file);
    return InvalidArgumentError("missing or malformed '# dt=' header");
  }
  if (std::fgets(line, sizeof(line), file) == nullptr ||
      std::string(line).rfind("frame,node,", 0) != 0) {
    std::fclose(file);
    return InvalidArgumentError("missing column header line");
  }

  std::vector<float> flat;
  int64_t expected_row = 0;
  int32_t num_nodes = -1;
  int32_t max_frame = -1;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    int32_t frame;
    int32_t node;
    float x;
    float y;
    float vx;
    float vy;
    if (std::sscanf(line, "%" SCNd32 ",%" SCNd32 ",%f,%f,%f,%f", &frame,
                    &node, &x, &y, &vx, &vy) != 6) {
      std::fclose(file);
      return InvalidArgumentError("malformed row at index " +
                                  std::to_string(expected_row));
    }
    // Rows must arrive row-major (frame-major, node-minor, dense). The
    // length of frame 0 defines the node count.
    if (num_nodes < 0 && frame == 1) {
      num_nodes = static_cast<int32_t>(expected_row);
    }
    bool in_order;
    if (num_nodes < 0) {
      in_order = frame == 0 && node == static_cast<int32_t>(expected_row);
    } else {
      in_order = frame == static_cast<int32_t>(expected_row / num_nodes) &&
                 node == static_cast<int32_t>(expected_row % num_nodes);
    }
    if (!in_order) {
      std::fclose(file);
      return InvalidArgumentError("rows out of order or missing at index " +
                                  std::to_string(expected_row));
    }
    flat.push_back(x);
    flat.push_back(y);
    flat.push_back(vx);
    flat.push_back(vy);
    max_frame = std::max(max_frame, frame);
    ++expected_row;
  }
  std::fclose(file);
  if (expected_row == 0) {
    return InvalidArgumentError("trace file has no data rows");
  }
  if (num_nodes < 0) {
    num_nodes = static_cast<int32_t>(expected_row);  // single-frame file
  }
  const int32_t num_frames = max_frame + 1;
  if (static_cast<int64_t>(num_frames) * num_nodes != expected_row) {
    return InvalidArgumentError("incomplete final frame");
  }
  return Trace::FromFlatStates(num_frames, num_nodes, dt, flat);
}

}  // namespace lira
