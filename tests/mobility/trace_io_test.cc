#include "lira/mobility/trace_io.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "lira/mobility/traffic_model.h"
#include "lira/roadnet/map_generator.h"

namespace lira {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs(contents.c_str(), file);
  std::fclose(file);
}

Trace SmallTrace(int frames = 12, int nodes = 25) {
  MapGeneratorConfig map_config;
  map_config.world_side = 3000.0;
  map_config.arterial_cells = 2;
  map_config.num_towns = 1;
  auto map = GenerateMap(map_config);
  EXPECT_TRUE(map.ok());
  TrafficModelConfig traffic;
  traffic.num_vehicles = nodes;
  auto model = TrafficModel::Create(map->network, traffic);
  EXPECT_TRUE(model.ok());
  auto trace = Trace::Record(*model, frames, 0.5);
  EXPECT_TRUE(trace.ok());
  return *std::move(trace);
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const Trace original = SmallTrace();
  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(SaveTraceCsv(original, path).ok());
  auto loaded = LoadTraceCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_frames(), original.num_frames());
  EXPECT_EQ(loaded->num_nodes(), original.num_nodes());
  EXPECT_DOUBLE_EQ(loaded->dt(), original.dt());
  for (int32_t f = 0; f < original.num_frames(); ++f) {
    for (NodeId id = 0; id < original.num_nodes(); ++id) {
      EXPECT_NEAR(loaded->Position(f, id).x, original.Position(f, id).x,
                  1e-4);
      EXPECT_NEAR(loaded->Position(f, id).y, original.Position(f, id).y,
                  1e-4);
      EXPECT_NEAR(loaded->Velocity(f, id).x, original.Velocity(f, id).x,
                  1e-4);
    }
  }
}

TEST(TraceIoTest, HandWrittenFileLoads) {
  const std::string path = TempPath("hand.csv");
  WriteFile(path,
            "# dt=2.0\n"
            "frame,node,x,y,vx,vy\n"
            "0,0,1.0,2.0,0.5,0.0\n"
            "0,1,3.0,4.0,0.0,0.5\n"
            "1,0,2.0,2.0,0.5,0.0\n"
            "1,1,3.0,5.0,0.0,0.5\n");
  auto trace = LoadTraceCsv(path);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->num_frames(), 2);
  EXPECT_EQ(trace->num_nodes(), 2);
  EXPECT_DOUBLE_EQ(trace->dt(), 2.0);
  EXPECT_NEAR(trace->Position(1, 1).y, 5.0, 1e-6);
  EXPECT_NEAR(trace->Velocity(0, 0).x, 0.5, 1e-6);
  EXPECT_DOUBLE_EQ(trace->TimeOf(0), 2.0);
}

TEST(TraceIoTest, SingleFrameFile) {
  const std::string path = TempPath("single.csv");
  WriteFile(path,
            "# dt=1.0\n"
            "frame,node,x,y,vx,vy\n"
            "0,0,1,1,0,0\n"
            "0,1,2,2,0,0\n"
            "0,2,3,3,0,0\n");
  auto trace = LoadTraceCsv(path);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->num_frames(), 1);
  EXPECT_EQ(trace->num_nodes(), 3);
}

TEST(TraceIoTest, RejectsMalformedInputs) {
  const std::string path = TempPath("bad.csv");
  EXPECT_FALSE(LoadTraceCsv(TempPath("missing-file.csv")).ok());

  WriteFile(path, "frame,node,x,y,vx,vy\n0,0,1,1,0,0\n");
  EXPECT_FALSE(LoadTraceCsv(path).ok());  // no dt header

  WriteFile(path, "# dt=1.0\n0,0,1,1,0,0\n");
  EXPECT_FALSE(LoadTraceCsv(path).ok());  // no column header

  WriteFile(path, "# dt=1.0\nframe,node,x,y,vx,vy\n");
  EXPECT_FALSE(LoadTraceCsv(path).ok());  // no rows

  WriteFile(path,
            "# dt=1.0\nframe,node,x,y,vx,vy\n0,0,1,1,0,0\n0,2,1,1,0,0\n");
  EXPECT_FALSE(LoadTraceCsv(path).ok());  // node gap

  WriteFile(path,
            "# dt=1.0\nframe,node,x,y,vx,vy\n0,0,1,1,0,0\n0,1,1,1,0,0\n"
            "1,0,1,1,0,0\n");
  EXPECT_FALSE(LoadTraceCsv(path).ok());  // incomplete final frame

  WriteFile(path,
            "# dt=1.0\nframe,node,x,y,vx,vy\n0,0,abc,1,0,0\n");
  EXPECT_FALSE(LoadTraceCsv(path).ok());  // non-numeric field

  WriteFile(path, "# dt=0.0\nframe,node,x,y,vx,vy\n0,0,1,1,0,0\n");
  EXPECT_FALSE(LoadTraceCsv(path).ok());  // bad dt

  WriteFile(path, "# dt=nan\nframe,node,x,y,vx,vy\n0,0,1,1,0,0\n");
  EXPECT_FALSE(LoadTraceCsv(path).ok());  // NaN dt

  WriteFile(path, "# dt=inf\nframe,node,x,y,vx,vy\n0,0,1,1,0,0\n");
  EXPECT_FALSE(LoadTraceCsv(path).ok());  // infinite dt

  WriteFile(path,
            "# dt=1.0\nframe,node,x,y,vx,vy\n0,0,1,1,0,0\n"
            "0,1,nan,2,inf,4\n");
  auto non_finite = LoadTraceCsv(path);
  ASSERT_FALSE(non_finite.ok());  // non-finite state
  EXPECT_NE(non_finite.status().message().find("frame 0, node 1"),
            std::string::npos)
      << non_finite.status().message();
}

TEST(TraceIoTest, FromFlatStatesValidation) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(Trace::FromFlatStates(0, 1, 1.0, {}).ok());
  EXPECT_FALSE(Trace::FromFlatStates(1, 1, 0.0, {1, 2, 3, 4}).ok());
  EXPECT_FALSE(Trace::FromFlatStates(1, 1, std::nan(""), {1, 2, 3, 4}).ok());
  EXPECT_FALSE(Trace::FromFlatStates(
                   1, 1, std::numeric_limits<double>::infinity(), {1, 2, 3, 4})
                   .ok());
  EXPECT_FALSE(Trace::FromFlatStates(1, 2, 1.0, {1, 2, 3, 4}).ok());
  EXPECT_FALSE(Trace::FromFlatStates(1, 1, 1.0, {1, nan, 3, 4}).ok());
  auto bad_velocity =
      Trace::FromFlatStates(2, 2, 1.0, {1, 2, 3, 4, 1, 2, 3, 4,  //
                                        1, 2, 3, 4, 1, 2, -inf, 4});
  ASSERT_FALSE(bad_velocity.ok());
  EXPECT_EQ(bad_velocity.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_velocity.status().message().find("frame 1, node 1"),
            std::string::npos)
      << bad_velocity.status().message();
  auto trace = Trace::FromFlatStates(1, 1, 1.0, {1, 2, 3, 4});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->Position(0, 0), (Point{1.0, 2.0}));
}

}  // namespace
}  // namespace lira
