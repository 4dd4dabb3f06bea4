// The two kernel builds (auto-vectorized vs forced-scalar reference) must
// be bit-identical, and each kernel must reproduce the scalar expression it
// replaced bit-for-bit (or, for DeviationFilter, classify every resolved
// lane consistently with the exact std::hypot comparison).

#include "lira/common/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "lira/common/geometry.h"
#include "lira/common/rng.h"
#include "lira/core/statistics_grid.h"
#include "lira/motion/linear_model.h"
#include "kernels_ref.h"

namespace lira {
namespace {

constexpr int64_t kLanes = 4097;  // odd size exercises the vector epilogue

struct Columns {
  std::vector<double> a, b, c, d, e, f;
  std::vector<uint8_t> u, v;
};

Columns RandomColumns(uint64_t seed) {
  Rng rng(seed);
  Columns out;
  for (auto* col : {&out.a, &out.b, &out.c, &out.d, &out.e, &out.f}) {
    col->resize(kLanes);
    for (double& x : *col) {
      x = rng.Uniform(-1e4, 1e4);
    }
  }
  out.u.resize(kLanes);
  out.v.resize(kLanes);
  for (int64_t i = 0; i < kLanes; ++i) {
    out.u[i] = rng.Uniform(0.0, 1.0) < 0.8 ? 1 : 0;
    out.v[i] = rng.Uniform(0.0, 1.0) < 0.8 ? 1 : 0;
  }
  return out;
}

/// Bit pattern of a double: EXPECT_EQ on doubles treats -0.0 == +0.0.
uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// The walk kernel's outputs, one column each.
struct WalkOut {
  explicit WalkOut(size_t n)
      : old_side(n), new_side(n), lo_x(n), hi_x(n), lo_y(n), hi_y(n) {}
  std::vector<double> old_side, new_side, lo_x, hi_x, lo_y, hi_y;
};

/// Rect edge columns for the walk kernel.
struct RectColumns {
  std::vector<double> min_x, min_y, max_x, max_y;

  void Add(const Rect& r) {
    min_x.push_back(r.min_x);
    min_y.push_back(r.min_y);
    max_x.push_back(r.max_x);
    max_y.push_back(r.max_y);
  }
  size_t size() const { return min_x.size(); }
  Rect At(size_t i) const {
    return Rect{min_x[i], min_y[i], max_x[i], max_y[i]};
  }
};

template <typename Kernel>
WalkOut RunWalk(Kernel kernel, const RectColumns& rects, Point old_p,
                Point new_p) {
  WalkOut out(rects.size());
  kernel(static_cast<int64_t>(rects.size()), rects.min_x.data(),
         rects.min_y.data(), rects.max_x.data(), rects.max_y.data(), old_p.x,
         old_p.y, new_p.x, new_p.y, out.old_side.data(), out.new_side.data(),
         out.lo_x.data(), out.hi_x.data(), out.lo_y.data(), out.hi_y.data());
  return out;
}

/// Rects clustered around `p` (half-widths up to `spread`), so the probe
/// lands inside some and outside others on every side.
RectColumns RectsAround(Rng& rng, Point p, int64_t count, double spread) {
  RectColumns rects;
  for (int64_t i = 0; i < count; ++i) {
    const double cx = p.x + rng.Uniform(-spread, spread);
    const double cy = p.y + rng.Uniform(-spread, spread);
    const double w = rng.Uniform(0.5, spread);
    const double h = rng.Uniform(0.5, spread);
    rects.Add(Rect{cx - w, cy - h, cx + w, cy + h});
  }
  return rects;
}

TEST(KernelsTest, ClampPointsMatchesRectClampBitwise) {
  const Rect world{0.0, 0.0, 8000.0, 6000.0};
  const double eps_x =
      std::max(world.width(), 1.0) * std::numeric_limits<double>::epsilon() * 4;
  const double eps_y =
      std::max(world.height(), 1.0) * std::numeric_limits<double>::epsilon() * 4;
  const kernels::ClampSpec spec{world.min_x, world.min_y,
                                world.max_x - eps_x, world.max_y - eps_y};
  Columns in = RandomColumns(1);
  // Exercise the edges exactly.
  in.a[0] = world.max_x;
  in.b[0] = world.max_y;
  in.a[1] = world.min_x;
  in.b[1] = world.min_y;
  std::vector<double> vx(kLanes), vy(kLanes), rx(kLanes), ry(kLanes);
  kernels::vec::ClampPoints(kLanes, in.a.data(), in.b.data(), spec, vx.data(),
                            vy.data());
  kernels::ref::ClampPoints(kLanes, in.a.data(), in.b.data(), spec, rx.data(),
                            ry.data());
  for (int64_t i = 0; i < kLanes; ++i) {
    const Point want = world.Clamp({in.a[i], in.b[i]});
    EXPECT_EQ(vx[i], want.x) << i;
    EXPECT_EQ(vy[i], want.y) << i;
    EXPECT_EQ(rx[i], want.x) << i;
    EXPECT_EQ(ry[i], want.y) << i;
  }
}

TEST(KernelsTest, BoxSkipMaskMatchesScalarLogic) {
  Columns in = RandomColumns(2);
  std::vector<double> lo_x(kLanes), hi_x(kLanes), lo_y(kLanes), hi_y(kLanes);
  for (int64_t i = 0; i < kLanes; ++i) {
    // Boxes hugging the point so each strict compare goes both ways; every
    // 7th box is empty.
    const double rx = in.c[i] * 1e-7;
    const double ry = in.d[i] * 1e-7;
    lo_x[i] = in.a[i] - rx;
    hi_x[i] = in.a[i] + in.e[i] * 1e-7;
    lo_y[i] = in.b[i] - ry;
    hi_y[i] = in.b[i] + in.f[i] * 1e-7;
    // Points exactly on each of the four faces.
    if (i % 11 == 0) {
      lo_x[i] = in.a[i];
    }
    if (i % 13 == 0) {
      hi_x[i] = in.a[i];
    }
    if (i % 17 == 0) {
      lo_y[i] = in.b[i];
    }
    if (i % 19 == 0) {
      hi_y[i] = in.b[i];
    }
    if (i % 7 == 0) {
      lo_x[i] = hi_x[i] = lo_y[i] = hi_y[i] = 0.0;
    }
  }
  std::vector<uint8_t> vmask(kLanes), rmask(kLanes);
  const uint8_t* variants[] = {in.v.data(), nullptr};
  int seen = 0;
  for (const uint8_t* np : variants) {
    kernels::vec::BoxSkipMask(kLanes, in.a.data(), in.b.data(), lo_x.data(),
                              hi_x.data(), lo_y.data(), hi_y.data(),
                              in.u.data(), np, vmask.data());
    kernels::ref::BoxSkipMask(kLanes, in.a.data(), in.b.data(), lo_x.data(),
                              hi_x.data(), lo_y.data(), hi_y.data(),
                              in.u.data(), np, rmask.data());
    for (int64_t i = 0; i < kLanes; ++i) {
      const bool inside = lo_x[i] < in.a[i] && in.a[i] < hi_x[i] &&
                          lo_y[i] < in.b[i] && in.b[i] < hi_y[i];
      const bool want =
          in.u[i] != 0 && (np == nullptr || np[i] != 0) && inside;
      EXPECT_EQ(vmask[i], want ? 1 : 0) << i;
      EXPECT_EQ(rmask[i], vmask[i]) << i;
      seen |= 1 << (want ? 1 : 0);
    }
  }
  EXPECT_EQ(seen, 0b11) << "test boxes missed a skip outcome";
}

TEST(KernelsTest, RectWalkBoxMatchesContainsAndScalarOracleBitwise) {
  Rng rng(3);
  const Point old_p{512.0, 480.0};
  const Point new_p{512.25, 479.75};
  RectColumns rects = RectsAround(rng, Point{500.0, 500.0}, kLanes, 200.0);
  rects.min_x[0] = new_p.x;  // on a min edge: inside on that axis
  rects.max_x[1] = new_p.x;  // on a max edge: outside, gap 0
  rects.max_y[2] = new_p.y;
  rects.min_y[3] = new_p.y;
  const WalkOut vec = RunWalk(kernels::vec::RectWalkBox, rects, old_p, new_p);
  const WalkOut ref = RunWalk(kernels::ref::RectWalkBox, rects, old_p, new_p);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  int seen = 0;
  for (size_t i = 0; i < rects.size(); ++i) {
    const Rect r = rects.At(i);
    const bool in_old = r.Contains(old_p);
    const bool in_new = r.Contains(new_p);
    EXPECT_EQ(vec.old_side[i], in_old ? 1.0 : -1.0) << i;
    EXPECT_EQ(vec.new_side[i], in_new ? 1.0 : -1.0) << i;
    for (const auto col : {&WalkOut::old_side, &WalkOut::new_side,
                           &WalkOut::lo_x, &WalkOut::hi_x, &WalkOut::lo_y,
                           &WalkOut::hi_y}) {
      EXPECT_EQ(Bits((ref.*col)[i]), Bits((vec.*col)[i])) << i;
    }
    if (in_new) {
      // Inside: the cuts are the rect's own edges.
      EXPECT_EQ(vec.lo_x[i], r.min_x) << i;
      EXPECT_EQ(vec.hi_x[i], r.max_x) << i;
      EXPECT_EQ(vec.lo_y[i], r.min_y) << i;
      EXPECT_EQ(vec.hi_y[i], r.max_y) << i;
    } else {
      // Outside: each edge either cuts, on the side facing new_p, or leaves
      // its bound free; the cutting edges are exactly those with the
      // largest gap.
      const double gaps[] = {new_p.x - r.max_x, r.min_x - new_p.x,
                             new_p.y - r.max_y, r.min_y - new_p.y};
      const double cuts[] = {vec.lo_x[i], vec.hi_x[i], vec.lo_y[i],
                             vec.hi_y[i]};
      const double edges[] = {r.max_x, r.min_x, r.max_y, r.min_y};
      const double free_bound[] = {-kInf, kInf, -kInf, kInf};
      const double largest = *std::max_element(gaps, gaps + 4);
      EXPECT_GE(largest, 0.0) << i;
      for (int e = 0; e < 4; ++e) {
        EXPECT_EQ(cuts[e], gaps[e] == largest ? edges[e] : free_bound[e])
            << i << " edge " << e;
      }
    }
    seen |= 1 << ((in_old ? 1 : 0) | (in_new ? 2 : 0));
  }
  EXPECT_EQ(seen, 0b1111) << "test rects missed a containment combination";
}

TEST(KernelsTest, RectWalkBoxCertifiesEveryPointInsideTheBox) {
  // Soundness of the safe box: every point strictly inside the reduced box
  // has the probe's containment in every rect, down to the last double
  // inside each face.
  Rng rng(5);
  int nonempty = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Point probe{rng.Uniform(100.0, 900.0), rng.Uniform(100.0, 900.0)};
    const auto count = static_cast<int64_t>(rng.UniformInt(48)) + 1;
    RectColumns rects = RectsAround(rng, probe, count, 40.0);
    // Odd trials add exact-edge rects: the probe on a min edge, the probe
    // on a max edge, and two rects sharing an edge, once through the
    // probe and once a little beside it.
    const bool on_edges = trial % 2 == 1;
    if (on_edges) {
      rects.Add(Rect{probe.x, probe.y - 5.0, probe.x + 9.0, probe.y + 7.0});
      rects.Add(Rect{probe.x - 3.0, probe.y - 8.0, probe.x + 4.0, probe.y});
      rects.Add(Rect{probe.x - 6.0, probe.y - 6.0, probe.x, probe.y + 6.0});
      rects.Add(Rect{probe.x, probe.y - 6.0, probe.x + 6.0, probe.y + 6.0});
      const double shared = probe.y + 2.5;
      rects.Add(Rect{probe.x - 4.0, probe.y - 9.0, probe.x + 4.0, shared});
      rects.Add(Rect{probe.x - 4.0, shared, probe.x + 4.0, probe.y + 9.0});
    }
    const WalkOut vec = RunWalk(kernels::vec::RectWalkBox, rects, probe, probe);
    const WalkOut ref = RunWalk(kernels::ref::RectWalkBox, rects, probe, probe);
    double lo_x = probe.x - 64.0;
    double hi_x = probe.x + 64.0;
    double lo_y = probe.y - 64.0;
    double hi_y = probe.y + 64.0;
    for (size_t i = 0; i < rects.size(); ++i) {
      lo_x = std::max(lo_x, vec.lo_x[i]);
      hi_x = std::min(hi_x, vec.hi_x[i]);
      lo_y = std::max(lo_y, vec.lo_y[i]);
      hi_y = std::min(hi_y, vec.hi_y[i]);
      EXPECT_EQ(Bits(ref.lo_x[i]), Bits(vec.lo_x[i]));
      EXPECT_EQ(Bits(ref.hi_x[i]), Bits(vec.hi_x[i]));
      EXPECT_EQ(Bits(ref.lo_y[i]), Bits(vec.lo_y[i]));
      EXPECT_EQ(Bits(ref.hi_y[i]), Bits(vec.hi_y[i]));
    }
    const bool probe_inside =
        lo_x < probe.x && probe.x < hi_x && lo_y < probe.y && probe.y < hi_y;
    if (!on_edges) {
      // No gap is 0 off the edges, so every cut keeps the probe inside.
      EXPECT_TRUE(probe_inside) << "trial " << trial;
    }
    if (!(lo_x < hi_x && lo_y < hi_y)) {
      continue;
    }
    ++nonempty;
    // The extreme doubles inside each face, crossed with the middle and
    // both extremes of the other axis, plus random interior points.
    const double xs[] = {std::nextafter(lo_x, hi_x), 0.5 * (lo_x + hi_x),
                         std::nextafter(hi_x, lo_x)};
    const double ys[] = {std::nextafter(lo_y, hi_y), 0.5 * (lo_y + hi_y),
                         std::nextafter(hi_y, lo_y)};
    std::vector<Point> points;
    for (const double x : xs) {
      for (const double y : ys) {
        points.push_back(Point{x, y});
      }
    }
    for (int k = 0; k < 16; ++k) {
      points.push_back(
          Point{rng.Uniform(lo_x, hi_x), rng.Uniform(lo_y, hi_y)});
    }
    for (const Point& p : points) {
      if (!(lo_x < p.x && p.x < hi_x && lo_y < p.y && p.y < hi_y)) {
        continue;  // a rounded midpoint of a one-ulp box
      }
      for (size_t i = 0; i < rects.size(); ++i) {
        const Rect r = rects.At(i);
        EXPECT_EQ(r.Contains(p), r.Contains(probe))
            << "trial " << trial << " rect " << i << " point (" << p.x
            << ", " << p.y << ")";
      }
    }
  }
  EXPECT_GT(nonempty, 300) << "too few trials left a box to check";
}

TEST(KernelsTest, DeviationFilterDecisionsMatchExactHypotComparison) {
  Rng rng(4);
  const double t = 123.5;
  std::vector<double> ox(kLanes), oy(kLanes), vx(kLanes), vy(kLanes),
      t0(kLanes), px(kLanes), py(kLanes), delta(kLanes);
  std::vector<uint8_t> has(kLanes);
  for (int64_t i = 0; i < kLanes; ++i) {
    ox[i] = rng.Uniform(0.0, 1e4);
    oy[i] = rng.Uniform(0.0, 1e4);
    vx[i] = rng.Uniform(-15.0, 15.0);
    vy[i] = rng.Uniform(-15.0, 15.0);
    t0[i] = t - rng.Uniform(0.0, 30.0);
    delta[i] = rng.Uniform(0.1, 50.0);
    has[i] = rng.Uniform(0.0, 1.0) < 0.9 ? 1 : 0;
    // Observations near the prediction so both outcomes occur.
    const double drift = rng.Uniform(0.0, 2.0) * delta[i];
    const double angle = rng.Uniform(0.0, 6.28318);
    px[i] = ox[i] + vx[i] * (t - t0[i]) + drift * std::cos(angle);
    py[i] = oy[i] + vy[i] * (t - t0[i]) + drift * std::sin(angle);
  }
  // Exact-threshold lane: distance == delta precisely (axis-aligned), which
  // the band must classify as keep (not >) or report ambiguous -- never send.
  ox[0] = 100.0;
  oy[0] = 200.0;
  vx[0] = vy[0] = 0.0;
  t0[0] = t;
  px[0] = 107.0;
  py[0] = 200.0;
  delta[0] = 7.0;
  // delta == 0 with zero deviation: ambiguous or keep, never send.
  ox[1] = px[1] = 300.0;
  oy[1] = py[1] = 400.0;
  vx[1] = vy[1] = 0.0;
  t0[1] = t;
  delta[1] = 0.0;
  std::vector<uint8_t> vdec(kLanes), rdec(kLanes);
  kernels::vec::DeviationFilter(kLanes, ox.data(), oy.data(), vx.data(),
                                vy.data(), t0.data(), has.data(), t, px.data(),
                                py.data(), delta.data(), vdec.data());
  kernels::ref::DeviationFilter(kLanes, ox.data(), oy.data(), vx.data(),
                                vy.data(), t0.data(), has.data(), t, px.data(),
                                py.data(), delta.data(), rdec.data());
  int64_t ambiguous = 0;
  for (int64_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(vdec[i], rdec[i]) << i;
    if (has[i] == 0) {
      EXPECT_EQ(vdec[i], kernels::kDevSend) << i;
      continue;
    }
    // The exact decision the original scalar Observe would make.
    const LinearMotionModel model{{ox[i], oy[i]}, {vx[i], vy[i]}, t0[i]};
    const bool want_send =
        Distance(model.PredictAt(t), Point{px[i], py[i]}) > delta[i];
    if (vdec[i] == kernels::kDevAmbiguous) {
      ++ambiguous;
      continue;  // resolved by the scalar fallback, any truth is fine
    }
    EXPECT_EQ(vdec[i] == kernels::kDevSend, want_send) << i;
  }
  // The band is ~1e-12 wide relative: random lanes essentially never land
  // in it; only the two constructed boundary lanes may.
  EXPECT_LE(ambiguous, 4);
  EXPECT_NE(vdec[0], kernels::kDevSend);
  EXPECT_NE(vdec[1], kernels::kDevSend);

  // The uniform-delta variant agrees lane-for-lane at a fixed threshold.
  std::vector<double> flat(kLanes, 12.5);
  std::vector<uint8_t> udec(kLanes), fdec(kLanes);
  kernels::vec::DeviationFilterUniform(kLanes, ox.data(), oy.data(), vx.data(),
                                       vy.data(), t0.data(), has.data(), t,
                                       px.data(), py.data(), 12.5, udec.data());
  kernels::vec::DeviationFilter(kLanes, ox.data(), oy.data(), vx.data(),
                                vy.data(), t0.data(), has.data(), t, px.data(),
                                py.data(), flat.data(), fdec.data());
  EXPECT_EQ(udec, fdec);
}

TEST(KernelsTest, UnpackFrameWidensExactly) {
  Rng rng(6);
  std::vector<float> states(4 * kLanes);
  for (float& s : states) {
    s = static_cast<float>(rng.Uniform(-1e4, 1e4));
  }
  std::vector<double> x(kLanes), y(kLanes), vx(kLanes), vy(kLanes);
  std::vector<double> sx(kLanes), sy(kLanes), svx(kLanes), svy(kLanes);
  kernels::vec::UnpackFrame(kLanes, states.data(), x.data(), y.data(),
                            vx.data(), vy.data());
  kernels::ref::UnpackFrame(kLanes, states.data(), sx.data(), sy.data(),
                            svx.data(), svy.data());
  for (int64_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(x[i], static_cast<double>(states[4 * i + 0]));
    EXPECT_EQ(y[i], static_cast<double>(states[4 * i + 1]));
    EXPECT_EQ(vx[i], static_cast<double>(states[4 * i + 2]));
    EXPECT_EQ(vy[i], static_cast<double>(states[4 * i + 3]));
    EXPECT_EQ(sx[i], x[i]);
    EXPECT_EQ(svy[i], vy[i]);
  }
}

TEST(KernelsTest, LocateCellsMatchesGridCellIndexOfBitwise) {
  const Rect world{0.0, 0.0, 8000.0, 6000.0};
  constexpr int32_t kAlpha = 64;
  auto grid = StatisticsGrid::Create(world, kAlpha);
  ASSERT_TRUE(grid.ok());
  const kernels::ClampSpec spec{world.min_x, world.min_y, world.clamp_hi_x(),
                                world.clamp_hi_y()};
  const double cell_w = world.width() / kAlpha;
  const double cell_h = world.height() / kAlpha;
  Columns in = RandomColumns(7);  // [-1e4, 1e4]: many lanes outside the world
  in.a[0] = world.max_x;  // exact max edge: clamps to the last cell
  in.b[0] = world.max_y;
  in.a[1] = world.min_x;
  in.b[1] = world.min_y;
  std::vector<int32_t> vcell(kLanes), rcell(kLanes);
  const uint8_t* variants[] = {in.u.data(), nullptr};
  for (const uint8_t* known : variants) {
    kernels::vec::LocateCells(kLanes, in.a.data(), in.b.data(), known, spec,
                              cell_w, cell_h, kAlpha, vcell.data());
    kernels::ref::LocateCells(kLanes, in.a.data(), in.b.data(), known, spec,
                              cell_w, cell_h, kAlpha, rcell.data());
    for (int64_t i = 0; i < kLanes; ++i) {
      const int32_t want = (known == nullptr || known[i] != 0)
                               ? grid->CellIndexOf({in.a[i], in.b[i]})
                               : -1;
      EXPECT_EQ(vcell[i], want) << i;
      EXPECT_EQ(rcell[i], vcell[i]) << i;
    }
  }
}

}  // namespace
}  // namespace lira
