// The two kernel builds (auto-vectorized vs forced-scalar reference) must
// be bit-identical, and each kernel must reproduce the scalar expression it
// replaced bit-for-bit (or, for DeviationFilter, classify every resolved
// lane consistently with the exact std::hypot comparison).

#include "lira/common/kernels.h"

#include <cmath>
#include <cstdint>
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

/// FlipDistance as written in incremental_evaluator.cc (the pre-kernel
/// scalar original), for bitwise comparison.
double FlipDistanceScalar(const Rect& range, Point p, bool inside) {
  if (inside) {
    return std::min(std::min(p.x - range.min_x, range.max_x - p.x),
                    std::min(p.y - range.min_y, range.max_y - p.y));
  }
  double gx = 0.0;
  double gy = 0.0;
  if (p.x < range.min_x) {
    gx = range.min_x - p.x;
  } else if (p.x >= range.max_x) {
    gx = p.x - range.max_x;
  }
  if (p.y < range.min_y) {
    gy = range.min_y - p.y;
  } else if (p.y >= range.max_y) {
    gy = p.y - range.max_y;
  }
  return gx + gy;
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

TEST(KernelsTest, L1SkipMaskMatchesScalarLogic) {
  Columns in = RandomColumns(2);
  // Clearances: mostly small positive, some zero/negative.
  for (int64_t i = 0; i < kLanes; ++i) {
    in.e[i] = i % 7 == 0 ? 0.0 : std::abs(in.e[i]) * 1e-3;
    // Keep ref close to new so the l1 < clearance compare goes both ways.
    in.c[i] = in.a[i] + in.f[i] * 1e-7;
    in.d[i] = in.b[i] - in.f[i] * 1e-7;
  }
  std::vector<uint8_t> vmask(kLanes), rmask(kLanes);
  const uint8_t* variants[] = {in.v.data(), nullptr};
  for (const uint8_t* np : variants) {
    kernels::vec::L1SkipMask(kLanes, in.a.data(), in.b.data(), in.c.data(),
                             in.d.data(), in.e.data(), in.u.data(), np,
                             vmask.data());
    kernels::ref::L1SkipMask(kLanes, in.a.data(), in.b.data(), in.c.data(),
                             in.d.data(), in.e.data(), in.u.data(), np,
                             rmask.data());
    for (int64_t i = 0; i < kLanes; ++i) {
      const double l1 = std::abs(in.a[i] - in.c[i]) + std::abs(in.b[i] - in.d[i]);
      const bool want = in.u[i] != 0 && (np == nullptr || np[i] != 0) &&
                        in.e[i] > 0.0 && l1 < in.e[i];
      EXPECT_EQ(vmask[i], want ? 1 : 0) << i;
      EXPECT_EQ(rmask[i], vmask[i]) << i;
    }
  }
}

TEST(KernelsTest, RectWalkDistancesMatchesContainsAndFlipDistance) {
  Rng rng(3);
  std::vector<double> mnx(kLanes), mny(kLanes), mxx(kLanes), mxy(kLanes);
  const Point old_p{512.0, 480.0};
  const Point new_p{512.25, 479.75};
  for (int64_t i = 0; i < kLanes; ++i) {
    // Rects clustered around the probe points so all containment
    // combinations and both flip branches occur, including exact-edge rects.
    const double cx = rng.Uniform(300.0, 700.0);
    const double cy = rng.Uniform(300.0, 700.0);
    const double w = rng.Uniform(0.5, 300.0);
    mnx[i] = cx - w;
    mny[i] = cy - w;
    mxx[i] = cx + w;
    mxy[i] = cy + w;
  }
  mnx[0] = new_p.x;  // p exactly on the min edge: inside on that axis
  mxx[1] = new_p.x;  // p exactly on the max edge: outside, gap +0
  std::vector<double> vside(kLanes), rside(kLanes);
  std::vector<double> vflip(kLanes), rflip(kLanes);
  kernels::vec::RectWalkDistances(kLanes, mnx.data(), mny.data(), mxx.data(),
                                  mxy.data(), old_p.x, old_p.y, new_p.x,
                                  new_p.y, vside.data(), vflip.data());
  kernels::ref::RectWalkDistances(kLanes, mnx.data(), mny.data(), mxx.data(),
                                  mxy.data(), old_p.x, old_p.y, new_p.x,
                                  new_p.y, rside.data(), rflip.data());
  int seen = 0;
  for (int64_t i = 0; i < kLanes; ++i) {
    const Rect r{mnx[i], mny[i], mxx[i], mxy[i]};
    const bool in_old = r.Contains(old_p);
    const bool in_new = r.Contains(new_p);
    // old_side is exactly +/-1.0; new_flip's sign bit encodes containment of
    // new_p (a +0.0 distance outside must come out as -0.0).
    EXPECT_EQ(vside[i], in_old ? 1.0 : -1.0) << i;
    EXPECT_EQ(rside[i], vside[i]) << i;
    EXPECT_EQ(!std::signbit(vflip[i]), in_new) << i;
    const double want_flip = FlipDistanceScalar(r, new_p, in_new);
    EXPECT_EQ(std::fabs(vflip[i]), want_flip) << i;
    EXPECT_EQ(rflip[i], vflip[i]) << i;
    EXPECT_EQ(std::signbit(rflip[i]), std::signbit(vflip[i])) << i;
    seen |= 1 << ((in_old ? 1 : 0) | (in_new ? 2 : 0));
  }
  EXPECT_EQ(seen, 0b1111) << "test rects missed a containment combination";
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
