// Branch-light contiguous hot-loop kernels.
//
// Every kernel is a restrict-qualified loop over structure-of-arrays lanes,
// written so GCC's auto-vectorizer can emit SIMD for it at -O3 -- no
// intrinsics anywhere. The bodies live in kernels_impl.inc; production
// builds them once, with default codegen, into kernels::vec (kernels.cc),
// an inline namespace, so callers write kernels::Name. The test suite
// builds the same bodies a second time with -fno-tree-vectorize
// -fno-tree-slp-vectorize into kernels::ref (tests/common/kernels_ref.cc),
// the scalar oracle kernels_test compares every kernel against.
//
// Bitwise contract (DESIGN.md §11): the build pins -ffp-contract=off, so
// every operation these kernels use (add/sub/mul/abs/min/max/compare,
// float->double conversion) is exactly rounded per IEEE-754 and produces
// identical bits per lane whether executed scalar or SIMD. The two builds
// are therefore bit-identical by construction; kernels_test verifies it.
//
// Operations that are NOT exactly rounded (std::hypot) or order-dependent
// (FP accumulation) never appear here: callers either keep them scalar or
// use DeviationFilter's band trick, which classifies lanes as
// definitely-above / definitely-below the threshold with a relative margin
// (1e-12) that dwarfs every rounding difference, and falls back to the
// exact scalar expression only for the rare ambiguous lanes.

#ifndef LIRA_COMMON_KERNELS_H_
#define LIRA_COMMON_KERNELS_H_

#include <cstdint>

namespace lira::kernels {

/// Precomputed Rect::Clamp parameters: lo = min edge, hi = max edge minus
/// the relative epsilon nudge. Callers must derive hi_x/hi_y with exactly
/// Rect::Clamp's expression so the kernel reproduces it bit-for-bit.
struct ClampSpec {
  double lo_x = 0.0;
  double lo_y = 0.0;
  double hi_x = 0.0;
  double hi_y = 0.0;
};

/// DeviationFilter lane decisions.
enum : uint8_t {
  kDevKeep = 0,       ///< deviation certainly <= delta: no update
  kDevSend = 1,       ///< deviation certainly > delta (or no model yet)
  kDevAmbiguous = 2,  ///< within the rounding band: resolve with scalar hypot
};

// The kernel declarations, shared by the production build and the test
// oracle (which declares them again in kernels::ref).
#define LIRA_KERNELS_DECLARE                                                   \
  /* out = min(max(in, lo), hi) per axis, Rect::Clamp's exact expression. */   \
  void ClampPoints(int64_t n, const double* in_x, const double* in_y,          \
                   const ClampSpec& spec, double* out_x, double* out_y);       \
                                                                               \
  /* skip[i] = old_present & new_present & (x, y) lies strictly inside the    \
     open box (lo_x, hi_x) x (lo_y, hi_y). new_present == nullptr means all   \
     present. A box with lo >= hi on an axis is empty and never skips. */     \
  void BoxSkipMask(int64_t n, const double* x, const double* y,                \
                   const double* lo_x, const double* hi_x,                     \
                   const double* lo_y, const double* hi_y,                     \
                   const uint8_t* old_present, const uint8_t* new_present,     \
                   uint8_t* skip);                                             \
                                                                               \
  /* Candidate walk over a cell's partial-query rect columns. Containment     \
     comes out as sign-tagged doubles (byte-mask outputs block SSE2           \
     vectorization, sign bits don't): old_side[i] = Contains(old) ? 1.0 :     \
     -1.0, new_side[i] likewise for `new`. cut_*[i] is rect i's safe-box cut   \
     around `new`: inside, the rect's own edges; outside, the violated edge   \
     with the largest gap (every tied edge cuts), on the side facing `new`,    \
     and +-infinity for the bounds it leaves free. Every point strictly       \
     inside (max cut_lo, min cut_hi) on both axes has the containment of       \
     `new` in every rect. The caller reduces the cuts (min and max are exact  \
     and order-free) and emits the events. */                                 \
  void RectWalkBox(int64_t n, const double* min_x, const double* min_y,        \
                   const double* max_x, const double* max_y, double old_x,     \
                   double old_y, double new_x, double new_y,                   \
                   double* old_side, double* new_side, double* cut_lo_x,       \
                   double* cut_hi_x, double* cut_lo_y, double* cut_hi_y);      \
                                                                               \
  /* Dead-reckoning deviation band filter; delta varies per lane. */           \
  void DeviationFilter(int64_t n, const double* origin_x,                      \
                       const double* origin_y, const double* vel_x,            \
                       const double* vel_y, const double* t0,                  \
                       const uint8_t* has, double t, const double* obs_x,      \
                       const double* obs_y, const double* delta,               \
                       uint8_t* decision);                                     \
                                                                               \
  /* As DeviationFilter with one threshold for every lane. */                  \
  void DeviationFilterUniform(int64_t n, const double* origin_x,               \
                              const double* origin_y, const double* vel_x,     \
                              const double* vel_y, const double* t0,           \
                              const uint8_t* has, double t,                    \
                              const double* obs_x, const double* obs_y,        \
                              double delta, uint8_t* decision);                \
                                                                               \
  /* Widens a stride-4 float frame row {x, y, vx, vy} into double columns     \
     (float->double conversion is exact). */                                   \
  void UnpackFrame(int64_t n, const float* states, double* x, double* y,       \
                   double* vx, double* vy);                                    \
                                                                               \
  /* cell[i] = flat row-major grid cell (iy * alpha + ix) of point i, or -1   \
     for lanes with known[i] == 0 (known == nullptr means all lanes valid).   \
     Per axis this is StatisticsGrid::LocateCell's exact expression:          \
     clamp into the ClampSpec box, subtract the origin, divide by the cell    \
     pitch, truncate to int32, clamp to [0, alpha). Division is correctly     \
     rounded per IEEE-754 and the in-range double->int32 conversion is        \
     exact, so scalar and SIMD lanes agree bitwise; unknown lanes are         \
     select-replaced with the origin before the conversion so no garbage      \
     value ever reaches the (UB-on-overflow) cast. */                          \
  void LocateCells(int64_t n, const double* px, const double* py,              \
                   const uint8_t* known, const ClampSpec& spec, double cell_w, \
                   double cell_h, int32_t alpha, int32_t* cell);               \
                                                                               \
  /* skip[i] = cell[i] == old_cell[i] (and >= 0) & velocity bits unchanged    \
     (vel == cached, IEEE == on doubles -- velocities are never NaN). The     \
     columnar stats rebuild's fast path: a skipped lane's contribution        \
     (cell and quantized speed) is provably identical to what the grid        \
     already holds, so the scalar relocation loop tests one byte instead of   \
     re-deriving the comparison chain per lane. */                             \
  void RelocateSkipMask(int64_t n, const int32_t* cell,                        \
                        const int32_t* old_cell, const double* vel_x,          \
                        const double* vel_y, const double* cached_vx,          \
                        const double* cached_vy, uint8_t* skip);

inline namespace vec {
LIRA_KERNELS_DECLARE
}  // namespace vec

}  // namespace lira::kernels

#endif  // LIRA_COMMON_KERNELS_H_
