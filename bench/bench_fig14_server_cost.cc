// Figure 14: server-side cost of configuring LIRA -- the time to execute
// THROTLOOP + GRIDREDUCE + GREEDYINCREMENT -- as a function of the number
// of shedding regions l, for different statistics-grid sizes alpha.
//
// Paper shapes: cost grows mildly in l and strongly in alpha (the
// O(alpha^2 + l log l) bound); the default (l=250, alpha=128) is a tiny
// fraction of any realistic adaptation period. The paper reports ~40 ms for
// the default and ~500 ms for (l=4000, alpha=512) on 2007 hardware in Java;
// absolute numbers here are faster, the scaling shape is what matters.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "lira/core/throt_loop.h"

namespace {

// Median-of-k wall time of one full adaptation step, milliseconds.
double TimeAdaptationMs(const lira::StatisticsGrid& stats,
                        const lira::UpdateReductionFunction& f, int32_t l,
                        int reps) {
  using namespace lira;
  LiraConfig config = DefaultLiraConfig();
  config.l = l;
  const LiraPolicy policy(config);
  auto throttle = ThrotLoop::Create(/*queue_capacity=*/500);
  PolicyContext ctx;
  ctx.stats = &stats;
  ctx.reduction = &f;
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    ctx.z = throttle->Update(1000.0, 1500.0);  // THROTLOOP step
    auto plan = policy.BuildPlan(ctx);         // GRIDREDUCE + GREEDYINCREMENT
    const auto elapsed = std::chrono::steady_clock::now() - start;
    if (!plan.ok()) {
      std::fprintf(stderr, "plan failed: %s\n",
                   plan.status().ToString().c_str());
      std::exit(1);
    }
    times.push_back(std::chrono::duration<double, std::milli>(elapsed)
                        .count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int main() {
  using namespace lira;
  World world = bench::MustBuildWorld(QueryDistribution::kProportional, 0.01,
                                      1000.0, 2000, 300);
  bench::PrintWorldBanner(
      world, "=== Figure 14: server-side configuration cost (ms) ===");

  const std::vector<int32_t> alphas = {64, 128, 256, 512};
  const std::vector<int32_t> ls = {16, 49, 100, 250, 1000, 4000};

  // Per-alpha statistics grids populated from the same snapshot.
  std::vector<StatisticsGrid> grids;
  for (int32_t alpha : alphas) {
    auto grid = StatisticsGrid::Create(world.world_rect(), alpha);
    const int32_t frame = world.trace.num_frames() / 2;
    for (NodeId id = 0; id < world.num_nodes(); ++id) {
      grid->AddNode(world.trace.Position(frame, id),
                    world.trace.Speed(frame, id));
    }
    grid->AddQueries(world.queries);
    grids.push_back(*std::move(grid));
  }

  TablePrinter table({"l", "alpha=64", "alpha=128", "alpha=256",
                      "alpha=512"},
                     12);
  table.PrintHeader();
  for (int32_t l : ls) {
    std::vector<std::string> row = {TablePrinter::Num(l, 5)};
    for (size_t a = 0; a < alphas.size(); ++a) {
      if (l > alphas[a] * alphas[a]) {
        row.push_back("-");
        continue;
      }
      row.push_back(TablePrinter::Num(
          TimeAdaptationMs(grids[a], world.reduction, l, /*reps=*/5), 4));
    }
    table.PrintRow(row);
  }
  std::printf(
      "\npaper reference points (Java, 2.4 GHz P4, 2007): ~40 ms at "
      "(l=250, alpha=128); ~500 ms at (l=4000, alpha=512).\n"
      "shape check: cost should grow ~quadratically in alpha and mildly "
      "in l.\n");
  return 0;
}
