// THROTLOOP ablation (paper Section 3.4 has no dedicated figure): the
// adaptive throttle fraction against a capacity-limited server.
//
// Two views:
//   1. Open-loop trace: the controller's z trajectory when the full load is
//      a fixed multiple of capacity (should converge to mu * rho* / lambda).
//   2. Closed-loop simulation: auto-throttle against several capacity
//      fractions; final z should land near the capacity fraction and keep
//      queue drops negligible after convergence.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "lira/core/throt_loop.h"

int main() {
  using namespace lira;
  std::printf("=== Ablation: THROTLOOP adaptive throttle fraction ===\n\n");

  std::printf("--- controller trace (lambda = z * 2000/s, mu = 1000/s, "
              "B = 500) ---\n");
  auto loop = ThrotLoop::Create(/*queue_capacity=*/500);
  TablePrinter trace({"step", "z", "implied rho"}, 14);
  trace.PrintHeader();
  for (int step = 0; step <= 8; ++step) {
    trace.PrintRow({TablePrinter::Num(step, 3),
                    TablePrinter::Num(loop->z(), 5),
                    TablePrinter::Num(loop->z() * 2000.0 / 1000.0, 5)});
    loop->Update(loop->z() * 2000.0, 1000.0);
  }
  std::printf("fixed point: z* = %.4f (target rho* = %.4f)\n\n",
              1000.0 * loop->TargetUtilization() / 2000.0,
              loop->TargetUtilization());

  std::printf("--- closed-loop simulation (LIRA policy, auto throttle) ---\n");
  World world = bench::MustBuildWorld();
  std::printf("full update rate %.1f upd/s\n", world.full_update_rate);
  const LiraPolicy lira(DefaultLiraConfig());
  TablePrinter table({"capacity/full", "final z", "E^C_rr", "dropped",
                      "upd fraction"},
                     14);
  table.PrintHeader();
  for (double capacity : {0.3, 0.5, 0.7, 0.9}) {
    SimulationConfig config = DefaultSimulationConfig();
    config.auto_throttle = true;
    config.service_rate_override = capacity * world.full_update_rate;
    auto result = RunSimulation(world, lira, config);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    table.PrintRow(
        {TablePrinter::Num(capacity, 3),
         TablePrinter::Num(result->final_z, 4),
         TablePrinter::Num(result->metrics.mean_containment_error, 4),
         TablePrinter::Num(static_cast<double>(result->updates_dropped), 6),
         TablePrinter::Num(result->measured_update_fraction, 4)});
  }
  std::printf(
      "\n(expected: final z tracks the capacity fraction; the realized "
      "update fraction follows it)\n");
  return 0;
}
