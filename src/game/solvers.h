// Equilibrium solvers for zero-sum matrix games.
//
// Three independent methods with different accuracy/cost trade-offs; the
// solver-ablation bench compares them on the discretized poisoning game:
//  * solve_lp_equilibrium      -- exact (simplex), the reference answer.
//  * solve_fictitious_play     -- Brown/Robinson iterative play; averages
//                                 converge to NE in zero-sum games.
//  * solve_multiplicative_weights -- Hedge self-play; O(sqrt(log K / T))
//                                 regret gives an approximate equilibrium.
//
// All three are plain serial loops. Each still takes a
// runtime::Executor* that it accepts and ignores, because the performance
// ledger's solve workload (perfledger/src/solve.cpp) passes one. The
// executor parallelizes payoff grids (core::PoisoningGame::discretize) and
// the sweeps, not the solvers.
#pragma once

#include <cstddef>
#include <vector>

#include "game/lp.h"
#include "game/matrix_game.h"

namespace pg::runtime {
class Executor;
}

namespace pg::game {

/// Exact equilibrium via one simplex solve of the shifted game.
/// See lp.h for the reduction; `lp` picks the pricing rule (Bland stays
/// the default for the anti-cycling guarantee). The executor is ignored.
[[nodiscard]] Equilibrium solve_lp_equilibrium(
    const MatrixGame& game, runtime::Executor* /*ignored*/ = nullptr,
    const LpConfig& lp = {});

/// One convergence measurement: the duality-gap estimate after
/// `iteration` steps (best-response payoff vs. the running average for
/// fictitious play; instantaneous exploitability spread for Hedge).
struct ConvergenceSample {
  std::size_t iteration = 0;
  double gap = 0.0;
};

/// Bounded-memory per-iteration gap recorder. push() keeps every
/// `stride`-th iteration; when the buffer reaches `max_samples` it drops
/// every other retained sample and doubles the stride, so memory stays
/// O(max_samples) for any iteration count while coverage stays uniform
/// from iteration 0 to the end. wants() lets callers skip the gap
/// computation itself on iterations that would not be recorded.
///
/// Telemetry is observation only: attaching a trace must not change the
/// solver trajectory, so solvers may only READ solver state to fill it.
struct ConvergenceTrace {
  std::size_t max_samples = 256;
  std::size_t stride = 1;
  std::vector<ConvergenceSample> samples;

  [[nodiscard]] bool wants(std::size_t iteration) const {
    return iteration % stride == 0;
  }
  void push(std::size_t iteration, double gap);
};

struct IterativeConfig {
  std::size_t iterations = 10000;
  /// Hedge learning rate; <= 0 means use the theory rate
  /// sqrt(8 ln K / T) per player.
  double learning_rate = 0.0;
  /// Optional convergence recorder (owned by the caller, may be null).
  /// Null skips all gap computation; the solve itself is identical
  /// either way.
  ConvergenceTrace* trace = nullptr;
};

/// Fictitious play: both players best-respond to the opponent's empirical
/// action frequencies; returns the averaged strategies. Best-response
/// ties go to the smallest index. The executor is ignored.
[[nodiscard]] Equilibrium solve_fictitious_play(
    const MatrixGame& game, const IterativeConfig& config = {},
    runtime::Executor* /*ignored*/ = nullptr);

/// Multiplicative-weights (Hedge) self-play; returns averaged strategies.
/// Both payoff products of each step run through
/// la::Matrix::matvec_transposed, the row half on a transposed copy of the
/// payoff matrix built once per call (bit-identical to game.row_payoffs).
/// The executor is ignored.
[[nodiscard]] Equilibrium solve_multiplicative_weights(
    const MatrixGame& game, const IterativeConfig& config = {},
    runtime::Executor* /*ignored*/ = nullptr);

}  // namespace pg::game
