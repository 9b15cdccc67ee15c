// Finite two-player zero-sum matrix games.
//
// The continuous poisoning game of the paper is discretized onto a grid of
// attacker radii x defender filter strengths; the resulting MatrixGame is
// used to (a) verify Proposition 1 (no saddle point) and (b) cross-check
// Algorithm 1's output against an exact LP equilibrium (Proposition 2).
//
// Convention: entry (i, j) is the payoff to the ROW player (maximizer)
// when row i and column j are played; the column player minimizes.
#pragma once

#include <cstddef>
#include <vector>

#include "la/matrix.h"

namespace pg::game {

/// A mixed strategy: a probability vector over pure actions.
using MixedStrategy = std::vector<double>;

/// True if p is a valid distribution (non-negative, sums to 1 within tol).
[[nodiscard]] bool is_distribution(const MixedStrategy& p, double tol = 1e-9);

/// Project an arbitrary non-negative weight vector to a distribution.
/// Requires a positive total.
[[nodiscard]] MixedStrategy normalize(MixedStrategy weights);

class MatrixGame {
 public:
  /// Requires a non-empty payoff matrix.
  explicit MatrixGame(la::Matrix payoff_to_row);

  [[nodiscard]] std::size_t num_rows() const noexcept {
    return payoff_.rows();
  }
  [[nodiscard]] std::size_t num_cols() const noexcept {
    return payoff_.cols();
  }
  [[nodiscard]] const la::Matrix& payoff() const noexcept { return payoff_; }

  /// Payoff to the row player for a pure action pair.
  [[nodiscard]] double payoff_at(std::size_t row, std::size_t col) const;

  /// Expected payoff to the row player under mixed strategies (p, q).
  [[nodiscard]] double expected_payoff(const MixedStrategy& row_strategy,
                                       const MixedStrategy& col_strategy) const;

  /// Expected payoff of each pure row against the column mixture q
  /// (A q through la::Matrix::matvec; each entry sums j-ascending).
  [[nodiscard]] std::vector<double> row_payoffs(
      const MixedStrategy& col_strategy) const;

  /// Expected payoff of each pure column against the row mixture p
  /// (A^T p through la::Matrix::matvec_transposed; each entry sums
  /// i-ascending).
  [[nodiscard]] std::vector<double> col_payoffs(
      const MixedStrategy& row_strategy) const;

  /// max_i min_j and min_j max_i of the payoff matrix (pure security
  /// levels). A pure saddle point exists iff they are equal.
  [[nodiscard]] double maximin_value() const;
  [[nodiscard]] double minimax_value() const;

 private:
  la::Matrix payoff_;
};

/// Solution of a zero-sum game.
struct Equilibrium {
  MixedStrategy row_strategy;
  MixedStrategy col_strategy;
  double value = 0.0;  // game value (payoff to the row player)
  /// Work the solver actually did: simplex pivots for the LP solver, the
  /// configured iteration count for the iterative solvers. Telemetry
  /// only -- never part of the equilibrium comparison.
  std::size_t iterations = 0;
};

}  // namespace pg::game
