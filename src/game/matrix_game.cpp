#include "game/matrix_game.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace pg::game {

bool is_distribution(const MixedStrategy& p, double tol) {
  if (p.empty()) return false;
  double total = 0.0;
  for (double v : p) {
    if (v < -tol) return false;
    total += v;
  }
  return std::abs(total - 1.0) <= tol;
}

MixedStrategy normalize(MixedStrategy weights) {
  double total = 0.0;
  for (double w : weights) {
    PG_CHECK(w >= 0.0, "normalize: negative weight");
    total += w;
  }
  PG_CHECK(total > 0.0, "normalize: zero total weight");
  for (double& w : weights) w /= total;
  return weights;
}

MatrixGame::MatrixGame(la::Matrix payoff_to_row)
    : payoff_(std::move(payoff_to_row)) {
  PG_CHECK(!payoff_.empty(), "MatrixGame requires a non-empty payoff matrix");
}

double MatrixGame::payoff_at(std::size_t row, std::size_t col) const {
  return payoff_.at(row, col);
}

double MatrixGame::expected_payoff(const MixedStrategy& row_strategy,
                                   const MixedStrategy& col_strategy) const {
  PG_CHECK(row_strategy.size() == num_rows(),
           "expected_payoff: row strategy size mismatch");
  PG_CHECK(col_strategy.size() == num_cols(),
           "expected_payoff: col strategy size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < num_rows(); ++i) {
    if (row_strategy[i] == 0.0) continue;
    double inner = 0.0;
    for (std::size_t j = 0; j < num_cols(); ++j) {
      inner += payoff_(i, j) * col_strategy[j];
    }
    total += row_strategy[i] * inner;
  }
  return total;
}

std::vector<double> MatrixGame::row_payoffs(
    const MixedStrategy& col_strategy) const {
  PG_CHECK(col_strategy.size() == num_cols(),
           "row_payoffs: strategy size mismatch");
  return payoff_.matvec(col_strategy);
}

std::vector<double> MatrixGame::col_payoffs(
    const MixedStrategy& row_strategy) const {
  PG_CHECK(row_strategy.size() == num_rows(),
           "col_payoffs: strategy size mismatch");
  return payoff_.matvec_transposed(row_strategy);
}

double MatrixGame::maximin_value() const {
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < num_rows(); ++i) {
    double worst = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < num_cols(); ++j) {
      worst = std::min(worst, payoff_(i, j));
    }
    best = std::max(best, worst);
  }
  return best;
}

double MatrixGame::minimax_value() const {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < num_cols(); ++j) {
    double worst = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < num_rows(); ++i) {
      worst = std::max(worst, payoff_(i, j));
    }
    best = std::min(best, worst);
  }
  return best;
}

}  // namespace pg::game
