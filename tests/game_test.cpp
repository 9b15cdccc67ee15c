// Unit and property tests for pg::game -- matrix games, the simplex LP
// solver, iterative equilibrium solvers, best responses and saddle points,
// and the solvers' outputs pinned bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/game_model.h"
#include "core/payoff.h"
#include "game/best_response.h"
#include "game/lp.h"
#include "game/matrix_game.h"
#include "game/pure_ne.h"
#include "game/solvers.h"
#include "runtime/executor.h"
#include "util/rng.h"

namespace pg::game {
namespace {

MatrixGame rock_paper_scissors() {
  la::Matrix m(3, 3);
  const double v[3][3] = {{0, -1, 1}, {1, 0, -1}, {-1, 1, 0}};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) m(i, j) = v[i][j];
  return MatrixGame(std::move(m));
}

MatrixGame matching_pennies() {
  la::Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = -1;
  m(1, 0) = -1;
  m(1, 1) = 1;
  return MatrixGame(std::move(m));
}

MatrixGame saddle_game() {
  // Row 0 dominates; saddle at (0, 0) with value 2.
  la::Matrix m(2, 2);
  m(0, 0) = 2;
  m(0, 1) = 3;
  m(1, 0) = 1;
  m(1, 1) = 4;
  return MatrixGame(std::move(m));
}

/// 2x2 zero-sum game [[a, b], [c, d]] with no saddle has the closed-form
/// value (ad - bc) / (a + d - b - c).
double closed_form_2x2(double a, double b, double c, double d) {
  return (a * d - b * c) / (a + d - b - c);
}

// ------------------------------------------------------------ matrix_game

TEST(MatrixGameTest, ExpectedPayoffBilinear) {
  const MatrixGame g = matching_pennies();
  EXPECT_DOUBLE_EQ(g.expected_payoff({1.0, 0.0}, {1.0, 0.0}), 1.0);
  EXPECT_DOUBLE_EQ(g.expected_payoff({0.5, 0.5}, {0.5, 0.5}), 0.0);
}

TEST(MatrixGameTest, RowAndColPayoffVectors) {
  const MatrixGame g = saddle_game();
  EXPECT_EQ(g.row_payoffs({1.0, 0.0}), (std::vector<double>{2.0, 1.0}));
  EXPECT_EQ(g.col_payoffs({0.0, 1.0}), (std::vector<double>{1.0, 4.0}));
}

TEST(MatrixGameTest, MaximinMinimax) {
  const MatrixGame g = saddle_game();
  EXPECT_DOUBLE_EQ(g.maximin_value(), 2.0);
  EXPECT_DOUBLE_EQ(g.minimax_value(), 2.0);
  const MatrixGame mp = matching_pennies();
  EXPECT_DOUBLE_EQ(mp.maximin_value(), -1.0);
  EXPECT_DOUBLE_EQ(mp.minimax_value(), 1.0);
}

TEST(MatrixGameTest, StrategyValidation) {
  EXPECT_TRUE(is_distribution({0.5, 0.5}));
  EXPECT_FALSE(is_distribution({0.5, 0.6}));
  EXPECT_FALSE(is_distribution({-0.1, 1.1}));
  EXPECT_FALSE(is_distribution({}));
  EXPECT_EQ(normalize({2.0, 2.0}), (MixedStrategy{0.5, 0.5}));
  EXPECT_THROW((void)normalize({0.0, 0.0}), std::invalid_argument);
}

TEST(MatrixGameTest, SizeMismatchThrows) {
  const MatrixGame g = matching_pennies();
  EXPECT_THROW((void)g.expected_payoff({1.0}, {0.5, 0.5}),
               std::invalid_argument);
  EXPECT_THROW((void)g.row_payoffs({1.0, 0.0, 0.0}), std::invalid_argument);
}

// -------------------------------------------------------------------- lp

TEST(LpTest, SolvesTextbookProblem) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36.
  LpProblem p;
  p.a = la::Matrix(3, 2);
  p.a(0, 0) = 1;
  p.a(1, 1) = 2;
  p.a(2, 0) = 3;
  p.a(2, 1) = 2;
  p.b = {4, 12, 18};
  p.c = {3, 5};
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 6.0, 1e-9);
}

TEST(LpTest, DualPricesSatisfyStrongDuality) {
  LpProblem p;
  p.a = la::Matrix(3, 2);
  p.a(0, 0) = 1;
  p.a(1, 1) = 2;
  p.a(2, 0) = 3;
  p.a(2, 1) = 2;
  p.b = {4, 12, 18};
  p.c = {3, 5};
  const LpSolution s = solve_lp(p);
  double dual_obj = 0.0;
  for (std::size_t i = 0; i < p.b.size(); ++i) {
    EXPECT_GE(s.dual[i], -1e-9);
    dual_obj += s.dual[i] * p.b[i];
  }
  EXPECT_NEAR(dual_obj, s.objective, 1e-9);
}

TEST(LpTest, DetectsUnbounded) {
  LpProblem p;
  p.a = la::Matrix(1, 2);
  p.a(0, 0) = 1.0;  // y unconstrained above
  p.b = {1.0};
  p.c = {0.0, 1.0};
  EXPECT_EQ(solve_lp(p).status, LpStatus::kUnbounded);
}

TEST(LpTest, ZeroObjectiveIsOptimalAtOrigin) {
  LpProblem p;
  p.a = la::Matrix(1, 1);
  p.a(0, 0) = 1.0;
  p.b = {5.0};
  p.c = {-1.0};  // maximizing -x -> x = 0
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-12);
  EXPECT_NEAR(s.x[0], 0.0, 1e-12);
}

TEST(LpTest, RejectsNegativeRhs) {
  LpProblem p;
  p.a = la::Matrix(1, 1);
  p.a(0, 0) = 1.0;
  p.b = {-1.0};
  p.c = {1.0};
  EXPECT_THROW((void)solve_lp(p), std::invalid_argument);
}

TEST(LpTest, RejectsDimensionMismatch) {
  LpProblem p;
  p.a = la::Matrix(2, 2);
  p.b = {1.0};  // wrong size
  p.c = {1.0, 1.0};
  EXPECT_THROW((void)solve_lp(p), std::invalid_argument);
}

TEST(LpTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints (degenerate vertices): Bland's rule
  // must still terminate.
  LpProblem p;
  p.a = la::Matrix(4, 2);
  p.a(0, 0) = 1;
  p.a(1, 0) = 1;  // duplicate of constraint 0
  p.a(2, 1) = 1;
  p.a(3, 0) = 1;
  p.a(3, 1) = 1;
  p.b = {1, 1, 1, 1};
  p.c = {1, 1};
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-9);
}

// --------------------------------------------------------------- solvers

TEST(SolversTest, LpSolvesRps) {
  const auto eq = solve_lp_equilibrium(rock_paper_scissors());
  EXPECT_NEAR(eq.value, 0.0, 1e-9);
  for (double p : eq.row_strategy) EXPECT_NEAR(p, 1.0 / 3.0, 1e-6);
  for (double q : eq.col_strategy) EXPECT_NEAR(q, 1.0 / 3.0, 1e-6);
}

TEST(SolversTest, LpSolvesMatchingPennies) {
  const auto eq = solve_lp_equilibrium(matching_pennies());
  EXPECT_NEAR(eq.value, 0.0, 1e-9);
  EXPECT_NEAR(eq.row_strategy[0], 0.5, 1e-6);
  EXPECT_NEAR(eq.col_strategy[0], 0.5, 1e-6);
}

TEST(SolversTest, LpSolvesSaddleGame) {
  const auto eq = solve_lp_equilibrium(saddle_game());
  EXPECT_NEAR(eq.value, 2.0, 1e-9);
  EXPECT_NEAR(eq.row_strategy[0], 1.0, 1e-6);
  EXPECT_NEAR(eq.col_strategy[0], 1.0, 1e-6);
}

TEST(SolversTest, LpMatchesClosedForm2x2) {
  // Random-ish 2x2 games without saddle points.
  const double cases[][4] = {
      {3, -1, -2, 4}, {0, 2, 3, -1}, {5, 1, 2, 4}, {-1, 1, 2, -2}};
  for (const auto& c : cases) {
    la::Matrix m(2, 2);
    m(0, 0) = c[0];
    m(0, 1) = c[1];
    m(1, 0) = c[2];
    m(1, 1) = c[3];
    const MatrixGame g(std::move(m));
    if (has_pure_equilibrium(g)) continue;
    const auto eq = solve_lp_equilibrium(g);
    EXPECT_NEAR(eq.value, closed_form_2x2(c[0], c[1], c[2], c[3]), 1e-8);
  }
}

TEST(SolversTest, LpEquilibriumHasZeroExploitability) {
  const auto g = rock_paper_scissors();
  const auto eq = solve_lp_equilibrium(g);
  EXPECT_NEAR(exploitability(g, eq.row_strategy, eq.col_strategy), 0.0, 1e-9);
}

TEST(SolversTest, LpOnRandomGamesIsUnexploitable) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 2 + rng.uniform_index(6);
    const std::size_t n = 2 + rng.uniform_index(6);
    la::Matrix a(m, n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a(i, j) = rng.uniform(-5.0, 5.0);
      }
    }
    const MatrixGame g(std::move(a));
    const auto eq = solve_lp_equilibrium(g);
    EXPECT_NEAR(exploitability(g, eq.row_strategy, eq.col_strategy), 0.0,
                1e-7)
        << "trial " << trial;
    // Value sandwiched between the pure security levels.
    EXPECT_GE(eq.value, g.maximin_value() - 1e-9);
    EXPECT_LE(eq.value, g.minimax_value() + 1e-9);
  }
}

TEST(SolversTest, FictitiousPlayConvergesOnRps) {
  const auto g = rock_paper_scissors();
  const auto eq = solve_fictitious_play(g, {.iterations = 50000});
  EXPECT_LT(exploitability(g, eq.row_strategy, eq.col_strategy), 0.02);
  for (double p : eq.row_strategy) EXPECT_NEAR(p, 1.0 / 3.0, 0.05);
}

TEST(SolversTest, MultiplicativeWeightsConvergesOnRps) {
  const auto g = rock_paper_scissors();
  const auto eq = solve_multiplicative_weights(g, {.iterations = 50000});
  EXPECT_LT(exploitability(g, eq.row_strategy, eq.col_strategy), 0.02);
}

TEST(SolversTest, IterativeSolversAgreeWithLpValue) {
  la::Matrix m(3, 4);
  const double v[3][4] = {
      {2, -1, 3, 0}, {-2, 4, -1, 1}, {1, 1, -2, 3}};
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 4; ++j) m(i, j) = v[i][j];
  const MatrixGame g(std::move(m));
  const double exact = solve_lp_equilibrium(g).value;
  const auto fp = solve_fictitious_play(g, {.iterations = 200000});
  const auto mw = solve_multiplicative_weights(g, {.iterations = 100000});
  EXPECT_NEAR(fp.value, exact, 0.02);
  EXPECT_NEAR(mw.value, exact, 0.02);
}

TEST(SolversTest, IterativeConfigValidation) {
  const auto g = matching_pennies();
  EXPECT_THROW((void)solve_fictitious_play(g, {.iterations = 0}),
               std::invalid_argument);
  EXPECT_THROW((void)solve_multiplicative_weights(g, {.iterations = 0}),
               std::invalid_argument);
}

// ----------------------------------------- executor argument is ignored

MatrixGame random_game(std::size_t m, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-5.0, 5.0);
    }
  }
  return MatrixGame(std::move(a));
}

/// Thread counts the bit-identity contract is asserted at: one worker,
/// a fixed small pool, and whatever this machine offers.
std::vector<std::size_t> contract_thread_counts() {
  return {1, 4, runtime::default_thread_count()};
}

TEST(ParallelSolverTest, LpEquilibriumBitIdenticalAcrossThreadCounts) {
  // The solvers ignore their executor argument; these tests pin that
  // passing one (as the performance ledger does) changes nothing.
  const MatrixGame g = random_game(96, 80, 7);
  const auto serial = solve_lp_equilibrium(g);
  for (std::size_t threads : contract_thread_counts()) {
    runtime::ThreadPoolExecutor exec(threads);
    const auto parallel = solve_lp_equilibrium(g, &exec);
    // EXPECT_EQ, not NEAR: the contract is bit-identity.
    EXPECT_EQ(parallel.value, serial.value) << threads << " threads";
    EXPECT_EQ(parallel.row_strategy, serial.row_strategy);
    EXPECT_EQ(parallel.col_strategy, serial.col_strategy);
  }
}

TEST(ParallelSolverTest, FictitiousPlayBitIdenticalAcrossThreadCounts) {
  const MatrixGame g = random_game(64, 48, 9);
  const auto serial = solve_fictitious_play(g, {.iterations = 5000});
  for (std::size_t threads : contract_thread_counts()) {
    runtime::ThreadPoolExecutor exec(threads);
    const auto parallel = solve_fictitious_play(g, {.iterations = 5000}, &exec);
    EXPECT_EQ(parallel.value, serial.value) << threads << " threads";
    EXPECT_EQ(parallel.row_strategy, serial.row_strategy);
    EXPECT_EQ(parallel.col_strategy, serial.col_strategy);
  }
}

TEST(ParallelSolverTest, MultiplicativeWeightsBitIdenticalAcrossThreadCounts) {
  const MatrixGame g = random_game(40, 56, 11);
  const auto serial = solve_multiplicative_weights(g, {.iterations = 2000});
  for (std::size_t threads : contract_thread_counts()) {
    runtime::ThreadPoolExecutor exec(threads);
    const auto parallel =
        solve_multiplicative_weights(g, {.iterations = 2000}, &exec);
    EXPECT_EQ(parallel.value, serial.value) << threads << " threads";
    EXPECT_EQ(parallel.row_strategy, serial.row_strategy);
    EXPECT_EQ(parallel.col_strategy, serial.col_strategy);
  }
}

// ------------------------------------------ serial solvers, pinned bits
// Full outputs of the LP, FP and MW solves below as hex floats, captured
// from the parallel solvers the serial loops replaced (FP and MW at 2,000
// iterations). The 37x53 game has a row count that is not a multiple of
// the 4-row matvec block; the paper game is the analytic one at 256.

struct SolverBits {
  double value;
  std::size_t iterations;
  std::vector<double> row;
  std::vector<double> col;
};

const SolverBits kRandomLp{
    0x1.6d3474566868p-4, 277,
     {0, 0x1.b420340bbfaa2p-6, 0, 0x1.d95d26824f422p-10,
      0x1.cd4367d737569p-8, 0x1.1ba7624522235p-5, 0, 0x1.d43461c2d256ap-5,
      0x1.1fd25298797ffp-4, 0x1.1a6d60f73baf9p-6, 0x1.5d99e9f7df8a2p-6, 0,
      0x1.767d82e6c23d4p-4, 0x1.0a1ccd03b0124p-3, 0, 0x1.a19cfa9036e9p-6, 0,
      0x1.404ea1cdecf33p-5, 0x1.34c3a837f64a6p-5, 0x1.85eca9c1fa44ap-4, 0,
      0x1.97bf0c20643f7p-4, 0x1.540842018160bp-4, 0, 0, 0x1.6fac7884d800cp-5,
      0, 0, 0x1.358bee5f7f542p-6, 0x1.b9b2514dad5cap-5, 0x1.6f1ccf2669696p-5,
      0, 0, 0, 0, 0, 0},
     {0, 0, 0, 0, 0x1.1658f7ebd5341p-5, 0, 0, 0x1.17ced46b7f892p-4,
      0x1.c2f28a7ddc991p-6, 0x1.3dc9f763687aep-4, 0, 0, 0x1.4fe430d3b9651p-5,
      0x1.6eba362dd97afp-4, 0x1.ec498adf86d11p-9, 0, 0x1.e96c839a30712p-6,
      0x1.95e3faf68795ep-4, 0, 0, 0, 0x1.81e5c6b0737f3p-5, 0,
      0x1.b71816922ed8p-6, 0, 0, 0, 0x1.4b8970292065fp-4, 0, 0, 0, 0, 0, 0,
      0, 0x1.294d6e57158f7p-8, 0, 0, 0, 0x1.9c4c957beb77cp-6, 0,
      0x1.f66b12406cdep-5, 0x1.6a73c5e69a7acp-7, 0x1.6e8219f986569p-4,
      0x1.643752c21ce4fp-5, 0x1.f0278be4341d4p-4, 0, 0, 0x1.2bf2e1272db8p-6,
      0, 0, 0, 0}};

const SolverBits kRandomFp{
    0x1.d7a8a8fd2d334p-4, 2000,
     {0x1.0624dd2f1a9fcp-11, 0x1.604189374bc6ap-6, 0, 0x1.89374bc6a7efap-7,
      0x1.6872b020c49bap-8, 0x1.5c28f5c28f5c3p-5, 0x1.0624dd2f1a9fcp-11,
      0x1.3333333333333p-5, 0x1.cac083126e979p-5, 0x1.0624dd2f1a9fcp-6,
      0x1.0e5604189374cp-6, 0, 0x1.6e978d4fdf3b6p-4, 0x1.21cac083126e9p-3, 0,
      0x1.810624dd2f1aap-6, 0, 0x1.d2f1a9fbe76c9p-5, 0x1.fbe76c8b43958p-6,
      0x1.ccccccccccccdp-4, 0x1.26e978d4fdf3bp-8, 0x1.eb851eb851eb8p-4,
      0x1.4bc6a7ef9db23p-4, 0, 0x1.0624dd2f1a9fcp-10, 0x1.ae147ae147ae1p-5,
      0, 0, 0x1.78d4fdf3b645ap-7, 0x1.0a3d70a3d70a4p-5, 0x1.eb851eb851eb8p-6,
      0, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0, 0,
      0x1.89374bc6a7efap-10},
     {0x1.0624dd2f1a9fcp-11, 0x1.89374bc6a7efap-10, 0, 0,
      0x1.eb851eb851eb8p-7, 0x1.53f7ced916873p-5, 0, 0x1.5e353f7ced917p-4,
      0x1.395810624dd2fp-4, 0x1.2b020c49ba5e3p-5, 0x1.0624dd2f1a9fcp-10,
      0x1.cac083126e979p-9, 0x1.5810624dd2f1bp-6, 0x1.8b4395810624ep-4,
      0x1.0624dd2f1a9fcp-8, 0x1.26e978d4fdf3bp-7, 0x1.89374bc6a7efap-6,
      0x1.4fdf3b645a1cbp-4, 0x1.6872b020c49bap-7, 0, 0, 0x1.3333333333333p-5,
      0, 0x1.89374bc6a7efap-9, 0, 0x1.0624dd2f1a9fcp-11, 0,
      0x1.16872b020c49cp-4, 0, 0, 0, 0, 0, 0x1.89374bc6a7efap-10, 0,
      0x1.e353f7ced9168p-6, 0, 0x1.0624dd2f1a9fcp-11, 0,
      0x1.22d0e56041893p-5, 0, 0x1.a9fbe76c8b439p-6, 0x1.e353f7ced9168p-6,
      0x1.0e5604189374cp-4, 0x1.8d4fdf3b645a2p-5, 0x1.6c8b439581062p-4, 0, 0,
      0x1.cac083126e979p-8, 0, 0, 0x1.916872b020c4ap-6, 0x1.916872b020c4ap-6}};

const SolverBits kRandomMw{
    0x1.bbe06335502e2p-4, 2000,
     {0x1.ca68aa380d601p-10, 0x1.2a996ec8f2564p-6, 0x1.9af9ba33972d2p-10,
      0x1.a4a49ca450c77p-7, 0x1.2da96ea59b97dp-9, 0x1.3047c77b5cfd8p-5,
      0x1.5f7acfa2de994p-10, 0x1.0b0643acc0725p-4, 0x1.267c73b78044ep-4,
      0x1.b1845af8f76e5p-6, 0x1.5044f331871cfp-9, 0x1.ac8ce496b7224p-10,
      0x1.618ea38d83d46p-4, 0x1.f6e14103ed5e2p-4, 0x1.1a9903d95decfp-8,
      0x1.86dc1835b26a9p-6, 0x1.41acbbaac425bp-8, 0x1.c5e007422bf67p-5,
      0x1.c2d67cb711e52p-6, 0x1.4e06737331badp-4, 0x1.a7d4972d0e56bp-10,
      0x1.a5163b70c7f6cp-4, 0x1.5a69806048d8cp-4, 0x1.1c6fc470dce35p-9,
      0x1.12e62e98dbc95p-9, 0x1.49bde3463504fp-5, 0x1.5410b415d6d78p-10,
      0x1.d3fc0bd2aa6c2p-10, 0x1.6d658e7ed5392p-7, 0x1.954718d59c069p-5,
      0x1.22c3107e0ef73p-5, 0x1.65faeeabb2d55p-9, 0x1.f3ae54fb872b3p-10,
      0x1.0664727a387dap-7, 0x1.a3f5b07717d2ep-10, 0x1.6f98ac7d1dc6bp-10,
      0x1.119ca3f5e1d78p-9},
     {0x1.cdf905d15fd3bp-10, 0x1.eb7e5b7bc2dd2p-9, 0x1.3740fea45cbaap-10,
      0x1.6046e410f9ed6p-10, 0x1.ae629dbcfc019p-6, 0x1.f4ff178d69f21p-8,
      0x1.48fdb3fb505a2p-10, 0x1.74dea0248a91bp-4, 0x1.672e53c8917b8p-5,
      0x1.18282cc8d6146p-4, 0x1.5648b451d4b5ap-9, 0x1.81ae9fd58dea6p-10,
      0x1.51a9b0bfa8296p-5, 0x1.4a76815010ca1p-4, 0x1.7c4422f64b80cp-8,
      0x1.2c55c0cdae96ap-8, 0x1.0361967c00232p-5, 0x1.120656f1231bp-4,
      0x1.0338490481667p-8, 0x1.23b6552fffe3bp-10, 0x1.2d1d9e69b5989p-10,
      0x1.109f0bf51661ap-6, 0x1.43021547a356ap-9, 0x1.8f979196d02c7p-7,
      0x1.6545802fb1ee3p-9, 0x1.97e7482cf9dep-10, 0x1.4ec3dd4d1be53p-11,
      0x1.1d51c2d8cce5dp-4, 0x1.4bc7e7820b366p-10, 0x1.97859965c66c9p-10,
      0x1.94a6b7f623325p-11, 0x1.da50c5897562dp-10, 0x1.7460e1b89591fp-10,
      0x1.66791417ecc9ap-10, 0x1.45f47ff7dda1dp-10, 0x1.8e8735dbd27aap-6,
      0x1.4998a802fececp-10, 0x1.a7695b476bc47p-10, 0x1.cd7957759692ap-11,
      0x1.da2083fe7b375p-6, 0x1.768b7e1687b92p-10, 0x1.b8ae3814e32dbp-5,
      0x1.07f9cdce93cbdp-5, 0x1.00c45f8c5e352p-4, 0x1.cea012193b279p-6,
      0x1.d3855029f63ddp-4, 0x1.08543a2304a6ap-10, 0x1.cfccf4b73c31cp-10,
      0x1.0a25efa896d96p-6, 0x1.8100ab4fa5a35p-10, 0x1.7faf61346c62fp-9,
      0x1.43c6c94d9058bp-8, 0x1.3a20048431398p-6}};

const SolverBits kPaperFp{
    0x1.730f5b0b3f4d8p-6, 2000,
     {0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.89374bc6a7efap-10,
      0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10,
      0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10,
      0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10,
      0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10,
      0x1.89374bc6a7efap-10, 0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9,
      0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9,
      0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9,
      0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9, 0x1.47ae147ae147bp-9,
      0x1.47ae147ae147bp-9, 0x1.47ae147ae147bp-9, 0x1.47ae147ae147bp-9,
      0x1.47ae147ae147bp-9, 0x1.47ae147ae147bp-9, 0x1.89374bc6a7efap-9,
      0x1.89374bc6a7efap-9, 0x1.89374bc6a7efap-9, 0x1.89374bc6a7efap-9,
      0x1.89374bc6a7efap-9, 0x1.89374bc6a7efap-9, 0x1.cac083126e979p-9,
      0x1.cac083126e979p-9, 0x1.cac083126e979p-9, 0x1.cac083126e979p-9,
      0x1.cac083126e979p-9, 0x1.0624dd2f1a9fcp-8, 0x1.0624dd2f1a9fcp-8,
      0x1.26e978d4fdf3bp-8, 0x1.26e978d4fdf3bp-8, 0x1.47ae147ae147bp-8,
      0x1.47ae147ae147bp-8, 0x1.47ae147ae147bp-8, 0x1.6872b020c49bap-8,
      0x1.6872b020c49bap-8, 0x1.6872b020c49bap-8, 0x1.89374bc6a7efap-8,
      0x1.89374bc6a7efap-8, 0x1.cac083126e979p-8, 0x1.cac083126e979p-8,
      0x1.eb851eb851eb8p-8, 0x1.eb851eb851eb8p-8, 0x1.eb851eb851eb8p-8,
      0x1.16872b020c49cp-7, 0x1.16872b020c49cp-7, 0x1.26e978d4fdf3bp-7,
      0x1.374bc6a7ef9dbp-7, 0x1.47ae147ae147bp-7, 0x1.5810624dd2f1bp-7,
      0x1.6872b020c49bap-7, 0x1.89374bc6a7efap-7, 0x1.89374bc6a7efap-7,
      0x1.999999999999ap-7, 0x1.cac083126e979p-7, 0x1.cac083126e979p-7,
      0x1.fbe76c8b43958p-7, 0x1.0624dd2f1a9fcp-6, 0x1.16872b020c49cp-6,
      0x1.26e978d4fdf3bp-6, 0x1.374bc6a7ef9dbp-6, 0x1.4fdf3b645a1cbp-6,
      0x1.604189374bc6ap-6, 0x1.78d4fdf3b645ap-6, 0x1.916872b020c4ap-6,
      0x1.a1cac083126e9p-6, 0x1.c28f5c28f5c29p-6, 0x1.e353f7ced9168p-6,
      0x1.020c49ba5e354p-5, 0x1.126e978d4fdf4p-5, 0x1.22d0e56041893p-5,
      0x1.3b645a1cac083p-5, 0x1.53f7ced916873p-5, 0x1.6872b020c49bap-5,
      0x1.89374bc6a7efap-5, 0x1.a1cac083126e9p-5, 0x1.cac083126e979p-5,
      0x1.47ae147ae147bp-6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0},
     {0x1.0624dd2f1a9fcp-11, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10, 0x1.0624dd2f1a9fcp-10,
      0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10,
      0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10,
      0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10,
      0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10,
      0x1.89374bc6a7efap-10, 0x1.89374bc6a7efap-10, 0x1.0624dd2f1a9fcp-9,
      0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9,
      0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9,
      0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9, 0x1.0624dd2f1a9fcp-9,
      0x1.47ae147ae147bp-9, 0x1.47ae147ae147bp-9, 0x1.47ae147ae147bp-9,
      0x1.47ae147ae147bp-9, 0x1.47ae147ae147bp-9, 0x1.47ae147ae147bp-9,
      0x1.89374bc6a7efap-9, 0x1.89374bc6a7efap-9, 0x1.89374bc6a7efap-9,
      0x1.89374bc6a7efap-9, 0x1.89374bc6a7efap-9, 0x1.89374bc6a7efap-9,
      0x1.cac083126e979p-9, 0x1.cac083126e979p-9, 0x1.cac083126e979p-9,
      0x1.cac083126e979p-9, 0x1.cac083126e979p-9, 0x1.0624dd2f1a9fcp-8,
      0x1.26e978d4fdf3bp-8, 0x1.26e978d4fdf3bp-8, 0x1.26e978d4fdf3bp-8,
      0x1.47ae147ae147bp-8, 0x1.47ae147ae147bp-8, 0x1.47ae147ae147bp-8,
      0x1.6872b020c49bap-8, 0x1.6872b020c49bap-8, 0x1.6872b020c49bap-8,
      0x1.89374bc6a7efap-8, 0x1.a9fbe76c8b439p-8, 0x1.cac083126e979p-8,
      0x1.cac083126e979p-8, 0x1.eb851eb851eb8p-8, 0x1.eb851eb851eb8p-8,
      0x1.0624dd2f1a9fcp-7, 0x1.16872b020c49cp-7, 0x1.16872b020c49cp-7,
      0x1.26e978d4fdf3bp-7, 0x1.47ae147ae147bp-7, 0x1.47ae147ae147bp-7,
      0x1.5810624dd2f1bp-7, 0x1.78d4fdf3b645ap-7, 0x1.89374bc6a7efap-7,
      0x1.89374bc6a7efap-7, 0x1.a9fbe76c8b439p-7, 0x1.cac083126e979p-7,
      0x1.db22d0e560419p-7, 0x1.0624dd2f1a9fcp-6, 0x1.0624dd2f1a9fcp-6,
      0x1.1eb851eb851ecp-6, 0x1.2f1a9fbe76c8bp-6, 0x1.3f7ced916872bp-6,
      0x1.5810624dd2f1bp-6, 0x1.6872b020c49bap-6, 0x1.810624dd2f1aap-6,
      0x1.999999999999ap-6, 0x1.a9fbe76c8b439p-6, 0x1.d2f1a9fbe76c9p-6,
      0x1.f3b645a1cac08p-6, 0x1.0624dd2f1a9fcp-5, 0x1.1eb851eb851ecp-5,
      0x1.2b020c49ba5e3p-5, 0x1.4395810624dd3p-5, 0x1.604189374bc6ap-5,
      0x1.74bc6a7ef9db2p-5, 0x1.999999999999ap-5, 0x1.b22d0e5604189p-5,
      0x1.be76c8b439581p-5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
      0, 0, 0, 0, 0}};

const SolverBits kPaperMw{
    0x1.734fe9852ae0dp-6, 2000,
     {0x1.956a9f528e4f1p-12, 0x1.a58396efc052ap-12, 0x1.b61fe9bfe7d2ap-12,
      0x1.c74366aa64e06p-12, 0x1.d8f1dda60c68bp-12, 0x1.eb240be6294e2p-12,
      0x1.fdef31fa01342p-12, 0x1.08a196f0c7ff5p-11, 0x1.1293fb7bca1bap-11,
      0x1.1cd6b1944f96ap-11, 0x1.275c7c4ad1abep-11, 0x1.323b0f53f7a82p-11,
      0x1.3d6404a0afbp-11, 0x1.48d8ad719323fp-11, 0x1.54aee523f1149p-11,
      0x1.60c906a408a46p-11, 0x1.6d48eebd4153bp-11, 0x1.7a1e046f98f96p-11,
      0x1.873ee3673415ep-11, 0x1.94dc51fbbb7bap-11, 0x1.a2be4c4c798b6p-11,
      0x1.b1132a37538aap-11, 0x1.bfd0065aa5172p-11, 0x1.ced3c2697bc7cp-11,
      0x1.de7dac9215e97p-11, 0x1.ee6d22f9a1438p-11, 0x1.fedbe63d59273p-11,
      0x1.07e90d93aacadp-10, 0x1.108537656eb4bp-10, 0x1.198c569f1db89p-10,
      0x1.22bb3dc03d0dap-10, 0x1.2c2f0502d740bp-10, 0x1.35ffd927872f4p-10,
      0x1.3ff2b1856952p-10, 0x1.4a6628920157dp-10, 0x1.5510a35810d03p-10,
      0x1.60033b1ec4fcbp-10, 0x1.6b7a82adb92f3p-10, 0x1.7716372604007p-10,
      0x1.834b60490d8c6p-10, 0x1.8fd2a6b9521efp-10, 0x1.9ca19eff711d4p-10,
      0x1.aa3215559ff4dp-10, 0x1.b7ebba170cdc5p-10, 0x1.c65ae0b03586ap-10,
      0x1.d5496952c151ap-10, 0x1.e478bd58ec406p-10, 0x1.f4c5ca211cb61p-10,
      0x1.02a2281492c12p-9, 0x1.0b4b99b79d372p-9, 0x1.14593ec062e0cp-9,
      0x1.1d7e27841e26ep-9, 0x1.27779a6eeab0fp-9, 0x1.31907ddb22a68p-9,
      0x1.3c23a9b93eea5p-9, 0x1.4754e1be103ffp-9, 0x1.52a3f3546966fp-9,
      0x1.5efd748aae587p-9, 0x1.6b9ac6f03083fp-9, 0x1.78c147a3a9edap-9,
      0x1.86e0e96a73033p-9, 0x1.95283b1c3faa5p-9, 0x1.a4bd4b98b8896p-9,
      0x1.b4d4b7ec82f5fp-9, 0x1.c57eab6123af8p-9, 0x1.d7b15f0bf5f55p-9,
      0x1.ea198bb9377b3p-9, 0x1.fe2263f8e2a22p-9, 0x1.098b634cd49bfp-8,
      0x1.144c025685563p-8, 0x1.20430af9a06e5p-8, 0x1.2c5dc1f355389p-8,
      0x1.397a328c616fdp-8, 0x1.47643ffa5e6dfp-8, 0x1.5580798688866p-8,
      0x1.658a3c262421p-8, 0x1.75c1fd9e22acfp-8, 0x1.8732111bed69dp-8,
      0x1.9a02e1908a2fcp-8, 0x1.acefa7c5c0729p-8, 0x1.c2aca889e39fbp-8,
      0x1.d8c5427d39d65p-8, 0x1.f048652cfafd4p-8, 0x1.05127622158d1p-7,
      0x1.120aad8a18266p-7, 0x1.20e15914f0c5ep-7, 0x1.3027fd3c05dfbp-7,
      0x1.402de54a05035p-7, 0x1.5234bb5a1f1fcp-7, 0x1.6434716b89139p-7,
      0x1.78a874986dfa9p-7, 0x1.8e05f1146940ap-7, 0x1.a3fb61d8818f9p-7,
      0x1.bd5af9c238676p-7, 0x1.d67b7a41a1e91p-7, 0x1.f2b1b050a0e14p-7,
      0x1.084e800035654p-6, 0x1.17313762e87fep-6, 0x1.28eadb40fbf04p-6,
      0x1.3a206d50b26c8p-6, 0x1.4cf22da37f8bap-6, 0x1.610d700718997p-6,
      0x1.73baa24b46826p-6, 0x1.8a922d8563aa5p-6, 0x1.9f438f63a1ddp-6,
      0x1.b407d63815dbp-6, 0x1.c93858304977dp-6, 0x1.d91e08f4c8623p-6,
      0x1.ea7c7f8fb34fap-6, 0x1.f47c68b63a22bp-6, 0x1.f7803c6a53f69p-6,
      0x1.f52711bf62a2fp-6, 0x1.e4c843ef6b663p-6, 0x1.ce65d1ec8e3a9p-6,
      0x1.abf5005f75e58p-6, 0x1.8007707e43ca8p-6, 0x1.523fef76eb2ep-6,
      0x1.1fd06aab2aa5dp-6, 0x1.e2cde634ed513p-7, 0x1.8d74624761fc8p-7,
      0x1.41c853eae63aap-7, 0x1.05ae99e62315p-7, 0x1.a5ce219f149e1p-8,
      0x1.569d77b370563p-8, 0x1.185351a478db3p-8, 0x1.cc71144452294p-9,
      0x1.82193e8c3a048p-9, 0x1.45d312e0402p-9, 0x1.16ffd6a8fc67fp-9,
      0x1.e4bce2cfcc78p-10, 0x1.a881da84ced8fp-10, 0x1.7a829b202a05ep-10,
      0x1.5411be919484cp-10, 0x1.34b18300be321p-10, 0x1.1b4b663859723p-10,
      0x1.0568539c33c5fp-10, 0x1.e786a2dbf40fep-11, 0x1.c8eea0b4d514bp-11,
      0x1.ae9266717cde6p-11, 0x1.988223c45eaf3p-11, 0x1.84a6d3aef43e3p-11,
      0x1.73dce9750ecd3p-11, 0x1.64e4b58ff90ap-11, 0x1.57671fc5375a9p-11,
      0x1.4bdc3ba13bca4p-11, 0x1.4121d09a9b4fap-11, 0x1.37b8b92fe19adp-11,
      0x1.2f31468d3979ep-11, 0x1.273c3357b7773p-11, 0x1.205ab088472a3p-11,
      0x1.19d0cc3633e77p-11, 0x1.13eaebb2392bp-11, 0x1.0e8934398af89p-11,
      0x1.0960896e0f3ep-11, 0x1.04e84a97aa5d9p-11, 0x1.00987d0c8d3afp-11,
      0x1.f93d4868be816p-12, 0x1.f1fc1fa32bcf2p-12, 0x1.eaf1f80e19454p-12,
      0x1.e4bcfa7f01d99p-12, 0x1.dec2143733967p-12, 0x1.d92405a4a30d4p-12,
      0x1.d40aea74c9955p-12, 0x1.cf0d8c31cbfe6p-12, 0x1.ca967ae432a78p-12,
      0x1.c64f095b5dc14p-12, 0x1.c238e0cd07bd3p-12, 0x1.be8c11d628d21p-12,
      0x1.baed8b6a445ccp-12, 0x1.b7a55d8c0d691p-12, 0x1.b4871095e230cp-12,
      0x1.b180b606bc903p-12, 0x1.aed0f844ffd5cp-12, 0x1.ac289418e7345p-12,
      0x1.a9b7d5273bf93p-12, 0x1.a76cfe39b59bbp-12, 0x1.a52af432abcdp-12,
      0x1.a331860760dc8p-12, 0x1.a13bca0f566a1p-12, 0x1.9f6962caba678p-12,
      0x1.9db97cbfbc2dap-12, 0x1.9c0c29ef599a1p-12, 0x1.9a9687fa742bbp-12,
      0x1.99257ae5bb223p-12, 0x1.97ca15b4abe8bp-12, 0x1.968ddfd9ed9bp-12,
      0x1.9552d989ab806p-12, 0x1.943e50ddb08c7p-12, 0x1.933129324d531p-12,
      0x1.92306f9103333p-12, 0x1.914b7be8af9c6p-12, 0x1.906701ff3e73fp-12,
      0x1.8f9ca6086b2afp-12, 0x1.8edb211016e77p-12, 0x1.8e1fe683c186ap-12,
      0x1.8d7ceb1c23d44p-12, 0x1.8cda122b07c0fp-12, 0x1.8c48748907feap-12,
      0x1.8bc01a1b2cb6ap-12, 0x1.8b3a1724abac1p-12, 0x1.8ac8bc4baf205p-12,
      0x1.8a575ec2eb8e7p-12, 0x1.89f0ee2bd6814p-12, 0x1.8993664df3d3cp-12,
      0x1.8935d4389e69ep-12, 0x1.88e959fd25fe5p-12, 0x1.889cd11ec66e7p-12,
      0x1.8856d50e4fffbp-12, 0x1.8818dc0829362p-12, 0x1.87dad392286abp-12,
      0x1.87a7f5f603fc1p-12, 0x1.87764884fb3b2p-12, 0x1.87483a1c648b8p-12,
      0x1.8720f2a94f0c4p-12, 0x1.86f99dc90afbcp-12, 0x1.86d93ff3f8406p-12,
      0x1.86ba9770dda6ap-12, 0x1.869db29319e8bp-12, 0x1.8686307b86bd8p-12,
      0x1.866ea50835d99p-12, 0x1.865b304431831p-12, 0x1.86497858db4bfp-12,
      0x1.86386e959e3d9p-12, 0x1.862b62b139af3p-12, 0x1.861e513b096fbp-12,
      0x1.8613768f1a3cbp-12, 0x1.860a150aa09a5p-12, 0x1.8600d44dc1297p-12,
      0x1.85fa4b8b1f61ep-12, 0x1.85f3bfef64ddp-12, 0x1.85ee46f114c12p-12,
      0x1.85e9e13b71793p-12, 0x1.85e579a02393ap-12, 0x1.85e291c000525p-12,
      0x1.85dfbcef2ad88p-12, 0x1.85dd594ffa871p-12, 0x1.85dba0698310bp-12,
      0x1.85d9e6c8c18bep-12, 0x1.85d8d0108bcbcp-12, 0x1.85d7d5c9ff98ep-12,
      0x1.85d6ffab02ed4p-12, 0x1.85d67e92d236ep-12, 0x1.85d5fd4606412p-12,
      0x1.85d5b11a904eap-12, 0x1.85d5769b3b2e7p-12, 0x1.85d543644cc53p-12,
      0x1.85d52d9d4f6fdp-12, 0x1.85d517cdd42c9p-12, 0x1.85d50c54f3f19p-12,
      0x1.85d5066e5dfe5p-12, 0x1.85d50106b9ab5p-12, 0x1.85d5002880328p-12,
      0x1.85d4ff49f3f23p-12, 0x1.85d4fee1c0e5fp-12, 0x1.85d4feda910d1p-12,
      0x1.85d4fed35e989p-12},
     {0x1.382d7cf7efba2p-11, 0x1.4940595977144p-11, 0x1.5bf2e43314c87p-11,
      0x1.6c7fa54f1d906p-11, 0x1.7989ab18ba345p-11, 0x1.87bde2a9791e8p-11,
      0x1.920abc83ffdfap-11, 0x1.9cc64e34a1b0ap-11, 0x1.a6ee15e0cefb9p-11,
      0x1.af0ed5aacca2ep-11, 0x1.b826376c2ab67p-11, 0x1.bf0298acf14ffp-11,
      0x1.c605a5efcb5e5p-11, 0x1.cd1b6f996a242p-11, 0x1.d27b31f88a401p-11,
      0x1.d8d50c08ccc7ap-11, 0x1.dde94070de79fp-11, 0x1.e306d0cc58461p-11,
      0x1.e8b4660e2169cp-11, 0x1.ece9be145daep-11, 0x1.f22af3d870202p-11,
      0x1.f6db90cd81517p-11, 0x1.fb8e832d0eaacp-11, 0x1.009ad5133a433p-10,
      0x1.02d007de82958p-10, 0x1.05979004aa69fp-10, 0x1.085efbfe8efccp-10,
      0x1.0b2c5e58a1e5p-10, 0x1.0e915a9e36ccfp-10, 0x1.1191ebc29a18bp-10,
      0x1.152766059e5e3p-10, 0x1.18fa5410e2fa9p-10, 0x1.1cdfc2cd92af1p-10,
      0x1.21704716bc31p-10, 0x1.25e935d82a117p-10, 0x1.2af6ed9ce9b2fp-10,
      0x1.307b37f35bd61p-10, 0x1.3626666c0a834p-10, 0x1.3c97f585fb5d7p-10,
      0x1.4338967b13076p-10, 0x1.4a7af4b426471p-10, 0x1.526e452d45ecap-10,
      0x1.5aa4e4f280d0ap-10, 0x1.63c7d62dde705p-10, 0x1.6d603b645c327p-10,
      0x1.77b480919f5e8p-10, 0x1.82fb2a040edc4p-10, 0x1.8ea9a45e51351p-10,
      0x1.9b78872b679c7p-10, 0x1.a908f624a5ba8p-10, 0x1.b77d00ae78721p-10,
      0x1.c73297526fc4dp-10, 0x1.d77c73df361c5p-10, 0x1.e92d9bb4dc51dp-10,
      0x1.fbf900d7e907ap-10, 0x1.07ef0bb3984d6p-9, 0x1.12ac293a78facp-9,
      0x1.1de22943b05dbp-9, 0x1.29f03a9a24845p-9, 0x1.36c28beddeafdp-9,
      0x1.444492b4494ap-9, 0x1.52c9f82995dc6p-9, 0x1.620108facec36p-9,
      0x1.7241fdcfd2ed5p-9, 0x1.838f878175b77p-9, 0x1.95b87b41a8becp-9,
      0x1.a932fac98f78ep-9, 0x1.bda8b67203737p-9, 0x1.d36af147923ap-9,
      0x1.ea9d242f419ecp-9, 0x1.01706c040bbc7p-8, 0x1.0e71fc67f3ae9p-8,
      0x1.1c239aff08d01p-8, 0x1.2aa7cfce1052ap-8, 0x1.3a2b177117eep-8,
      0x1.4a584c9220aabp-8, 0x1.5bb470e45e0f6p-8, 0x1.6e09215eb3473p-8,
      0x1.816b8926beaecp-8, 0x1.963066bc91fd2p-8, 0x1.abd7b4cd2fe41p-8,
      0x1.c3183fcf9ebb7p-8, 0x1.dbbd1078ccb3dp-8, 0x1.f5bda6bcac7ecp-8,
      0x1.08d6cce442affp-7, 0x1.177250df39fe5p-7, 0x1.271f1bea2f628p-7,
      0x1.37cf08eb27f5bp-7, 0x1.495d652c0e29fp-7, 0x1.5c4ba91227ca2p-7,
      0x1.7025d9ae05acep-7, 0x1.856b69ee93b83p-7, 0x1.9c2a56b6c1062p-7,
      0x1.b3f6cf15f1ffbp-7, 0x1.cdb50c34fd104p-7, 0x1.e8b9b572ef199p-7,
      0x1.02c37b2a9080dp-6, 0x1.1230f63c05324p-6, 0x1.221f64f39ca51p-6,
      0x1.3354e72965fd8p-6, 0x1.4542f1901017ep-6, 0x1.5809c2f1bc51dp-6,
      0x1.6bf30d8238414p-6, 0x1.7fbb34bea57f8p-6, 0x1.949a9f2766653p-6,
      0x1.a96e0d2a486a6p-6, 0x1.bdb0d4ad8a8dp-6, 0x1.d1856aa8fc072p-6,
      0x1.e26417ac369d2p-6, 0x1.f0f0215a8f8eep-6, 0x1.fae0b188b6cdcp-6,
      0x1.fe15f0ff93832p-6, 0x1.fa3edf9a71b44p-6, 0x1.ec2e32fdd9f6ap-6,
      0x1.d4d8549002ac9p-6, 0x1.b43cd35fe3a2ep-6, 0x1.8b730c64a21eep-6,
      0x1.5e78a09d1ede3p-6, 0x1.2f875c2c06da4p-6, 0x1.0230cfadb7665p-6,
      0x1.b147327053094p-7, 0x1.67939902878eap-7, 0x1.29110e75b7df4p-7,
      0x1.e9bddea8b36d3p-8, 0x1.944e5b510eeaep-8, 0x1.4f5d57954f38ap-8,
      0x1.17a4f02beaf72p-8, 0x1.d6595b07d1b92p-9, 0x1.8f075d3a3a336p-9,
      0x1.55bfc4b309d0ap-9, 0x1.27c27d1d9ffd9p-9, 0x1.0259aefcc5ccep-9,
      0x1.c7eefe3a06656p-10, 0x1.960f3d6215a7cp-10, 0x1.6cbe5abe2dcbbp-10,
      0x1.4a6466f3deba2p-10, 0x1.2d63c476e0661p-10, 0x1.14d45e51bcdb8p-10,
      0x1.ffa3fc44a5639p-11, 0x1.db4892a5b8252p-11, 0x1.bbbc31cebf378p-11,
      0x1.9ffc6487afdb8p-11, 0x1.877e3bb6443bep-11, 0x1.71ba904c09b64p-11,
      0x1.5e2dea90ab97bp-11, 0x1.4c9e70858800bp-11, 0x1.3cae97c79d602p-11,
      0x1.2e2dbd28d60ddp-11, 0x1.20f0f5d10a884p-11, 0x1.14bd70e14b7bfp-11,
      0x1.0985daad7bad4p-11, 0x1.fe443de8e9442p-12, 0x1.eaf9287b1df2bp-12,
      0x1.d90f8ff8922dfp-12, 0x1.c845883fb202ep-12, 0x1.b89ab8ec9c7a2p-12,
      0x1.a9e789ed256f4p-12, 0x1.9c13037d6b698p-12, 0x1.8f15719e9f5d1p-12,
      0x1.82c97a9537f9cp-12, 0x1.77305fa28abd9p-12, 0x1.6c36b59dc3f7cp-12,
      0x1.61cae7bd5305p-12, 0x1.57ecc8067d27ap-12, 0x1.4e856964ac36dp-12,
      0x1.4595337bd5dfbp-12, 0x1.3d12e04e5c0d5p-12, 0x1.34f07007d8c5cp-12,
      0x1.2d30d8365bc5ep-12, 0x1.25c54caa57404p-12, 0x1.1ead0b6dc0eddp-12,
      0x1.17e4595fc4c56p-12, 0x1.115f4b01bd2eep-12, 0x1.0b222354d7d5fp-12,
      0x1.052309db8ba2ap-12, 0x1.fec0889dc232cp-13, 0x1.f3b29105b1478p-13,
      0x1.e90723afd7344p-13, 0x1.dec7b6c8e77f2p-13, 0x1.d4e6f987c1f4dp-13,
      0x1.cb600e28b6ce4p-13, 0x1.c235018e9d0f8p-13, 0x1.b954dc66873f6p-13,
      0x1.b0c741b68e22bp-13, 0x1.a883ce995c185p-13, 0x1.a084b166a5e21p-13,
      0x1.98cd4696dd1fap-13, 0x1.9151254338446p-13, 0x1.8a14d5dddd372p-13,
      0x1.8313dcdaf637bp-13, 0x1.7c47cef23fae1p-13, 0x1.75b4c14f6453bp-13,
      0x1.6f51910260d3ap-13, 0x1.6920828c00d58p-13, 0x1.631fcc583f485p-13,
      0x1.5d48abbfc90d7p-13, 0x1.579f93cae409cp-13, 0x1.521dc7d813cfp-13,
      0x1.4cc3e402ce83ap-13, 0x1.4791ffe222bcap-13, 0x1.428130ea658c6p-13,
      0x1.3d961044f810dp-13, 0x1.38cbab0c3657bp-13, 0x1.342166949a717p-13,
      0x1.2f98ab84404f7p-13, 0x1.2b2a88e7be084p-13, 0x1.26db9b8b95b0ep-13,
      0x1.22a84a24d6e13p-13, 0x1.1e8f16ead8377p-13, 0x1.1a91d81f3ad38p-13,
      0x1.16ab287c24acep-13, 0x1.12de1817f3f1p-13, 0x1.0f2893da22b96p-13,
      0x1.0b8878ef4717cp-13, 0x1.07ffe51792307p-13, 0x1.048aa83f36f78p-13,
      0x1.012a9f61df635p-13, 0x1.fbbdbd50f2d35p-14, 0x1.f5499922f68dep-14,
      0x1.eefd6737a567p-14, 0x1.e8d2af06499ecp-14, 0x1.e2cb4d44627c8p-14,
      0x1.dce72abcd070bp-14, 0x1.d7206cb6fe9c7p-14, 0x1.d17bdbd667baep-14,
      0x1.cbf4830d4e5d7p-14, 0x1.c68acb5b7eacdp-14, 0x1.c13ff2a1ba39cp-14,
      0x1.bc0dab018ca0bp-14, 0x1.b6f8d5df30c77p-14, 0x1.b1fdb41b311adp-14,
      0x1.ad1b8cf689691p-14, 0x1.a8545d3d5d94fp-14, 0x1.a3a2586da03e3p-14,
      0x1.9f0998ce9b85fp-14, 0x1.9a879cc7791ap-14, 0x1.961ac9ef8ffa5p-14,
      0x1.91c56fba441ddp-14, 0x1.8d82e8f7c48b2p-14, 0x1.8955f37cf3d1ep-14,
      0x1.853d489a4f1dfp-14, 0x1.81369ea4d5321p-14, 0x1.7d448014a97efp-14,
      0x1.79633a880a1e9p-14, 0x1.75947144081bep-14, 0x1.71d7d949ac556p-14,
      0x1.6e2aa186438cep-14, 0x1.6a8f7d5ff69aap-14, 0x1.670382fec1e1fp-14,
      0x1.638770170ae57p-14, 0x1.601bc2fb46269p-14, 0x1.5cbd42d976532p-14,
      0x1.596ebe1fa391dp-14, 0x1.562df13eb6fb8p-14, 0x1.52fadf38bfd5cp-14,
      0x1.4fd6a752bc39p-14}};
void expect_bits(const Equilibrium& eq, const SolverBits& want,
                 const char* what) {
  EXPECT_EQ(eq.value, want.value) << what;
  EXPECT_EQ(eq.iterations, want.iterations) << what;
  ASSERT_EQ(eq.row_strategy.size(), want.row.size()) << what;
  ASSERT_EQ(eq.col_strategy.size(), want.col.size()) << what;
  for (std::size_t i = 0; i < want.row.size(); ++i) {
    EXPECT_EQ(eq.row_strategy[i], want.row[i]) << what << ", row " << i;
  }
  for (std::size_t j = 0; j < want.col.size(); ++j) {
    EXPECT_EQ(eq.col_strategy[j], want.col[j]) << what << ", col " << j;
  }
}

TEST(SolversTest, SerialSolversMatchParentBitForBit) {
  const MatrixGame random = random_game(37, 53, 3753);
  const MatrixGame paper =
      core::PoisoningGame(core::PayoffCurves::analytic(0.002, 5.0, 0.06, 1.4),
                          100)
          .discretize(256, 256);
  const IterativeConfig cfg{.iterations = 2000};
  expect_bits(solve_lp_equilibrium(random), kRandomLp, "random LP");
  expect_bits(solve_fictitious_play(random, cfg), kRandomFp, "random FP");
  expect_bits(solve_multiplicative_weights(random, cfg), kRandomMw,
              "random MW");
  expect_bits(solve_fictitious_play(paper, cfg), kPaperFp, "paper FP");
  expect_bits(solve_multiplicative_weights(paper, cfg), kPaperMw, "paper MW");
}

// ------------------------------------------- iterations + degenerate games

TEST(LpTest, IterationsCountsPivots) {
  // The textbook problem needs at least two pivots to reach (2, 6).
  LpProblem p;
  p.a = la::Matrix(3, 2);
  p.a(0, 0) = 1;
  p.a(1, 1) = 2;
  p.a(2, 0) = 3;
  p.a(2, 1) = 2;
  p.b = {4, 12, 18};
  p.c = {3, 5};
  const LpSolution s = solve_lp(p);
  EXPECT_GE(s.iterations, 2u);
}

TEST(LpTest, IterationsZeroWhenOriginOptimal) {
  LpProblem p;
  p.a = la::Matrix(1, 1);
  p.a(0, 0) = 1.0;
  p.b = {5.0};
  p.c = {-1.0};  // maximizing -x -> the all-slack basis is already optimal
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_EQ(s.iterations, 0u);
}

TEST(SolversTest, OneByNGameReducesToColumnMinimum) {
  // Row player has a single action; the column player simply picks the
  // smallest entry. Degenerate shapes exercise the solvers' edge paths
  // (1-chunk scans, single-row tableaus).
  la::Matrix m(1, 4);
  m(0, 0) = 3.0;
  m(0, 1) = -1.0;
  m(0, 2) = 2.0;
  m(0, 3) = 0.5;
  const MatrixGame g(std::move(m));
  const auto lp = solve_lp_equilibrium(g);
  EXPECT_NEAR(lp.value, -1.0, 1e-9);
  ASSERT_EQ(lp.row_strategy.size(), 1u);
  EXPECT_NEAR(lp.row_strategy[0], 1.0, 1e-12);
  EXPECT_NEAR(lp.col_strategy[1], 1.0, 1e-6);

  // FP spends its first iteration on action 0 before locking onto the
  // best response, so the 1000-iteration average is 999/1000.
  const auto fp = solve_fictitious_play(g, {.iterations = 1000});
  EXPECT_NEAR(fp.value, -1.0, 0.01);
  EXPECT_NEAR(fp.col_strategy[1], 1.0, 2e-3);
}

TEST(SolversTest, NByOneGameReducesToRowMaximum) {
  la::Matrix m(3, 1);
  m(0, 0) = -2.0;
  m(1, 0) = 4.0;
  m(2, 0) = 1.0;
  const MatrixGame g(std::move(m));
  const auto lp = solve_lp_equilibrium(g);
  EXPECT_NEAR(lp.value, 4.0, 1e-9);
  EXPECT_NEAR(lp.row_strategy[1], 1.0, 1e-6);
  ASSERT_EQ(lp.col_strategy.size(), 1u);
  EXPECT_NEAR(lp.col_strategy[0], 1.0, 1e-12);

  const auto fp = solve_fictitious_play(g, {.iterations = 1000});
  EXPECT_NEAR(fp.value, 4.0, 0.01);
  EXPECT_NEAR(fp.row_strategy[1], 1.0, 2e-3);
}

TEST(SolversTest, AllEqualPayoffGameHasFlatValue) {
  // Every strategy pair yields the same payoff: the value is pinned and
  // any returned distributions must be valid and unexploitable.
  la::Matrix m(3, 5, 2.5);
  const MatrixGame g(std::move(m));
  const auto lp = solve_lp_equilibrium(g);
  EXPECT_NEAR(lp.value, 2.5, 1e-9);
  EXPECT_TRUE(is_distribution(lp.row_strategy, 1e-9));
  EXPECT_TRUE(is_distribution(lp.col_strategy, 1e-9));
  EXPECT_NEAR(exploitability(g, lp.row_strategy, lp.col_strategy), 0.0, 1e-9);

  const auto fp = solve_fictitious_play(g, {.iterations = 500});
  EXPECT_NEAR(fp.value, 2.5, 1e-12);
  EXPECT_TRUE(is_distribution(fp.row_strategy, 1e-9));
  EXPECT_NEAR(exploitability(g, fp.row_strategy, fp.col_strategy), 0.0,
              1e-12);
}

// ---------------------------------------------------------- best_response

TEST(BestResponseTest, PicksArgmaxAndArgmin) {
  const MatrixGame g = saddle_game();
  const auto br_row = best_row_response(g, {1.0, 0.0});
  EXPECT_EQ(br_row.action, 0u);
  EXPECT_DOUBLE_EQ(br_row.payoff, 2.0);
  const auto br_col = best_col_response(g, {0.0, 1.0});
  EXPECT_EQ(br_col.action, 0u);
  EXPECT_DOUBLE_EQ(br_col.payoff, 1.0);
}

TEST(BestResponseTest, ExploitabilityZeroOnlyAtEquilibrium) {
  const auto g = matching_pennies();
  EXPECT_NEAR(exploitability(g, {0.5, 0.5}, {0.5, 0.5}), 0.0, 1e-12);
  EXPECT_GT(exploitability(g, {1.0, 0.0}, {0.5, 0.5}), 0.4);
  EXPECT_GT(exploitability(g, {0.5, 0.5}, {0.9, 0.1}), 0.4);
}

// --------------------------------------------------------------- pure_ne

TEST(PureNeTest, FindsSaddlePoint) {
  const auto saddles = find_pure_equilibria(saddle_game());
  ASSERT_EQ(saddles.size(), 1u);
  EXPECT_EQ(saddles[0].row, 0u);
  EXPECT_EQ(saddles[0].col, 0u);
  EXPECT_DOUBLE_EQ(saddles[0].value, 2.0);
  EXPECT_TRUE(has_pure_equilibrium(saddle_game()));
  EXPECT_DOUBLE_EQ(pure_strategy_gap(saddle_game()), 0.0);
}

TEST(PureNeTest, NoSaddleInMatchingPennies) {
  EXPECT_TRUE(find_pure_equilibria(matching_pennies()).empty());
  EXPECT_FALSE(has_pure_equilibrium(matching_pennies()));
  EXPECT_DOUBLE_EQ(pure_strategy_gap(matching_pennies()), 2.0);
}

TEST(PureNeTest, AllCellsSaddleInConstantGame) {
  la::Matrix m(2, 3, 7.0);
  const auto saddles = find_pure_equilibria(MatrixGame(std::move(m)));
  EXPECT_EQ(saddles.size(), 6u);
}

TEST(PureNeTest, GapMatchesSecurityLevels) {
  const auto g = rock_paper_scissors();
  EXPECT_DOUBLE_EQ(pure_strategy_gap(g),
                   g.minimax_value() - g.maximin_value());
}

// Property sweep: on random games, saddle-point existence must coincide
// with a zero duality gap, and the LP value must lie inside the gap.
class RandomGameProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomGameProperty, SaddleIffZeroGapAndLpInGap) {
  util::Rng rng(GetParam());
  const std::size_t m = 2 + rng.uniform_index(5);
  const std::size_t n = 2 + rng.uniform_index(5);
  la::Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = static_cast<double>(rng.uniform_int(-4, 4));
    }
  }
  const MatrixGame g(std::move(a));
  const bool saddle = !find_pure_equilibria(g).empty();
  EXPECT_EQ(saddle, has_pure_equilibrium(g));
  const auto eq = solve_lp_equilibrium(g);
  EXPECT_GE(eq.value, g.maximin_value() - 1e-9);
  EXPECT_LE(eq.value, g.minimax_value() + 1e-9);
  if (saddle) {
    EXPECT_NEAR(eq.value, g.maximin_value(), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGames, RandomGameProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

// ----------------------------------------------------- Dantzig pricing

MatrixGame random_square_game(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix a(size, size);
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      a(i, j) = rng.uniform(-5.0, 5.0);
    }
  }
  return MatrixGame(std::move(a));
}

TEST(LpPricingTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_lp_pricing("bland"), LpPricing::kBland);
  EXPECT_EQ(parse_lp_pricing("dantzig"), LpPricing::kDantzig);
  EXPECT_THROW((void)parse_lp_pricing("steepest"), std::invalid_argument);
  EXPECT_STREQ(lp_pricing_name(LpPricing::kBland), "bland");
  EXPECT_STREQ(lp_pricing_name(LpPricing::kDantzig), "dantzig");
}

TEST(LpPricingTest, DantzigReachesTheSameGameValue) {
  // Both pricing rules walk to an optimal vertex; the objective (and
  // hence the game value) must agree to solver tolerance, and both
  // strategies must be unexploitable. Dantzig typically needs no more
  // pivots than Bland; assert it at least terminates well under the
  // fallback budget (i.e. its own pricing finished the solve).
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const MatrixGame g = random_square_game(40, seed);
    const Equilibrium bland =
        solve_lp_equilibrium(g, nullptr, {LpPricing::kBland});
    const Equilibrium dantzig =
        solve_lp_equilibrium(g, nullptr, {LpPricing::kDantzig});
    EXPECT_NEAR(bland.value, dantzig.value, 1e-9);
    EXPECT_LT(exploitability(g, dantzig.row_strategy, dantzig.col_strategy),
              1e-8);
  }
}

TEST(LpPricingTest, DantzigUsuallyPivotsLess) {
  // The motivation for the flag: on random dense games Dantzig's
  // steepest-reduced-cost choice should not do WORSE than Bland's
  // smallest-index walk. Compare total pivots across a small family.
  std::size_t bland_pivots = 0;
  std::size_t dantzig_pivots = 0;
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const MatrixGame g = random_square_game(32, seed);
    const la::Matrix& payoff = g.payoff();
    double lo = 0.0;
    for (std::size_t i = 0; i < g.num_rows(); ++i) {
      for (std::size_t j = 0; j < g.num_cols(); ++j) {
        lo = std::min(lo, payoff(i, j));
      }
    }
    LpProblem problem;
    problem.a = la::Matrix(g.num_rows(), g.num_cols());
    for (std::size_t i = 0; i < g.num_rows(); ++i) {
      for (std::size_t j = 0; j < g.num_cols(); ++j) {
        problem.a(i, j) = payoff(i, j) + (1.0 - lo);
      }
    }
    problem.b.assign(g.num_rows(), 1.0);
    problem.c.assign(g.num_cols(), 1.0);
    bland_pivots += solve_lp(problem, {LpPricing::kBland}).iterations;
    dantzig_pivots +=
        solve_lp(problem, {LpPricing::kDantzig}).iterations;
  }
  EXPECT_LE(dantzig_pivots, bland_pivots);
}

}  // namespace
}  // namespace pg::game
