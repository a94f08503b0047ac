#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <ostream>
#include <string>
#include <stdexcept>

#include "comm/runner.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/halo.hpp"
#include "mesh/halo_plan.hpp"
#include "vlasov/phase_space.hpp"

namespace {

using namespace v6d;

// Global analytic value for a (grid, velocity) index.
float cell_value(int gx, int gy, int gz, std::size_t v) {
  return static_cast<float>(gx * 10000 + gy * 100 + gz) +
         static_cast<float>(v) * 1e-4f;
}

class HaloRanks : public ::testing::TestWithParam<int> {};

TEST_P(HaloRanks, GridHaloMatchesGlobalField) {
  const int p = GetParam();
  const int n_global = 12;
  comm::run(p, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, comm::CartTopology::choose_dims(p));
    mesh::BrickDecomposition dec({n_global, n_global, n_global}, cart.dims(),
                                 cart.coords());
    mesh::Grid3D<double> grid(dec.local_n(0), dec.local_n(1), dec.local_n(2),
                              2);
    for (int i = 0; i < grid.nx(); ++i)
      for (int j = 0; j < grid.ny(); ++j)
        for (int k = 0; k < grid.nz(); ++k)
          grid.at(i, j, k) = (dec.offset(0) + i) * 1e4 +
                             (dec.offset(1) + j) * 1e2 + (dec.offset(2) + k);
    mesh::exchange_grid_halo(grid, cart);
    auto wrap = [&](int i) { return ((i % n_global) + n_global) % n_global; };
    for (int i = -2; i < grid.nx() + 2; ++i)
      for (int j = -2; j < grid.ny() + 2; ++j)
        for (int k = -2; k < grid.nz() + 2; ++k) {
          const double expected = wrap(dec.offset(0) + i) * 1e4 +
                                  wrap(dec.offset(1) + j) * 1e2 +
                                  wrap(dec.offset(2) + k);
          ASSERT_DOUBLE_EQ(grid.at(i, j, k), expected);
        }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, HaloRanks, ::testing::Values(1, 2, 4, 8));

TEST(HaloValidation, RejectsDecomposedAxisThinnerThanGhost) {
  // Local extent 1 < ghost 2 on a decomposed axis: the pack would read
  // out-of-range interior; the exchange must refuse instead.  (The
  // phase-space halo and the fold reject in their plans' tests below.)
  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  mesh::Grid3D<double> grid(1, 8, 8, 2);  // 1 < ghost 2
                  mesh::exchange_grid_halo(grid, cart);
                }),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Exchange plans against the global periodic field
// ---------------------------------------------------------------------------

// One decomposed exchange setup: `ranks` ranks on a `cart` topology
// ({0, 0, 0} = CartTopology::choose_dims) over an `n` global grid with
// `ghost` ghost layers.
struct BrickCase {
  int ranks;
  std::array<int, 3> cart;
  std::array<int, 3> n;
  int ghost;
};

std::array<int, 3> cart_dims(const BrickCase& c) {
  return c.cart[0] > 0 ? c.cart : comm::CartTopology::choose_dims(c.ranks);
}

std::string describe(const BrickCase& c) {
  const auto d = cart_dims(c);
  return "ranks" + std::to_string(c.ranks) + "_" + std::to_string(d[0]) +
         "x" + std::to_string(d[1]) + "x" + std::to_string(d[2]) + "_grid" +
         std::to_string(c.n[0]) + "x" + std::to_string(c.n[1]) + "x" +
         std::to_string(c.n[2]) + "_ghost" + std::to_string(c.ghost);
}

void PrintTo(const BrickCase& c, std::ostream* os) { *os << describe(c); }

std::string case_name(const ::testing::TestParamInfo<BrickCase>& info) {
  return describe(info.param);
}

// Global index of the local (possibly ghost) cell `idx`; it lies in
// [-ghost, n + ghost), the global grid's own ghost range.
std::array<int, 3> global_index(const mesh::BrickDecomposition& dec,
                                const int idx[3]) {
  return {dec.offset(0) + idx[0], dec.offset(1) + idx[1],
          dec.offset(2) + idx[2]};
}

class HaloPlanGlobal : public ::testing::TestWithParam<BrickCase> {};

TEST_P(HaloPlanGlobal, AxisGhostsMatchGlobalPeriodicField) {
  // Oracle: the assembled global field with PhaseSpace::fill_ghosts_periodic
  // (no comm code).  Each axis' begin/finish must deliver exactly the
  // ghost blocks that axis' position sweep reads: the axis ghosts at
  // interior transverse positions.
  const BrickCase c = GetParam();
  const int nu = 2;
  vlasov::PhaseSpaceDims gd;
  gd.nx = c.n[0];
  gd.ny = c.n[1];
  gd.nz = c.n[2];
  gd.nux = gd.nuy = gd.nuz = nu;
  gd.ghost = c.ghost;
  vlasov::PhaseSpace global(gd, vlasov::PhaseSpaceGeometry{});
  for (int i = 0; i < gd.nx; ++i)
    for (int j = 0; j < gd.ny; ++j)
      for (int k = 0; k < gd.nz; ++k) {
        float* blk = global.block(i, j, k);
        for (std::size_t v = 0; v < global.block_size(); ++v)
          blk[v] = cell_value(i, j, k, v);
      }
  global.fill_ghosts_periodic();

  comm::run(c.ranks, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, cart_dims(c));
    mesh::BrickDecomposition dec(c.n, cart.dims(), cart.coords());
    vlasov::PhaseSpaceDims dims = gd;
    dims.nx = dec.local_n(0);
    dims.ny = dec.local_n(1);
    dims.nz = dec.local_n(2);
    vlasov::PhaseSpace f(dims, vlasov::PhaseSpaceGeometry{});
    for (int i = 0; i < dims.nx; ++i)
      for (int j = 0; j < dims.ny; ++j)
        for (int k = 0; k < dims.nz; ++k) {
          const int idx[3] = {i, j, k};
          const auto gi = global_index(dec, idx);
          std::copy_n(global.block(gi[0], gi[1], gi[2]), f.block_size(),
                      f.block(i, j, k));
        }

    mesh::HaloPlan plan(cart, dims, 900);
    const int g = dims.ghost;
    const int n_axis[3] = {dims.nx, dims.ny, dims.nz};
    for (int axis = 0; axis < 3; ++axis) {
      plan.begin_axis(f, axis);
      plan.finish_axis(f, axis);
      for (int a = -g; a < n_axis[axis] + g; ++a) {
        if (a >= 0 && a < n_axis[axis]) continue;  // interior untouched
        for (int t1 = 0; t1 < plan.axis(axis).t1n; ++t1)
          for (int t2 = 0; t2 < plan.axis(axis).t2n; ++t2) {
            int idx[3];
            idx[axis] = a;
            int tpos = 0;
            for (int t = 0; t < 3; ++t) {
              if (t == axis) continue;
              idx[t] = tpos == 0 ? t1 : t2;
              ++tpos;
            }
            const auto gi = global_index(dec, idx);
            const float* blk = f.block(idx[0], idx[1], idx[2]);
            const float* want = global.block(gi[0], gi[1], gi[2]);
            for (std::size_t v = 0; v < f.block_size(); ++v)
              ASSERT_EQ(blk[v], want[v])
                  << "rank " << comm.rank() << " axis " << axis << " cell "
                  << idx[0] << "," << idx[1] << "," << idx[2];
          }
      }
    }
  });
}

// Rank counts 1/2/4/8 on a cube, plus the quasi-1D two_stream shape: the
// thin undecomposed y/z axes (extent 2 < ghost 3) wrap locally, several
// times over.
INSTANTIATE_TEST_SUITE_P(
    RankCounts, HaloPlanGlobal,
    ::testing::Values(BrickCase{1, {0, 0, 0}, {8, 8, 8}, 3},
                      BrickCase{2, {0, 0, 0}, {8, 8, 8}, 3},
                      BrickCase{4, {0, 0, 0}, {8, 8, 8}, 3},
                      BrickCase{8, {0, 0, 0}, {8, 8, 8}, 3},
                      BrickCase{2, {2, 1, 1}, {8, 2, 2}, 3}),
    case_name);

TEST(HaloPlan, AxisRangesMatchDecomposition) {
  comm::run(4, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 2, 1});
    mesh::BrickDecomposition dec({8, 8, 8}, cart.dims(), cart.coords());
    vlasov::PhaseSpaceDims dims;
    dims.nx = dec.local_n(0);  // 4
    dims.ny = dec.local_n(1);  // 4
    dims.nz = dec.local_n(2);  // 8
    dims.nux = dims.nuy = dims.nuz = 2;
    mesh::HaloPlan plan(cart, dims, 900);

    // x and y are decomposed; local extent 4 < 2*ghost = 6, so the split
    // (interior/boundary) pipeline is not eligible there.
    EXPECT_TRUE(plan.axis(0).decomposed);
    EXPECT_FALSE(plan.axis(0).split);
    EXPECT_TRUE(plan.axis(1).decomposed);
    EXPECT_FALSE(plan.axis(1).split);
    // z lives wholly on this rank.
    EXPECT_FALSE(plan.axis(2).decomposed);
    EXPECT_FALSE(plan.axis(2).split);

    // Interior transverse extents, ascending-axis order.
    EXPECT_EQ(plan.axis(0).n, 4);
    EXPECT_EQ(plan.axis(0).t1n, 4);   // y
    EXPECT_EQ(plan.axis(0).t2n, 8);   // z
    EXPECT_EQ(plan.axis(2).t1n, 4);   // x
    EXPECT_EQ(plan.axis(2).t2n, 4);   // y
    // One face = ghost layers x interior transverse x velocity block.
    EXPECT_EQ(plan.axis(0).face_floats,
              static_cast<std::size_t>(3) * 4 * 8 * 8);
  });
}

TEST(HaloPlan, SplitAxisExchangeFillsAxisGhosts) {
  // begin/finish per axis must deliver exactly the ghost blocks the
  // position sweep of that axis reads: the axis ghosts at interior
  // transverse positions, equal to the global periodic field.
  const int n_global = 12, nu = 2;
  comm::run(4, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, {2, 2, 1});
    mesh::BrickDecomposition dec({n_global, n_global, n_global}, cart.dims(),
                                 cart.coords());
    vlasov::PhaseSpaceDims dims;
    dims.nx = dec.local_n(0);
    dims.ny = dec.local_n(1);
    dims.nz = dec.local_n(2);
    dims.nux = dims.nuy = dims.nuz = nu;
    vlasov::PhaseSpace f(dims, vlasov::PhaseSpaceGeometry{});
    for (int i = 0; i < dims.nx; ++i)
      for (int j = 0; j < dims.ny; ++j)
        for (int k = 0; k < dims.nz; ++k) {
          float* blk = f.block(i, j, k);
          for (std::size_t v = 0; v < f.block_size(); ++v)
            blk[v] = cell_value(dec.offset(0) + i, dec.offset(1) + j,
                                dec.offset(2) + k, v);
        }
    mesh::HaloPlan plan(cart, dims, 900);
    const int g = dims.ghost;
    auto wrap = [&](int i) { return ((i % n_global) + n_global) % n_global; };
    const int n_axis[3] = {dims.nx, dims.ny, dims.nz};
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_TRUE(plan.axis(axis).split || axis == 2);
      plan.begin_axis(f, axis);
      plan.finish_axis(f, axis);
      for (int a = -g; a < n_axis[axis] + g; ++a) {
        if (a >= 0 && a < n_axis[axis]) continue;  // interior untouched
        for (int t1 = 0; t1 < plan.axis(axis).t1n; ++t1)
          for (int t2 = 0; t2 < plan.axis(axis).t2n; ++t2) {
            int idx[3];
            idx[axis] = a;
            int tpos = 0;
            for (int t = 0; t < 3; ++t) {
              if (t == axis) continue;
              idx[t] = tpos == 0 ? t1 : t2;
              ++tpos;
            }
            const float* blk = f.block(idx[0], idx[1], idx[2]);
            const int gx = wrap(dec.offset(0) + idx[0]);
            const int gy = wrap(dec.offset(1) + idx[1]);
            const int gz = wrap(dec.offset(2) + idx[2]);
            for (std::size_t v = 0; v < f.block_size(); ++v)
              ASSERT_FLOAT_EQ(blk[v], cell_value(gx, gy, gz, v))
                  << "axis " << axis << " cell " << idx[0] << "," << idx[1]
                  << "," << idx[2];
          }
      }
    }
  });
}

TEST(HaloPlan, RejectsDecomposedAxisThinnerThanGhost) {
  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  vlasov::PhaseSpaceDims dims;
                  dims.nx = 1;  // < ghost 3 on a decomposed axis
                  dims.ny = dims.nz = 4;
                  dims.nux = dims.nuy = dims.nuz = 2;
                  mesh::HaloPlan plan(cart, dims, 900);
                }),
      std::invalid_argument);
}

// Small dyadic deposit of brick `owner` at global index (gi, gj, gk):
// every partial sum of these is exact in double, so the fold must match
// the oracle with EXPECT_EQ whatever its summation order.
double dyadic_deposit(int owner, int gi, int gj, int gk, int ghost) {
  return 1.0 + owner + 0.25 * (gi + ghost) + 0.125 * (gj + ghost) +
         0.0625 * (gk + ghost);
}

class GridFoldPlanGlobal : public ::testing::TestWithParam<BrickCase> {};

TEST_P(GridFoldPlanGlobal, FoldMatchesGlobalPeriodicFold) {
  // Every brick deposits into its interior and its ghost ring.  Oracle:
  // all bricks' deposits summed into one global grid at their global
  // indices, then Grid3D::fold_ghosts_periodic (no comm code).
  const BrickCase c = GetParam();
  const auto dims = cart_dims(c);
  const int g = c.ghost;
  mesh::Grid3D<double> global(c.n[0], c.n[1], c.n[2], g);
  double deposited = 0.0;
  for (int cx = 0; cx < dims[0]; ++cx)
    for (int cy = 0; cy < dims[1]; ++cy)
      for (int cz = 0; cz < dims[2]; ++cz) {
        mesh::BrickDecomposition d2(c.n, dims, {cx, cy, cz});
        const int owner = (cx * dims[1] + cy) * dims[2] + cz;
        for (int i = -g; i < d2.local_n(0) + g; ++i)
          for (int j = -g; j < d2.local_n(1) + g; ++j)
            for (int k = -g; k < d2.local_n(2) + g; ++k) {
              const int idx[3] = {i, j, k};
              const auto gi = global_index(d2, idx);
              const double v = dyadic_deposit(owner, gi[0], gi[1], gi[2], g);
              global.at(gi[0], gi[1], gi[2]) += v;
              deposited += v;
            }
      }
  global.fold_ghosts_periodic();

  comm::run(c.ranks, [&](comm::Communicator& comm) {
    comm::CartTopology cart(comm, dims);
    mesh::BrickDecomposition dec(c.n, cart.dims(), cart.coords());
    const auto co = cart.coords();
    const int owner = (co[0] * dims[1] + co[1]) * dims[2] + co[2];
    mesh::Grid3D<double> grid(dec.local_n(0), dec.local_n(1), dec.local_n(2),
                              g);
    for (int i = -g; i < grid.nx() + g; ++i)
      for (int j = -g; j < grid.ny() + g; ++j)
        for (int k = -g; k < grid.nz() + g; ++k) {
          const int idx[3] = {i, j, k};
          const auto gi = global_index(dec, idx);
          grid.at(i, j, k) = dyadic_deposit(owner, gi[0], gi[1], gi[2], g);
        }

    mesh::GridFoldPlan plan(cart, 940);
    plan.begin(grid);
    double sink = 0.0;  // "interior work" between the halves
    for (int w = 0; w < 100; ++w) sink += std::sqrt(1.0 + w);
    plan.finish(grid);
    ASSERT_GT(sink, 0.0);

    for (int i = -g; i < grid.nx() + g; ++i)
      for (int j = -g; j < grid.ny() + g; ++j)
        for (int k = -g; k < grid.nz() + g; ++k) {
          const bool interior = i >= 0 && i < grid.nx() && j >= 0 &&
                                j < grid.ny() && k >= 0 && k < grid.nz();
          const int idx[3] = {i, j, k};
          const auto gi = global_index(dec, idx);
          // Interior cells hold the global fold; ghosts were handed on.
          ASSERT_EQ(grid.at(i, j, k),
                    interior ? global.at(gi[0], gi[1], gi[2]) : 0.0)
              << "rank " << comm.rank() << " cell " << i << " " << j << " "
              << k;
        }
    // Conservation: nothing deposited is lost or duplicated.
    EXPECT_EQ(comm.allreduce_sum(grid.sum_interior()), deposited);
  });
}

// Ghost widths 1 and 2 at rank counts 1/2/4/8, plus the quasi-1D
// two_stream shape whose thin y/z axes fold several periodic images.
INSTANTIATE_TEST_SUITE_P(
    RankCounts, GridFoldPlanGlobal,
    ::testing::Values(BrickCase{1, {0, 0, 0}, {8, 8, 8}, 1},
                      BrickCase{2, {0, 0, 0}, {8, 8, 8}, 1},
                      BrickCase{4, {0, 0, 0}, {8, 8, 8}, 1},
                      BrickCase{8, {0, 0, 0}, {8, 8, 8}, 1},
                      BrickCase{1, {0, 0, 0}, {8, 8, 8}, 2},
                      BrickCase{2, {0, 0, 0}, {8, 8, 8}, 2},
                      BrickCase{4, {0, 0, 0}, {8, 8, 8}, 2},
                      BrickCase{8, {0, 0, 0}, {8, 8, 8}, 2},
                      BrickCase{2, {2, 1, 1}, {8, 2, 2}, 2}),
    case_name);

TEST(GridFoldPlan, RejectsDecomposedAxisThinnerThanGhost) {
  EXPECT_THROW(
      comm::run(4,
                [&](comm::Communicator& comm) {
                  comm::CartTopology cart(comm, {4, 1, 1});
                  mesh::Grid3D<double> grid(1, 8, 8, 2);  // 1 < ghost 2
                  mesh::GridFoldPlan plan(cart, 940);
                  plan.begin(grid);
                }),
      std::invalid_argument);
}
}  // namespace
