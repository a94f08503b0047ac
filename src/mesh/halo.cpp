#include "mesh/halo.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace v6d::mesh {

namespace {

// Tags: base + axis * 4 + (0: travelling +axis, 1: travelling -axis).
constexpr int kGridHaloTagBase = 150;

struct Range {
  int lo, hi;  // half-open interval of cell indices
  int count() const { return hi - lo; }
};

inline int wrap(int i, int n) { return ((i % n) + n) % n; }

// A decomposed axis sends `ghost` *interior* layers to each neighbor; if
// the local extent is smaller than the ghost width the pack would silently
// read out-of-range (ghost) cells and corrupt the neighbor's halo.  Fail
// loudly instead — the decomposition has too many ranks along this axis.
void require_ghost_fits(const char* fn, int axis, int n_axis, int ghost,
                        int ranks_along_axis) {
  if (n_axis >= ghost) return;
  throw std::invalid_argument(
      std::string(fn) + ": local extent " + std::to_string(n_axis) +
      " along axis " + std::to_string(axis) + " is smaller than the ghost " +
      "width " + std::to_string(ghost) + " (axis split over " +
      std::to_string(ranks_along_axis) +
      " ranks); use fewer ranks along this axis");
}

template <class T>
void exchange_grid_halo_impl(Grid3D<T>& grid, comm::CartTopology& cart) {
  if (cart.comm().size() == 1) {
    grid.fill_ghosts_periodic();
    return;
  }
  auto& comm = cart.comm();
  const int g = grid.ghost();
  if (g == 0) return;
  const int n[3] = {grid.nx(), grid.ny(), grid.nz()};

  for (int axis = 0; axis < 3; ++axis) {
    Range r[3];
    for (int t = 0; t < 3; ++t)
      r[t] = t < axis ? Range{-g, n[t] + g} : Range{0, n[t]};
    int ta = -1, tb = -1;
    for (int t = 0; t < 3; ++t) {
      if (t == axis) continue;
      (ta < 0 ? ta : tb) = t;
    }
    auto at = [&](int a, int b, int c) -> T& {
      int idx[3];
      idx[axis] = a;
      int tpos = 0;
      for (int t = 0; t < 3; ++t) {
        if (t == axis) continue;
        idx[t] = tpos == 0 ? b : c;
        ++tpos;
      }
      return grid.at(idx[0], idx[1], idx[2]);
    };
    if (cart.dims()[static_cast<std::size_t>(axis)] == 1) {
      for (int a = -g; a < n[axis] + g; ++a) {
        if (a >= 0 && a < n[axis]) continue;
        const int src = wrap(a, n[axis]);
        for (int b = r[ta].lo; b < r[ta].hi; ++b)
          for (int c = r[tb].lo; c < r[tb].hi; ++c) at(a, b, c) = at(src, b, c);
      }
      continue;
    }
    require_ghost_fits("exchange_grid_halo", axis, n[axis], g,
                       cart.dims()[static_cast<std::size_t>(axis)]);
    const auto nbr = cart.neighbors(axis);
    thread_local std::vector<T> send_hi, send_lo, recv_buf;
    auto pack = [&](int lo, std::vector<T>& buf) {
      buf.clear();
      buf.reserve(static_cast<std::size_t>(g) * r[ta].count() *
                  r[tb].count());
      for (int a = lo; a < lo + g; ++a)
        for (int b = r[ta].lo; b < r[ta].hi; ++b)
          for (int c = r[tb].lo; c < r[tb].hi; ++c) buf.push_back(at(a, b, c));
    };
    auto unpack = [&](int lo, int count, const std::vector<T>& buf) {
      std::size_t o = 0;
      for (int a = lo; a < lo + count; ++a)
        for (int b = r[ta].lo; b < r[ta].hi; ++b)
          for (int c = r[tb].lo; c < r[tb].hi; ++c) at(a, b, c) = buf[o++];
    };
    const int tag_fwd = kGridHaloTagBase + axis * 4;
    const int tag_bwd = kGridHaloTagBase + axis * 4 + 1;
    pack(n[axis] - g, send_hi);
    comm.send(nbr[1], tag_fwd, send_hi.data(), send_hi.size());
    pack(0, send_lo);
    comm.send(nbr[0], tag_bwd, send_lo.data(), send_lo.size());
    recv_buf.resize(send_hi.size());
    comm.recv(nbr[0], tag_fwd, recv_buf.data(), recv_buf.size());
    unpack(-g, g, recv_buf);
    recv_buf.resize(send_lo.size());
    comm.recv(nbr[1], tag_bwd, recv_buf.data(), recv_buf.size());
    unpack(n[axis], g, recv_buf);
  }
}

}  // namespace

void exchange_grid_halo(Grid3D<double>& g, comm::CartTopology& cart) {
  exchange_grid_halo_impl(g, cart);
}
void exchange_grid_halo(Grid3D<float>& g, comm::CartTopology& cart) {
  exchange_grid_halo_impl(g, cart);
}

}  // namespace v6d::mesh
