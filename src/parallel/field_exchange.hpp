// Layout changes between the brick decomposition (mesh/decomposition.hpp)
// and the x-slab layout of the distributed FFT (fft/parallel_fft.hpp).
//
// The PM density is deposited into per-rank bricks (matching the Vlasov
// decomposition, paper §5.1.3) but the parallel FFT wants contiguous
// x-slabs; SlabExchange moves interiors between the two layouts with one
// personalized all-to-all each way — the same communication shape as the
// paper's "slab redistribution before the SSL II FFT".
#pragma once

#include <vector>

#include "comm/cart.hpp"
#include "fft/parallel_fft.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/grid.hpp"

namespace v6d::parallel {

/// Assemble the full global field from disjoint brick interiors on every
/// rank (allreduce of a zero-padded global grid).  Used by diagnostics and
/// the checkpoint force gather; `global` must be pre-sized to the global
/// extents (any ghost width; ghosts are left zero).
void allgather_bricks(const mesh::Grid3D<double>& brick,
                      const mesh::BrickDecomposition& dec,
                      comm::Communicator& comm, mesh::Grid3D<double>& global);

/// Split (overlappable) brick <-> x-slab redistribution.
///
/// The plan moves every brick ∩ slab footprint through buffered
/// point-to-point sends so the caller can compute (Green-function tables,
/// the next spectral component) while messages are in flight, or finish
/// at once for a synchronous exchange.  Footprint intersections are
/// precomputed at construction and pack buffers persist, so steady-state
/// begin/finish pairs allocate nothing.
///
/// Only one exchange (either direction) may be in flight per instance;
/// distinct instances on the same communicator need distinct `tag_base`s.
/// A finish with no exchange in flight is a no-op (finish_to_slab then
/// returns the slab of the last exchange).
class SlabExchange {
 public:
  SlabExchange() = default;
  SlabExchange(const mesh::BrickDecomposition& dec,
               const fft::ParallelFft3D& pfft, comm::CartTopology& cart,
               int tag_base);

  /// Pack this rank's brick rows for every destination slab and post the
  /// sends + receive handles.  `brick` may be reused immediately.
  void begin_to_slab(const mesh::Grid3D<double>& brick);
  /// Complete the receives; returns the persistent slab buffer (valid
  /// until the next begin_to_slab on this instance).
  std::vector<fft::cplx>& finish_to_slab();

  /// Inverse direction: scatter this rank's slab rows toward the bricks.
  /// `slab` may be reused immediately after return.
  void begin_to_brick(const std::vector<fft::cplx>& slab);
  void finish_to_brick(mesh::Grid3D<double>& brick);

  /// Seconds spent blocked waiting for messages since the last call.
  double take_wait() {
    const double w = wait_s_;
    wait_s_ = 0.0;
    return w;
  }

 private:
  struct Footprint {
    int rank = 0;
    int x0 = 0, x1 = 0;       // global x-row intersection
    int ny = 0, nz = 0;       // transverse extents of the brick side
    int lo1 = 0, lo2 = 0;     // that brick's global (y, z) offsets
  };

  comm::CartTopology* cart_ = nullptr;
  const fft::ParallelFft3D* pfft_ = nullptr;
  int tag_base_ = 0;
  int my_so_ = 0, my_sn_ = 0;         // my slab rows
  int my_lo_[3] = {0, 0, 0};          // my brick offsets
  // The two directions move the same intersections in opposite senses, so
  // two footprint lists serve both: brick_rows_ = my brick ∩ each rank's
  // slab (sent in to-slab, received in to-brick); slab_rows_ = each
  // rank's brick ∩ my slab (received in to-slab, sent in to-brick).
  std::vector<Footprint> brick_rows_, slab_rows_;
  std::vector<std::vector<double>> send_buf_;  // one per send footprint
  std::vector<comm::Communicator::RecvHandle> pending_;
  std::vector<double> recv_buf_;
  std::vector<fft::cplx> slab_;
  double wait_s_ = 0.0;
};

}  // namespace v6d::parallel
