// Precomputed plans + persistent buffers for the phase-space halo and the
// deposit fold of the distributed stepping path (paper §5.1.3: halo
// exchange is the dominant non-compute cost; hiding it behind interior
// updates is what makes the Fugaku runs scale).
//
// Each exchange is split into begin/finish halves so the caller can advect
// interior cells (or accumulate local density) while the face messages
// are in flight; a synchronous exchange is a begin followed at once by its
// finish:
//
//  * HaloPlan — split single-axis phase-space exchange.  A position sweep
//    along axis a reads only that axis' ghost blocks at interior
//    transverse positions, so each sweep needs one face pair, not the full
//    transitively-extended 3-axis exchange.  begin_axis() packs both faces
//    into persistent buffers, posts the (buffered, non-blocking) sends and
//    the receive handles; finish_axis() completes the receives and unpacks
//    into the axis ghosts.  Undecomposed axes do the local periodic wrap
//    in begin_axis() (no communication to overlap).
//
//  * GridFoldPlan — split ghost-deposit fold.  begin() runs the fold from
//    axis z down through any local-wrap axes and stops after posting the
//    sends of the first decomposed axis; finish() completes that axis and
//    runs the remaining ones.  The per-axis operations and summation
//    order do not depend on what runs between the halves, so the folded
//    field is bit-identical however late finish() is called, and equals
//    the global periodic fold (Grid3D::fold_ghosts_periodic) of the
//    assembled deposits wherever the sum is exact.
//
// Both plans accumulate the time spent *blocked* waiting for messages
// (take_wait()), which is the exposed communication cost the overlap
// metrics report; pack/unpack loops are OpenMP-parallel.
#pragma once

#include "comm/cart.hpp"
#include "common/aligned.hpp"
#include "mesh/grid.hpp"
#include "vlasov/phase_space.hpp"

namespace v6d::mesh {

class HaloPlan {
 public:
  struct AxisPlan {
    bool decomposed = false;  // more than one rank along the axis
    bool split = false;       // overlap-eligible: decomposed and n >= 2*ghost
    int n = 0;                // local interior extent along the axis
    int t1n = 0, t2n = 0;     // interior transverse extents (ascending axes)
    std::size_t face_floats = 0;  // ghost * t1n * t2n * block_size
  };

  HaloPlan() = default;
  /// Plan the single-axis face exchanges for bricks of shape `dims` on
  /// `cart`.  `tag_base` must be distinct from every other exchange kind
  /// live on the same communicator.  Throws std::invalid_argument if a
  /// decomposed axis is thinner than the ghost width (its faces would
  /// read ghost cells).
  HaloPlan(comm::CartTopology& cart, const vlasov::PhaseSpaceDims& dims,
           int tag_base);

  const AxisPlan& axis(int a) const {
    return axes_[static_cast<std::size_t>(a)];
  }

  /// Pack + send both faces of `axis` and post the ghost receives
  /// (undecomposed axes locally wrap instead).  The caller may mutate any
  /// interior cell except the two ghost-width face shells until
  /// finish_axis() returns.
  void begin_axis(vlasov::PhaseSpace& f, int axis);
  /// Complete both receives and unpack them into the axis ghosts at
  /// interior transverse positions.  No-op for undecomposed axes.
  void finish_axis(vlasov::PhaseSpace& f, int axis);

  /// Complete both receives of a *split* axis straight into the overlapped
  /// sweep's boundary windows, skipping f's ghost blocks entirely: a face
  /// payload has exactly the window-chunk layout ([layer][t1][t2][block]),
  /// so completion is two plain copies.  `lo_face` receives the backward
  /// neighbor's face (window cells [-ghost, 0)), `hi_face` the forward
  /// one's (window cells [n, n+ghost)); each must hold axis(a).face_floats
  /// floats.  Only valid after begin_axis on a decomposed axis.
  void finish_axis_into(float* lo_face, float* hi_face, int axis);

  /// Seconds spent blocked in message waits since the last call (the
  /// exposed, un-overlapped communication time).
  double take_wait() {
    const double w = wait_s_;
    wait_s_ = 0.0;
    return w;
  }

 private:
  void wrap_axis(vlasov::PhaseSpace& f, int axis) const;
  void pack_face(const vlasov::PhaseSpace& f, int axis, int lo,
                 float* buf) const;
  void unpack_face(vlasov::PhaseSpace& f, int axis, int lo,
                   const float* buf) const;

  comm::CartTopology* cart_ = nullptr;
  int tag_base_ = 0;
  int ghost_ = 0;
  std::size_t block_ = 0;
  std::array<AxisPlan, 3> axes_{};
  std::array<AlignedVector<float>, 3> send_lo_, send_hi_;
  AlignedVector<float> recv_buf_;
  std::array<comm::Communicator::RecvHandle, 3> pending_lo_, pending_hi_;
  double wait_s_ = 0.0;
};

class GridFoldPlan {
 public:
  GridFoldPlan() = default;
  GridFoldPlan(comm::CartTopology& cart, int tag_base)
      : cart_(&cart), tag_base_(tag_base) {}

  /// Start the fold: single-rank topologies run the (whole) periodic fold
  /// here; otherwise axes z -> x are folded locally until the first
  /// decomposed axis, whose ghost sends are posted.  The caller must not
  /// touch `grid` until finish().
  void begin(Grid3D<double>& grid);
  /// Complete the posted axis and fold the remaining ones (blocking, with
  /// persistent buffers).  No-op when no fold is pending, so a fold
  /// already finished right after begin() may be finished again.
  void finish(Grid3D<double>& grid);

  double take_wait() {
    const double w = wait_s_;
    wait_s_ = 0.0;
    return w;
  }

 private:
  void fold_axis_wrap(Grid3D<double>& grid, int axis) const;
  void post_axis(Grid3D<double>& grid, int axis);
  void complete_axis(Grid3D<double>& grid, int axis);

  comm::CartTopology* cart_ = nullptr;
  int tag_base_ = 0;
  int pending_axis_ = -1;
  std::vector<double> send_lo_, send_hi_, recv_buf_;
  comm::Communicator::RecvHandle h_lo_, h_hi_;
  double wait_s_ = 0.0;
};

}  // namespace v6d::mesh
