// Distributed hybrid Vlasov / N-body solver — the paper's execution model
// (§5.1.3) on the in-process rank runtime (comm::run).
//
// Each rank owns one brick of the Vlasov spatial grid (velocity space is
// never decomposed) plus the matching brick of the PM mesh.  One KDK step
// runs the same sequence as the serial HybridSolver, with the
// communication seams the paper describes:
//
//   * position sweeps read neighbor bricks through the spatial halo
//     (the dominant Vlasov communication);
//   * density deposits spill into ghost cells and are folded onto the
//     owning neighbor;
//   * the Poisson solve runs on the distributed FFT
//     (fft::ParallelFft3D) after a brick -> x-slab redistribution
//     (parallel/field_exchange.hpp);
//   * the CFL step search and the conservation diagnostics are
//     allreduce-d so every rank takes identical steps.
//
// The halo, fold and slab exchanges run through begin/finish plans in one
// stepping sequence (the paper's central scaling technique): position
// sweeps advect the ghost-independent interior while the single-axis face
// messages fly, then sweep the ghost-width boundary shells (vlasov
// range-restricted entry points + mesh::HaloPlan); the CDM ghost fold
// flies during the Vlasov moment accumulation (mesh::GridFoldPlan); the
// brick -> x-slab FFT redistribution flies during Green-function table
// prep, and each force component's slab -> brick return flies during the
// next component's spectral work (parallel::SlabExchange).
//
// The `overlap=` flag only schedules the finishes: overlapped (default)
// completes each exchange after the independent compute; overlap=0 runs
// the same plans, each exchange completed at once (its later finish is a
// no-op inside the plan).  Both schedules perform the same floating-point
// operations in the same order, so they are bit-identical
// (tests/test_parallel.cpp asserts exact equality).
// Exposed (un-hidden) communication time is tracked separately in the
// "halo-wait" / "fold-wait" / "slab-wait" timer buckets, and the
// interior/boundary sweep split in "sweep-interior" / "sweep-boundary" —
// bench/table3 turns these into the halo_overlap_efficiency metric.
//
// Deliberate deviation from the paper, documented in docs/ARCHITECTURE.md:
// CDM particles are *replicated* on every rank (each rank deposits only
// the particles inside its brick, mesh forces are allreduce-d, and the
// short-range tree runs redundantly).  The paper's headline scaling axis
// is the Vlasov part; a particle-exchange layer can land on this seam
// later without touching the Vlasov side.
//
// Construction shards an already built (serial) HybridSolver, so scenario
// factories and checkpoints keep a single source of truth for initial
// conditions; gather_into() writes the evolved state back.
#pragma once

#include <array>
#include <vector>

#include "comm/cart.hpp"
#include "common/timer.hpp"
#include "fft/parallel_fft.hpp"
#include "gravity/poisson.hpp"
#include "hybrid/hybrid_solver.hpp"
#include "mesh/decomposition.hpp"
#include "mesh/halo_plan.hpp"
#include "parallel/field_exchange.hpp"
#include "vlasov/sweeps.hpp"

namespace v6d::parallel {

class DistributedHybridSolver {
 public:
  /// Shard rank-local state out of the fully built global solver; the
  /// global object is only read during construction.  `decomp` must
  /// multiply to comm.size() and satisfy parallel::validate_decomp.
  /// A fresh force cache on the global solver is sharded too, so a
  /// resumed run continues bit-identically.  `overlap` defers each
  /// exchange's finish past the independent compute (default on); off
  /// completes every exchange right after its begin (bit-identical).
  DistributedHybridSolver(const hybrid::HybridSolver& global,
                          comm::Communicator& comm,
                          std::array<int, 3> decomp, bool overlap = true);

  /// One KDK step from a0 to a1 (collective; all ranks must agree on the
  /// interval — use suggest_next_a).
  void step(double a0, double a1);

  /// CFL-limited step choice; the shift bound is allreduce-d so the
  /// result is identical on every rank (collective).
  double suggest_next_a(double a0, double da_max);

  /// Global total mass (allreduce-d conservation diagnostic; collective).
  double total_mass();

  vlasov::PhaseSpace& local_f() { return f_; }
  const vlasov::PhaseSpace& local_f() const { return f_; }
  const nbody::Particles& cdm() const { return cdm_; }
  comm::CartTopology& cart() { return cart_; }
  const mesh::BrickDecomposition& decomposition() const { return dec_; }
  bool has_neutrinos() const { return has_nu_; }
  bool overlap_enabled() const { return overlap_; }
  const cosmo::Background& background() const { return background_; }

  /// The step-boundary force cache in *global* layout: the Vlasov-grid
  /// acceleration bricks are assembled across ranks (collective), the
  /// replicated particle accelerations are copied.  Feeds checkpoints and
  /// gather_into.
  hybrid::HybridSolver::StepForces export_step_forces_global();
  /// Slice a global-layout force cache back onto this rank (resume path).
  /// Throws std::runtime_error on shape mismatch.
  void import_step_forces_global(const hybrid::HybridSolver::StepForces& sf);

  /// Write the evolved state back into the global solver: every rank
  /// copies its f brick (disjoint), rank 0 restores particles and the
  /// force cache (collective).  With `via_messages` the ranks do not share
  /// the global solver's address space (multi-process transports): bricks
  /// travel to rank 0 as point-to-point messages and only rank 0's
  /// `global` is assembled — the other ranks' globals are left untouched.
  /// Throws std::runtime_error on rank 0 if a peer's brick message is
  /// truncated or places its brick outside the global grid.
  void gather_into(hybrid::HybridSolver& global, bool via_messages = false);
  /// Tag of the brick messages gather_into(via_messages) sends to rank 0.
  static constexpr int kGatherTag = 0x6a7;

  TimerRegistry& timers() { return timers_; }

 private:
  void compute_forces(double a);
  bool owns_particle(std::size_t i) const;
  void deposit_cdm_local();
  void compute_nu_moment();
  void inject_nu_density();
  void prepare_green_tables(const gravity::PoissonOptions& cdm_long,
                            const gravity::PoissonOptions& cdm_short,
                            const gravity::PoissonOptions& nu_opts);
  void drift(double drift_factor);

  comm::Communicator& comm_;
  comm::CartTopology cart_;
  mesh::BrickDecomposition dec_;     // Vlasov spatial grid bricks
  mesh::BrickDecomposition pm_dec_;  // PM mesh bricks
  fft::ParallelFft3D pfft_;

  vlasov::PhaseSpace f_;   // local brick (+ ghosts)
  nbody::Particles cdm_;   // replicated
  double box_;
  cosmo::Background background_;
  hybrid::HybridOptions options_;

  mesh::MeshPatch patch_;  // local PM brick in global coordinates
  hybrid::TreePmDerived treepm_derived_;

  mesh::Grid3D<double> rho_cdm_, rho_nu_;          // local PM bricks
  mesh::Grid3D<double> gx_cdm_, gy_cdm_, gz_cdm_;  // filtered (particles)
  mesh::Grid3D<double> gx_nu_, gy_nu_, gz_nu_;     // full (Vlasov kicks)
  mesh::Grid3D<double> nu_ax_, nu_ay_, nu_az_;     // accel on local f grid
  mesh::Grid3D<double> rho_v_;                     // nu moment scratch
  std::vector<double> ax_, ay_, az_;               // particle accelerations
  std::vector<std::size_t> owned_;  // this rank's ownership split, refreshed
                                    // once per force assembly
  bool forces_fresh_ = false;
  bool has_nu_ = false;
  bool overlap_ = true;
  bool split_sweeps_ = true;  // interior/boundary split of overlapped drifts
                              // (V6D_OVERLAP_SPLIT=on|off|auto; auto engages
                              // it only when hardware threads can actually
                              // run ranks concurrently — the split re-reads
                              // stencil margins, which pays only when there
                              // is real concurrency to hide latency behind)

  // Exchange plans + persistent buffers (no steady-state allocation on
  // the stepping path).
  mesh::HaloPlan ps_plan_;                   // split phase-space faces
  mesh::GridFoldPlan fold_cdm_, fold_nu_;    // split deposit folds
  SlabExchange slab_cdm_x_, slab_nu_x_;      // brick -> slab (densities)
  SlabExchange slab_out_;                    // slab -> brick (forces)
  vlasov::PositionBoundarySlabs boundary_;   // pre-sweep shell windows
  std::vector<double> green_long_, green_short_, green_nu_;  // mode tables
  std::vector<fft::cplx> phi_, spec_;

  TimerRegistry timers_;
};

}  // namespace v6d::parallel
