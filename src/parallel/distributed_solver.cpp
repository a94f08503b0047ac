#include "parallel/distributed_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/trace.hpp"
#include "mesh/halo.hpp"
#include "mesh/interp.hpp"
#include "parallel/decomp_plan.hpp"
#include "vlasov/splitting.hpp"

namespace v6d::parallel {

namespace {

// Message-tag bases of the exchange plans; distinct from each other and
// from mesh::exchange_grid_halo's (150..161), so a message of one exchange
// can never be claimed by another that is in flight at the same time.
constexpr int kPsHaloTagBase = 300;   // phase-space faces (axis*4 + dir)
constexpr int kFoldCdmTagBase = 340;  // CDM density fold
constexpr int kFoldNuTagBase = 360;   // neutrino density fold
constexpr int kSlabCdmTagBase = 380;  // rho_cdm brick -> slab
constexpr int kSlabNuTagBase = 384;   // rho_nu brick -> slab
constexpr int kSlabOutTagBase = 388;  // force slab -> brick

/// Should the overlapped drift split sweeps into interior + boundary
/// shells?  The split buys latency hiding at the price of re-reading the
/// stencil margins (up to (n + 6g) / (n + 2g) more strided loads per
/// line), so it only pays when rank threads actually run concurrently.
/// V6D_OVERLAP_SPLIT=on|off overrides; auto (default) asks the hardware.
bool resolve_split_sweeps() {
  if (const char* env = std::getenv("V6D_OVERLAP_SPLIT")) {
    const std::string v(env);
    if (v == "on" || v == "1") return true;
    if (v == "off" || v == "0") return false;
  }
  return std::thread::hardware_concurrency() > 1;
}

/// Local phase-space brick of the global f: same geometry with the origin
/// shifted to this rank's offset, interior blocks copied.
vlasov::PhaseSpace make_local_brick(const vlasov::PhaseSpace& global,
                                    const mesh::BrickDecomposition& dec) {
  vlasov::PhaseSpaceDims dims = global.dims();
  dims.nx = dec.local_n(0);
  dims.ny = dec.local_n(1);
  dims.nz = dec.local_n(2);
  vlasov::PhaseSpaceGeometry geom = global.geom();
  geom.x0 += dec.offset(0) * geom.dx;
  geom.y0 += dec.offset(1) * geom.dy;
  geom.z0 += dec.offset(2) * geom.dz;
  vlasov::PhaseSpace local(dims, geom);
  const std::size_t bytes = global.block_size() * sizeof(float);
  for (int i = 0; i < dims.nx; ++i)
    for (int j = 0; j < dims.ny; ++j)
      for (int k = 0; k < dims.nz; ++k)
        std::memcpy(local.block(i, j, k),
                    global.block(dec.offset(0) + i, dec.offset(1) + j,
                                 dec.offset(2) + k),
                    bytes);
  return local;
}

}  // namespace

DistributedHybridSolver::DistributedHybridSolver(
    const hybrid::HybridSolver& global, comm::Communicator& comm,
    std::array<int, 3> decomp, bool overlap)
    : comm_(comm),
      cart_(comm, decomp),
      pfft_(comm, global.options().pm_grid),
      cdm_(global.cdm()),
      box_(global.box()),
      background_(global.background()),
      options_(global.options()),
      overlap_(overlap),
      split_sweeps_(overlap && resolve_split_sweeps()) {
  const auto& gd = global.neutrinos().dims();
  has_nu_ = gd.total_interior() > 0;

  DecompConstraints constraints;
  if (has_nu_) constraints.vlasov = {gd.nx, gd.ny, gd.nz};
  constraints.pm_grid = options_.pm_grid;
  constraints.vlasov_ghost = gd.ghost;
  validate_decomp(decomp, comm.size(), constraints);

  dec_ = mesh::BrickDecomposition({gd.nx, gd.ny, gd.nz}, decomp,
                                  cart_.coords());
  pm_dec_ = mesh::BrickDecomposition(
      {options_.pm_grid, options_.pm_grid, options_.pm_grid}, decomp,
      cart_.coords());

  if (has_nu_) f_ = make_local_brick(global.neutrinos(), dec_);

  patch_.box = box_;
  patch_.n_global = options_.pm_grid;
  for (int a = 0; a < 3; ++a) patch_.offset[a] = pm_dec_.offset(a);

  treepm_derived_ = hybrid::TreePmDerived::from(options_, box_);

  const int lx = pm_dec_.local_n(0), ly = pm_dec_.local_n(1),
            lz = pm_dec_.local_n(2);
  rho_cdm_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  rho_nu_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gx_cdm_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gy_cdm_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gz_cdm_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gx_nu_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gy_nu_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  gz_nu_ = mesh::Grid3D<double>(lx, ly, lz, 2);
  nu_ax_ = mesh::Grid3D<double>(dec_.local_n(0), dec_.local_n(1),
                                dec_.local_n(2));
  nu_ay_ = nu_ax_;
  nu_az_ = nu_ax_;
  if (has_nu_) {
    rho_v_ = mesh::Grid3D<double>(dec_.local_n(0), dec_.local_n(1),
                                  dec_.local_n(2));
    ps_plan_ = mesh::HaloPlan(cart_, f_.dims(), kPsHaloTagBase);
  }

  // Exchange plans (both schedules run them).
  fold_cdm_ = mesh::GridFoldPlan(cart_, kFoldCdmTagBase);
  fold_nu_ = mesh::GridFoldPlan(cart_, kFoldNuTagBase);
  slab_cdm_x_ = SlabExchange(pm_dec_, pfft_, cart_, kSlabCdmTagBase);
  if (has_nu_) slab_nu_x_ = SlabExchange(pm_dec_, pfft_, cart_, kSlabNuTagBase);
  slab_out_ = SlabExchange(pm_dec_, pfft_, cart_, kSlabOutTagBase);

  // Carry a fresh step-boundary force cache across the serial/distributed
  // seam (resume path): recomputing it would only match to rounding.
  const auto sf = global.export_step_forces();
  if (sf.fresh) import_step_forces_global(sf);
}

bool DistributedHybridSolver::owns_particle(std::size_t i) const {
  // Ownership by the containing PM cell: a disjoint, exhaustive split of
  // the replicated particle set.  Both the deposit and the force gather
  // must use exactly this rule or allreduce-summed contributions would be
  // dropped or doubled.
  const int n = options_.pm_grid;
  const double inv_h = n / box_;
  const double pos[3] = {cdm_.x[i], cdm_.y[i], cdm_.z[i]};
  for (int axis = 0; axis < 3; ++axis) {
    double c = pos[axis] * inv_h;
    c -= n * std::floor(c / n);
    const int cell = std::min(n - 1, static_cast<int>(std::floor(c)));
    if (cell < pm_dec_.offset(axis) ||
        cell >= pm_dec_.offset(axis) + pm_dec_.local_n(axis))
      return false;
  }
  return true;
}

void DistributedHybridSolver::deposit_cdm_local() {
  trace::Span span("deposit");
  rho_cdm_.fill(0.0);
  if (cdm_.size() == 0) return;
  // Particles are replicated; each rank deposits only the ones it owns
  // (owned_ is refreshed once per force assembly), spilling CIC weight
  // into ghosts that the fold hands to the owning neighbor.
  std::vector<double> px, py, pz;
  px.reserve(owned_.size());
  py.reserve(owned_.size());
  pz.reserve(owned_.size());
  for (const std::size_t i : owned_) {
    px.push_back(cdm_.x[i]);
    py.push_back(cdm_.y[i]);
    pz.push_back(cdm_.z[i]);
  }
  mesh::deposit(rho_cdm_, patch_, px, py, pz, cdm_.mass,
                mesh::Assignment::kCic);
}

void DistributedHybridSolver::compute_nu_moment() {
  // 0th moment of the local brick (heavy: reduces the full velocity cube
  // per spatial cell — the overlap partner of the CDM ghost fold).
  vlasov::compute_density(f_, rho_v_);
}

void DistributedHybridSolver::inject_nu_density() {
  trace::Span span("deposit");
  // Inject the moment onto the local PM brick cell by cell (mirrors
  // HybridSolver::deposit_nu_density; cell centers are global coordinates
  // because the brick geometry origin is shifted).
  const auto& d = f_.dims();
  const auto& g = f_.geom();
  rho_nu_.fill(0.0);
  const double cell_mass_factor = g.dvol();
  std::vector<double> px(1), py(1), pz(1);
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        px[0] = g.x(ix);
        py[0] = g.y(iy);
        pz[0] = g.z(iz);
        const double mass = rho_v_.at(ix, iy, iz) * cell_mass_factor;
        mesh::deposit(rho_nu_, patch_, px, py, pz, mass,
                      mesh::Assignment::kCic);
      }
}

void DistributedHybridSolver::prepare_green_tables(
    const gravity::PoissonOptions& cdm_long,
    const gravity::PoissonOptions& cdm_short,
    const gravity::PoissonOptions& nu_opts) {
  // Per-mode Green x window multipliers in for_each_mode order.  The
  // tables hold exactly the doubles the inline evaluation would produce,
  // so using them changes nothing numerically — it only moves the
  // transcendental-heavy loop off the communication's critical path (they
  // are computed while the brick -> slab messages fly).
  const int n = options_.pm_grid;
  const int lny = pfft_.local_ny();
  const std::size_t modes = static_cast<std::size_t>(lny) * n * n;
  green_long_.resize(modes);
  green_short_.resize(modes);
  if (has_nu_) green_nu_.resize(modes);
#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static)
#endif
  for (int y = 0; y < lny; ++y)
    for (int x = 0; x < n; ++x) {
      const int by = pfft_.y_offset() + y;
      std::size_t m = (static_cast<std::size_t>(y) * n + x) * n;
      for (int z = 0; z < n; ++z, ++m) {
        green_long_[m] = gravity::green_times_window(x, by, z, n, n, n, box_,
                                                     box_, box_, cdm_long);
        green_short_[m] = gravity::green_times_window(x, by, z, n, n, n,
                                                      box_, box_, box_,
                                                      cdm_short);
        if (has_nu_)
          green_nu_[m] = gravity::green_times_window(x, by, z, n, n, n, box_,
                                                     box_, box_, nu_opts);
      }
    }
}

void DistributedHybridSolver::compute_forces(double a) {
  const double prefactor = hybrid::HybridSolver::poisson_prefactor(a);
  const int n = options_.pm_grid;

  // Ownership split of the replicated particle set, computed once per
  // force assembly (positions are fixed between the deposit and the
  // gather below).
  owned_.clear();
  for (std::size_t i = 0; i < cdm_.size(); ++i)
    if (owns_particle(i)) owned_.push_back(i);

  gravity::PoissonOptions cdm_opts;
  cdm_opts.prefactor = prefactor;
  cdm_opts.deconvolve_order = 2;  // CIC
  cdm_opts.green = gravity::GreenFunction::kExactK2;
  gravity::PoissonOptions cdm_long = cdm_opts;
  cdm_long.longrange_split_rs = options_.enable_tree ? treepm_derived_.rs : 0.0;
  gravity::PoissonOptions nu_opts;
  nu_opts.prefactor = prefactor;
  nu_opts.deconvolve_order = 0;

  // --- densities (deposit + ghost fold), bricks -> x-slabs ---
  // Every exchange is begun as soon as its input is ready and finished
  // where its output is needed.  Without overlap each finish also runs
  // right after its begin, which makes the later one a no-op.
  //
  // The CDM ghost-fold sends fly while the (heavy, local) Vlasov moment
  // accumulates.
  {
    ScopedTimer t(timers_, "pm");
    deposit_cdm_local();
    fold_cdm_.begin(rho_cdm_);
    if (!overlap_) fold_cdm_.finish(rho_cdm_);
  }
  if (has_nu_) {
    ScopedTimer t(timers_, "vlasov-moments");
    compute_nu_moment();
  }
  {
    ScopedTimer t(timers_, "pm");
    fold_cdm_.finish(rho_cdm_);
  }
  if (has_nu_) {
    {
      ScopedTimer t(timers_, "vlasov-moments");
      inject_nu_density();
    }
    ScopedTimer t(timers_, "pm");
    fold_nu_.begin(rho_nu_);
    if (!overlap_) fold_nu_.finish(rho_nu_);
  }

  {
    ScopedTimer t(timers_, "pm");
    // The CDM redistribution (and the still-flying nu fold) overlap the
    // Green-function tables; the nu redistribution overlaps the CDM
    // forward transform.
    slab_cdm_x_.begin_to_slab(rho_cdm_);
    if (!overlap_) slab_cdm_x_.finish_to_slab();
    prepare_green_tables(cdm_long, cdm_opts, nu_opts);
    if (has_nu_) {
      fold_nu_.finish(rho_nu_);
      slab_nu_x_.begin_to_slab(rho_nu_);
      if (!overlap_) slab_nu_x_.finish_to_slab();
    }
    std::vector<fft::cplx>* slab_cdm = &slab_cdm_x_.finish_to_slab();
    {
      trace::Span fft_span("fft-forward");
      pfft_.forward(*slab_cdm);
    }
    std::vector<fft::cplx>* slab_nu = nullptr;
    if (has_nu_) {
      slab_nu = &slab_nu_x_.finish_to_slab();
      trace::Span fft_span("fft-forward");
      pfft_.forward(*slab_nu);
    }

    // One force set = the combined potential of both species under the
    // given CDM green table, differentiated spectrally (-i k_d) and
    // brought back to brick layout per component.  phi_k is evaluated once
    // per mode (as in the serial PoissonSolver::solve_forces); only the
    // cheap -i k_d multiply runs per direction.  Each component's slab ->
    // brick return flies during the next component's spectral multiply +
    // inverse FFT.
    auto solve_set = [&](const std::vector<double>& green,
                         mesh::Grid3D<double>& gx, mesh::Grid3D<double>& gy,
                         mesh::Grid3D<double>& gz) {
      phi_.resize(slab_cdm->size());
      std::size_t m = 0;
      pfft_.for_each_mode(*slab_cdm, [&](int, int, int, fft::cplx& value) {
        fft::cplx phi_k = value * green[m];
        if (has_nu_) phi_k += (*slab_nu)[m] * green_nu_[m];
        phi_[m] = phi_k;
        ++m;
      });
      mesh::Grid3D<double>* outs[3] = {&gx, &gy, &gz};
      // Complete component d's slab -> brick return, then its ghosts.
      const auto land = [&](int d) {
        slab_out_.finish_to_brick(*outs[d]);
        mesh::exchange_grid_halo(*outs[d], cart_);
      };
      for (int d = 0; d < 3; ++d) {
        spec_.resize(phi_.size());
        m = 0;
        pfft_.for_each_mode(spec_, [&](int bx, int by, int bz, fft::cplx& s) {
          const int bin = d == 0 ? bx : d == 1 ? by : bz;
          const double k_d = gravity::fft_wavenumber(bin, n, box_);
          s = fft::cplx(0.0, -1.0) * k_d * phi_[m];
          ++m;
        });
        {
          trace::Span fft_span("fft-inverse");
          pfft_.inverse_normalized(spec_);
        }
        if (d > 0) land(d - 1);
        slab_out_.begin_to_brick(spec_);
        if (!overlap_) slab_out_.finish_to_brick(*outs[d]);
      }
      land(2);
    };
    solve_set(green_long_, gx_cdm_, gy_cdm_, gz_cdm_);
    solve_set(green_short_, gx_nu_, gy_nu_, gz_nu_);

    // Particle long-range gather: each rank interpolates at the particles
    // its brick owns (the same split as the deposit), the disjoint
    // contributions are summed into the replicated acceleration arrays.
    ax_.assign(cdm_.size(), 0.0);
    ay_.assign(cdm_.size(), 0.0);
    az_.assign(cdm_.size(), 0.0);
    if (cdm_.size() > 0) {
      for (const std::size_t i : owned_) {
        ax_[i] = mesh::interpolate(gx_cdm_, patch_, cdm_.x[i], cdm_.y[i],
                                   cdm_.z[i], mesh::Assignment::kCic);
        ay_[i] = mesh::interpolate(gy_cdm_, patch_, cdm_.x[i], cdm_.y[i],
                                   cdm_.z[i], mesh::Assignment::kCic);
        az_[i] = mesh::interpolate(gz_cdm_, patch_, cdm_.x[i], cdm_.y[i],
                                   cdm_.z[i], mesh::Assignment::kCic);
      }
      comm_.allreduce_sum(ax_.data(), ax_.size());
      comm_.allreduce_sum(ay_.data(), ay_.size());
      comm_.allreduce_sum(az_.data(), az_.size());
    }

    // Vlasov-grid acceleration sampling on the local brick.
    if (has_nu_) {
      const auto& d = f_.dims();
      const auto& g = f_.geom();
      for (int ix = 0; ix < d.nx; ++ix)
        for (int iy = 0; iy < d.ny; ++iy)
          for (int iz = 0; iz < d.nz; ++iz) {
            const double x = g.x(ix), y = g.y(iy), z = g.z(iz);
            nu_ax_.at(ix, iy, iz) = mesh::interpolate(
                gx_nu_, patch_, x, y, z, mesh::Assignment::kCic);
            nu_ay_.at(ix, iy, iz) = mesh::interpolate(
                gy_nu_, patch_, x, y, z, mesh::Assignment::kCic);
            nu_az_.at(ix, iy, iz) = mesh::interpolate(
                gz_nu_, patch_, x, y, z, mesh::Assignment::kCic);
          }
    }
  }
  timers_.add("fold-wait", fold_cdm_.take_wait() + fold_nu_.take_wait());
  timers_.add("slab-wait", slab_cdm_x_.take_wait() + slab_nu_x_.take_wait() +
                               slab_out_.take_wait());

  // --- tree short-range: replicated over the replicated particle set,
  //     identical on every rank (the serial solver's exact block) ---
  if (options_.enable_tree && cdm_.size() > 0) {
    ScopedTimer t(timers_, "tree");
    hybrid::add_tree_accelerations(cdm_, box_, options_, treepm_derived_,
                                   prefactor, ax_, ay_, az_);
  }
  forces_fresh_ = true;
}

void DistributedHybridSolver::drift(double drift_factor) {
  if (drift_factor == 0.0) return;
  // Same operator sequence and subcycling as vlasov::drift_full: per axis,
  // post the single-axis face exchange, advect the ghost-independent
  // interior while the messages fly, then complete the exchange and sweep
  // the two boundary shells from their pre-sweep windows.  Bit-identical
  // to a serial drift_full because a position sweep along an axis reads
  // only that axis' ghosts at interior transverse positions, and every
  // restricted range sees the same stencil values as the full-line sweep.
  const double max_shift = vlasov::max_position_shift(f_, drift_factor);
  const int cycles =
      std::max(1, static_cast<int>(std::ceil(max_shift / 0.999)));
  const double sub = drift_factor / cycles;
  const int g = f_.dims().ghost;
  for (int axis : {2, 1, 0}) {
    const auto& ap = ps_plan_.axis(axis);
    for (int c = 0; c < cycles; ++c) {
      if (!ap.split || !split_sweeps_) {
        // Undecomposed (local wrap), thinner than 2*ghost, no overlap, or
        // the split heuristic disengaged: complete the exchange at once,
        // then the full-line sweep.  Timed under its own bucket so the
        // interior/boundary metrics always describe the split pipeline
        // alone.
        {
          ScopedTimer t(timers_, "halo");
          ps_plan_.begin_axis(f_, axis);
          ps_plan_.finish_axis(f_, axis);
        }
        ScopedTimer t(timers_, "sweep-full");
        vlasov::advect_position_axis(f_, axis, sub, options_.kernel);
        continue;
      }
      {
        ScopedTimer t(timers_, "halo");
        ps_plan_.begin_axis(f_, axis);
      }
      {
        ScopedTimer t(timers_, "sweep-boundary");
        vlasov::save_position_boundary(f_, axis, boundary_);
      }
      {
        ScopedTimer t(timers_, "sweep-interior");
        vlasov::advect_position_axis_range(f_, axis, sub, options_.kernel, g,
                                           ap.n - g);
      }
      {
        // Faces land straight in the boundary windows (same layout as the
        // packed payload), skipping the f-ghost unpack + window reload.
        ScopedTimer t(timers_, "halo");
        ps_plan_.finish_axis_into(
            boundary_.lo.data(),
            boundary_.hi.data() + 2 * ap.face_floats, axis);
      }
      {
        ScopedTimer t(timers_, "sweep-boundary");
        vlasov::advect_position_axis_boundary(f_, axis, sub, options_.kernel,
                                              boundary_);
      }
    }
  }
  timers_.add("halo-wait", ps_plan_.take_wait());
}

void DistributedHybridSolver::step(double a0, double a1) {
  const double a_mid = 0.5 * (a0 + a1);
  if (!forces_fresh_) compute_forces(a0);

  const double kick_pre = background_.kick_factor(a0, a_mid);
  if (has_nu_) {
    ScopedTimer t(timers_, "vlasov");
    trace::Span kick_span("kick");
    vlasov::kick_half(f_, nu_ax_, nu_ay_, nu_az_, kick_pre, options_.kernel);
  }
  nbody::kick(cdm_, ax_, ay_, az_, kick_pre);

  const double drift_f = background_.drift_factor(a0, a1);
  if (has_nu_) {
    ScopedTimer t(timers_, "vlasov");
    drift(drift_f);
  }
  nbody::drift(cdm_, drift_f, box_);

  compute_forces(a1);

  const double kick_post = background_.kick_factor(a_mid, a1);
  if (has_nu_) {
    ScopedTimer t(timers_, "vlasov");
    trace::Span kick_span("kick");
    vlasov::kick_half(f_, nu_ax_, nu_ay_, nu_az_, kick_post, options_.kernel);
  }
  nbody::kick(cdm_, ax_, ay_, az_, kick_post);
}

double DistributedHybridSolver::suggest_next_a(double a0, double da_max) {
  if (!has_nu_) return a0 + da_max;
  // Same backoff iteration as the serial solver; the local shift bound is
  // geometry-only today, but the allreduce keeps every rank's decision
  // identical by construction even if it becomes state-dependent.
  return hybrid::cfl_limited_step(a0, da_max, options_.cfl, [&](double a1) {
    return comm_.allreduce_max(
        vlasov::max_position_shift(f_, background_.drift_factor(a0, a1)));
  });
}

double DistributedHybridSolver::total_mass() {
  const double local = has_nu_ ? f_.total_mass() : 0.0;
  double mass = comm_.allreduce_sum(local);
  mass += cdm_.mass * static_cast<double>(cdm_.size());
  return mass;
}

hybrid::HybridSolver::StepForces
DistributedHybridSolver::export_step_forces_global() {
  hybrid::HybridSolver::StepForces out;
  out.fresh = forces_fresh_;
  if (!forces_fresh_) return out;
  const auto global = dec_.global();
  out.nu_ax = mesh::Grid3D<double>(global[0], global[1], global[2]);
  out.nu_ay = out.nu_ax;
  out.nu_az = out.nu_ax;
  if (has_nu_) {
    allgather_bricks(nu_ax_, dec_, comm_, out.nu_ax);
    allgather_bricks(nu_ay_, dec_, comm_, out.nu_ay);
    allgather_bricks(nu_az_, dec_, comm_, out.nu_az);
  }
  out.ax = ax_;
  out.ay = ay_;
  out.az = az_;
  return out;
}

void DistributedHybridSolver::import_step_forces_global(
    const hybrid::HybridSolver::StepForces& sf) {
  if (!sf.fresh) {
    forces_fresh_ = false;
    return;
  }
  const auto global = dec_.global();
  if (sf.nu_ax.nx() != global[0] || sf.nu_ax.ny() != global[1] ||
      sf.nu_ax.nz() != global[2] || sf.ax.size() != cdm_.size())
    throw std::runtime_error(
        "distributed force cache does not match the configured shape");
  for (int i = 0; i < dec_.local_n(0); ++i)
    for (int j = 0; j < dec_.local_n(1); ++j)
      for (int k = 0; k < dec_.local_n(2); ++k) {
        const int gi = dec_.offset(0) + i, gj = dec_.offset(1) + j,
                  gk = dec_.offset(2) + k;
        nu_ax_.at(i, j, k) = sf.nu_ax.at(gi, gj, gk);
        nu_ay_.at(i, j, k) = sf.nu_ay.at(gi, gj, gk);
        nu_az_.at(i, j, k) = sf.nu_az.at(gi, gj, gk);
      }
  ax_ = sf.ax;
  ay_ = sf.ay;
  az_ = sf.az;
  forces_fresh_ = true;
}

void DistributedHybridSolver::gather_into(hybrid::HybridSolver& global,
                                          bool via_messages) {
  if (has_nu_ && !via_messages) {
    // Thread ranks share the global solver: each writes its own disjoint
    // brick in place.
    vlasov::PhaseSpace& gf = global.neutrinos();
    const std::size_t bytes = gf.block_size() * sizeof(float);
    for (int i = 0; i < dec_.local_n(0); ++i)
      for (int j = 0; j < dec_.local_n(1); ++j)
        for (int k = 0; k < dec_.local_n(2); ++k)
          std::memcpy(gf.block(dec_.offset(0) + i, dec_.offset(1) + j,
                               dec_.offset(2) + k),
                      f_.block(i, j, k), bytes);
  } else if (has_nu_) {
    // Process ranks do not: ship each brick to rank 0 as one message —
    // [6 x int32 placement header][blocks in i,j,k order] — and let rank 0
    // place them by the sender's own offsets (mirrors the shard-resume
    // placement logic, so the two paths agree on layout).
    const std::size_t block_floats = f_.block_size();
    const auto pack = [&](std::vector<std::uint8_t>& buf) {
      const std::int32_t header[6] = {dec_.offset(0), dec_.offset(1),
                                      dec_.offset(2), dec_.local_n(0),
                                      dec_.local_n(1), dec_.local_n(2)};
      const std::size_t bytes = block_floats * sizeof(float);
      buf.resize(sizeof(header) + static_cast<std::size_t>(dec_.local_n(0)) *
                                      dec_.local_n(1) * dec_.local_n(2) *
                                      bytes);
      std::memcpy(buf.data(), header, sizeof(header));
      std::size_t at = sizeof(header);
      for (int i = 0; i < dec_.local_n(0); ++i)
        for (int j = 0; j < dec_.local_n(1); ++j)
          for (int k = 0; k < dec_.local_n(2); ++k) {
            std::memcpy(buf.data() + at, f_.block(i, j, k), bytes);
            at += bytes;
          }
    };
    if (comm_.rank() == 0) {
      vlasov::PhaseSpace& gf = global.neutrinos();
      const std::size_t bytes = gf.block_size() * sizeof(float);
      for (int i = 0; i < dec_.local_n(0); ++i)
        for (int j = 0; j < dec_.local_n(1); ++j)
          for (int k = 0; k < dec_.local_n(2); ++k)
            std::memcpy(gf.block(dec_.offset(0) + i, dec_.offset(1) + j,
                                 dec_.offset(2) + k),
                        f_.block(i, j, k), bytes);
      const int global_n[3] = {gf.dims().nx, gf.dims().ny, gf.dims().nz};
      for (int r = 1; r < comm_.size(); ++r) {
        const auto buf = comm_.recv_bytes(r, kGatherTag);
        std::int32_t header[6];
        if (buf.size() < sizeof(header))
          throw std::runtime_error("gather_into: truncated brick message");
        std::memcpy(header, buf.data(), sizeof(header));
        // PhaseSpace::block does no bounds check: a peer started with
        // another decomposition (or a corrupt frame) must not place its
        // brick outside the global grid.
        for (int a = 0; a < 3; ++a)
          if (header[a] < 0 || header[3 + a] < 0 ||
              header[3 + a] > global_n[a] - header[a])
            throw std::runtime_error("gather_into: brick placement header "
                                     "lies outside the global grid");
        std::size_t at = sizeof(header);
        if (buf.size() != sizeof(header) +
                              static_cast<std::size_t>(header[3]) *
                                  header[4] * header[5] * bytes)
          throw std::runtime_error("gather_into: brick message size "
                                   "disagrees with its placement header");
        for (int i = 0; i < header[3]; ++i)
          for (int j = 0; j < header[4]; ++j)
            for (int k = 0; k < header[5]; ++k) {
              std::memcpy(gf.block(header[0] + i, header[1] + j,
                                   header[2] + k),
                          buf.data() + at, bytes);
              at += bytes;
            }
      }
    } else {
      std::vector<std::uint8_t> buf;
      pack(buf);
      comm_.send_bytes(0, kGatherTag, buf.data(), buf.size());
    }
  }
  const auto forces = export_step_forces_global();  // collective
  if (comm_.rank() == 0) {
    global.cdm() = cdm_;
    if (forces.fresh) global.import_step_forces(forces);
  }
  comm_.barrier();
}

}  // namespace v6d::parallel
