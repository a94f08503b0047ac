#include "hybrid/hybrid_solver.hpp"

#include <cmath>

#include "common/trace.hpp"
#include "mesh/interp.hpp"

namespace v6d::hybrid {

TreePmDerived TreePmDerived::from(const HybridOptions& options, double box) {
  TreePmDerived d;
  const double h = box / options.pm_grid;
  d.rs = options.treepm.rs_cells * h;
  d.rcut = options.treepm.rcut_over_rs * d.rs;
  d.eps = options.treepm.eps_cells * h;
  d.poly = gravity::CutoffPoly(options.treepm.rcut_over_rs / 2.0,
                               options.treepm.cutoff_poly_degree);
  return d;
}

void add_tree_accelerations(const nbody::Particles& cdm, double box,
                            const HybridOptions& options,
                            const TreePmDerived& derived, double prefactor,
                            std::vector<double>& ax, std::vector<double>& ay,
                            std::vector<double>& az) {
  if (!options.enable_tree || cdm.size() == 0) return;
  const double g_pair = prefactor / (4.0 * M_PI);
  gravity::BarnesHutTree tree(cdm, box, options.treepm.leaf_size);
  gravity::PpKernelParams params;
  params.eps = derived.eps;
  params.rs = derived.rs;
  params.rcut = derived.rcut;
  std::vector<double> tx(cdm.size(), 0.0), ty(cdm.size(), 0.0),
      tz(cdm.size(), 0.0);
  tree.accelerations(cdm, params, derived.poly, options.treepm.theta,
                     options.treepm.use_simd, tx, ty, tz);
  for (std::size_t i = 0; i < cdm.size(); ++i) {
    ax[i] += g_pair * tx[i];
    ay[i] += g_pair * ty[i];
    az[i] += g_pair * tz[i];
  }
}

double cfl_limited_step(double a0, double da_max, double cfl,
                        const std::function<double(double)>& max_shift) {
  double a1 = a0 + da_max;
  for (int it = 0; it < 20; ++it) {
    const double shift = max_shift(a1);
    if (shift <= cfl) break;
    // Shift is nearly linear in (a1 - a0): rescale and re-check.
    const double scale = cfl / shift;
    a1 = a0 + (a1 - a0) * std::min(0.95, scale);
  }
  return a1;
}

HybridSolver::HybridSolver(vlasov::PhaseSpace f, nbody::Particles cdm,
                           double box, const cosmo::Background& background,
                           const HybridOptions& options)
    : f_(std::move(f)),
      cdm_(std::move(cdm)),
      box_(box),
      background_(background),
      options_(options),
      poisson_(options.pm_grid, box),
      rho_cdm_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      rho_nu_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      gx_cdm_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      gy_cdm_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      gz_cdm_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      gx_nu_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      gy_nu_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      gz_nu_(options.pm_grid, options.pm_grid, options.pm_grid, 2),
      nu_ax_(f_.dims().nx, f_.dims().ny, f_.dims().nz),
      nu_ay_(f_.dims().nx, f_.dims().ny, f_.dims().nz),
      nu_az_(f_.dims().nx, f_.dims().ny, f_.dims().nz) {
  patch_.box = box;
  patch_.n_global = options.pm_grid;
  treepm_derived_ = TreePmDerived::from(options, box);
  has_nu_ = f_.dims().total_interior() > 0;
}

void HybridSolver::deposit_nu_density() {
  // 0th moment on the Vlasov spatial grid, then conservative injection
  // onto the PM mesh: every Vlasov cell deposits its mass (rho * dvol) at
  // its center with CIC.  When the two grids coincide, CIC at cell
  // centers reduces to the identity.
  const auto& d = f_.dims();
  const auto& g = f_.geom();
  mesh::Grid3D<double> rho_v(d.nx, d.ny, d.nz);
  vlasov::compute_density(f_, rho_v);

  rho_nu_.fill(0.0);
  const double cell_mass_factor = g.dvol();
  std::vector<double> px(1), py(1), pz(1);
  for (int ix = 0; ix < d.nx; ++ix)
    for (int iy = 0; iy < d.ny; ++iy)
      for (int iz = 0; iz < d.nz; ++iz) {
        px[0] = g.x(ix);
        py[0] = g.y(iy);
        pz[0] = g.z(iz);
        const double mass = rho_v.at(ix, iy, iz) * cell_mass_factor;
        mesh::deposit(rho_nu_, patch_, px, py, pz, mass,
                      mesh::Assignment::kCic);
      }
  rho_nu_.fold_ghosts_periodic();
}

void HybridSolver::compute_forces(double a) {
  const double prefactor = poisson_prefactor(a);

  // --- densities ---
  {
    ScopedTimer t(timers_, "pm");
    rho_cdm_.fill(0.0);
    mesh::deposit(rho_cdm_, patch_, cdm_.x, cdm_.y, cdm_.z, cdm_.mass,
                  mesh::Assignment::kCic);
    rho_cdm_.fold_ghosts_periodic();
  }
  if (has_nu_) {
    ScopedTimer t(timers_, "vlasov-moments");
    deposit_nu_density();
  }

  // --- mesh force solves ---
  {
    ScopedTimer t(timers_, "pm");
    gravity::PoissonOptions cdm_opts;
    cdm_opts.prefactor = prefactor;
    cdm_opts.deconvolve_order = 2;  // CIC
    cdm_opts.green = gravity::GreenFunction::kExactK2;

    // (a) filtered CDM field for the particle long-range force.
    gravity::PoissonOptions cdm_long = cdm_opts;
    cdm_long.longrange_split_rs =
        options_.enable_tree ? treepm_derived_.rs : 0.0;
    poisson_.solve_forces(rho_cdm_, gx_cdm_, gy_cdm_, gz_cdm_, cdm_long);

    // (b) full CDM field for the Vlasov kicks.
    poisson_.solve_forces(rho_cdm_, gx_nu_, gy_nu_, gz_nu_, cdm_opts);

    if (has_nu_) {
      // (c) full neutrino field: add to both force sets (no deconvolution
      // — the moment field was injected, not particle-deposited).
      gravity::PoissonOptions nu_opts;
      nu_opts.prefactor = prefactor;
      nu_opts.deconvolve_order = 0;
      mesh::Grid3D<double> tx(options_.pm_grid, options_.pm_grid,
                              options_.pm_grid, 2),
          ty(options_.pm_grid, options_.pm_grid, options_.pm_grid, 2),
          tz(options_.pm_grid, options_.pm_grid, options_.pm_grid, 2);
      poisson_.solve_forces(rho_nu_, tx, ty, tz, nu_opts);
      for (int i = 0; i < options_.pm_grid; ++i)
        for (int j = 0; j < options_.pm_grid; ++j)
          for (int k = 0; k < options_.pm_grid; ++k) {
            gx_cdm_.at(i, j, k) += tx.at(i, j, k);
            gy_cdm_.at(i, j, k) += ty.at(i, j, k);
            gz_cdm_.at(i, j, k) += tz.at(i, j, k);
            gx_nu_.at(i, j, k) += tx.at(i, j, k);
            gy_nu_.at(i, j, k) += ty.at(i, j, k);
            gz_nu_.at(i, j, k) += tz.at(i, j, k);
          }
    }
    gx_cdm_.fill_ghosts_periodic();
    gy_cdm_.fill_ghosts_periodic();
    gz_cdm_.fill_ghosts_periodic();
    gx_nu_.fill_ghosts_periodic();
    gy_nu_.fill_ghosts_periodic();
    gz_nu_.fill_ghosts_periodic();

    // Particle long-range gather.
    ax_.assign(cdm_.size(), 0.0);
    ay_.assign(cdm_.size(), 0.0);
    az_.assign(cdm_.size(), 0.0);
    mesh::gather_forces(gx_cdm_, gy_cdm_, gz_cdm_, patch_, cdm_.x, cdm_.y,
                        cdm_.z, ax_, ay_, az_, mesh::Assignment::kCic);

    // Vlasov-grid acceleration sampling (CIC from the PM mesh at Vlasov
    // cell centers; identity when the grids match).
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

  // --- tree short-range (CDM only) ---
  if (options_.enable_tree && cdm_.size() > 0) {
    ScopedTimer t(timers_, "tree");
    add_tree_accelerations(cdm_, box_, options_, treepm_derived_, prefactor,
                           ax_, ay_, az_);
  }
  forces_fresh_ = true;
}

void HybridSolver::step(double a0, double a1) {
  const double a_mid = 0.5 * (a0 + a1);
  if (!forces_fresh_) compute_forces(a0);

  const double kick_pre = background_.kick_factor(a0, a_mid);
  if (has_nu_) {
    ScopedTimer t(timers_, "vlasov");
    trace::Span kick_span("kick");
    vlasov::kick_half(f_, nu_ax_, nu_ay_, nu_az_, kick_pre,
                      options_.kernel);
  }
  nbody::kick(cdm_, ax_, ay_, az_, kick_pre);

  const double drift_f = background_.drift_factor(a0, a1);
  if (has_nu_) {
    ScopedTimer t(timers_, "vlasov");
    vlasov::drift_full(f_, drift_f, options_.kernel,
                       vlasov::periodic_halo_filler());
  }
  nbody::drift(cdm_, drift_f, box_);

  compute_forces(a1);

  const double kick_post = background_.kick_factor(a_mid, a1);
  if (has_nu_) {
    ScopedTimer t(timers_, "vlasov");
    trace::Span kick_span("kick");
    vlasov::kick_half(f_, nu_ax_, nu_ay_, nu_az_, kick_post,
                      options_.kernel);
  }
  nbody::kick(cdm_, ax_, ay_, az_, kick_post);
}

double HybridSolver::suggest_next_a(double a0, double da_max) const {
  if (!has_nu_) return a0 + da_max;
  return cfl_limited_step(a0, da_max, options_.cfl, [&](double a1) {
    return vlasov::max_position_shift(f_, background_.drift_factor(a0, a1));
  });
}

HybridSolver::StepForces HybridSolver::export_step_forces() const {
  StepForces forces;
  forces.fresh = forces_fresh_;
  if (!forces_fresh_) return forces;
  forces.nu_ax = nu_ax_;
  forces.nu_ay = nu_ay_;
  forces.nu_az = nu_az_;
  forces.ax = ax_;
  forces.ay = ay_;
  forces.az = az_;
  return forces;
}

bool HybridSolver::import_step_forces(const StepForces& forces) {
  if (!forces.fresh) {
    forces_fresh_ = false;
    return true;
  }
  if (forces.nu_ax.nx() != nu_ax_.nx() || forces.nu_ax.ny() != nu_ax_.ny() ||
      forces.nu_ax.nz() != nu_ax_.nz() || forces.ax.size() != cdm_.size())
    return false;
  nu_ax_ = forces.nu_ax;
  nu_ay_ = forces.nu_ay;
  nu_az_ = forces.nu_az;
  ax_ = forces.ax;
  ay_ = forces.ay;
  az_ = forces.az;
  forces_fresh_ = true;
  return true;
}

double HybridSolver::total_mass() const {
  double mass = cdm_.mass * static_cast<double>(cdm_.size());
  if (has_nu_) mass += f_.total_mass();
  return mass;
}

}  // namespace v6d::hybrid
