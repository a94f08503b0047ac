// Traced run of the end-to-end benchmark (e2ebench/run.py --trace 1).
//
// Builds one workload's state through the public driver API
// (driver::make_config, driver::Driver) and times, from this file only,
// the calls into each layer's public functions.  Nothing inside the
// program is instrumented; its existing TimerRegistry buckets are read.
//
//   e2ebench_traced [flag=value ...] -- [config key=value ...]
//
// flags: seconds=  time budget for the stepping loop
//        steps=    step budget
//        scratch=  directory for checkpoints and scratch files
//        mass_tol= |mass drift| bound checked at the end
//
// A config with ranks=1 steps the program's serial HybridSolver.  A config
// with ranks>1 shards the same state over thread ranks that talk through
// comm::TcpTransport on loopback and steps DistributedHybridSolver.  Both
// are stepped the same way: the ledger of a step is the solver's own
// suggest_next_a plus step, and the step is split by the solver's own
// top-level timer buckets.  Step 0 is a warm-up; odd steps read the
// buckets and even steps do not, so trace_overhead_frac is the cost of
// those reads.  The layer metrics come from probe calls on copies of the
// (rank-local) state after stepping, median of three.
//
// Prints one JSON object on stdout: metrics, the per-step ledger and the
// checks.  A metric of a layer the workload's solver never calls is left
// out rather than printed as 0.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/runner.hpp"
#include "common/options.hpp"
#include "driver/distributed.hpp"
#include "driver/driver.hpp"
#include "driver/scenario.hpp"
#include "fft/parallel_fft.hpp"
#include "gravity/poisson.hpp"
#include "gravity/tree.hpp"
#include "mesh/deposit.hpp"
#include "mesh/halo_plan.hpp"
#include "mesh/interp.hpp"
#include "nbody/integrator.hpp"
#include "parallel/distributed_solver.hpp"
#include "parallel/field_exchange.hpp"
#include "simd/dispatch.hpp"
#include "simd/pack.hpp"
#include "vlasov/moments.hpp"
#include "vlasov/splitting.hpp"

namespace {

using namespace v6d;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Samples = std::map<std::string, std::vector<double>>;
using Sync = std::function<void()>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <class F>
double time_call(F&& f) {
  const auto t0 = Clock::now();
  f();
  return since(t0);
}

struct Flags {
  double seconds = 10.0;
  int steps = 4;
  std::string scratch = ".";
  double mass_tol = 1e-3;
};

struct Result {
  std::map<std::string, double> metrics;
  std::map<std::string, double> ledger;  // per-step seconds, rows of the sum
  double traced_step_s = 0.0;            // mean traced step the rows sum to
  std::map<std::string, std::string> context;
  std::vector<std::string> failures;
};

double dir_bytes(const std::string& dir) {
  double bytes = 0.0;
  for (const auto& e : fs::directory_iterator(dir))
    if (e.is_regular_file()) bytes += static_cast<double>(e.file_size());
  return bytes;
}

// ---------------------------------------------------------------------------
// Host ceilings
// ---------------------------------------------------------------------------

std::size_t llc_bytes() {
  long size = -1;
#ifdef _SC_LEVEL3_CACHE_SIZE
  size = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (size <= 0) size = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  return size > 0 ? static_cast<std::size_t>(size) : std::size_t{32} << 20;
}

/// STREAM triad a = b + s*c over doubles, best of three passes, with each
/// array at least four times the last-level cache.
void triad_ceiling(Result& r, int threads) {
  const std::size_t llc = llc_bytes();
  const std::size_t n = 4 * llc / sizeof(double) + 1;
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0.0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0;
  }
  const double s = 0.5;
  double best = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    const double t = time_call([&] {
#pragma omp parallel for schedule(static) num_threads(threads)
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    });
    best = std::min(best, t);
  }
  if (a[n / 2] != b[n / 2] + s * c[n / 2])
    r.failures.push_back("triad result mismatch");
  const double bytes = 3.0 * static_cast<double>(n * sizeof(double));
  r.metrics["host.triad_gb_per_s"] = bytes / best / 1e9;
  r.context["triad_array_mib"] = std::to_string(n * sizeof(double) >> 20);
  r.context["llc_mib"] = std::to_string(llc >> 20);
}

/// fp32 multiply-add throughput on `threads` threads, with vectors as wide
/// as the build's SIMD tier (simd::kNativeFloatWidth lanes): independent
/// accumulator chains, 2 flops per lane per update.
double fma_gflops(int threads) {
  constexpr int kLanes = simd::kNativeFloatWidth;
  using vec = float __attribute__((vector_size(kLanes * sizeof(float))));
  constexpr int kChains = 12;
  constexpr long kIters = 20'000'000;
  float sink = 0.0f;
  const auto t0 = Clock::now();
#pragma omp parallel num_threads(threads) reduction(+ : sink)
  {
    vec acc[kChains];
    for (int c = 0; c < kChains; ++c) acc[c] = vec{} + 0.001f * (c + 1);
    const vec mul = vec{} + 0.999999f;
    const vec add = vec{} + 1e-7f;
    for (long it = 0; it < kIters; ++it)
      for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * mul + add;
    for (int c = 0; c < kChains; ++c)
      for (int l = 0; l < kLanes; ++l) sink += acc[c][l];
  }
  const double t = since(t0);
  if (!std::isfinite(sink)) return 0.0;
  return 2.0 * kLanes * kChains * static_cast<double>(kIters) * threads / t /
         1e9;
}

double disk_write_gb_per_s(const std::string& scratch, double bytes) {
  const std::string path = (fs::path(scratch) / "ceiling.bin").string();
  std::vector<char> buf(static_cast<std::size_t>(bytes), 1);
  const double t = time_call([&] {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) throw std::runtime_error("cannot write " + path);
    std::fwrite(buf.data(), 1, buf.size(), f);
    std::fflush(f);
    ::fsync(::fileno(f));
    std::fclose(f);
  });
  fs::remove(path);
  return bytes / t / 1e9;
}

/// Mass conservation and finiteness at the end of the stepping.  A finite
/// total mass means no NaN or Inf anywhere in f or the particles.
void check_mass(const Flags& fl, double mass0, double mass1, Result& r) {
  if (!std::isfinite(mass1))
    r.failures.push_back("non-finite mass (phase space or particles)");
  const double drift = mass0 != 0.0 ? (mass1 - mass0) / mass0 : 0.0;
  if (!(std::fabs(drift) <= fl.mass_tol))
    r.failures.push_back("mass drift " + std::to_string(drift) +
                         " exceeds tolerance");
}

// ---------------------------------------------------------------------------
// Stepping (both solvers)
// ---------------------------------------------------------------------------

/// The solvers' top-level buckets: disjoint spans inside a step.
const std::vector<std::string> kTopBuckets = {"vlasov", "vlasov-moments",
                                              "pm", "tree"};
/// Every bucket read as a cross-check; one a solver never opens reads 0.
const std::vector<std::string> kReadBuckets = {
    "vlasov",    "vlasov-moments", "pm",          "tree",
    "halo",      "halo-wait",      "fold-wait",   "slab-wait",
    "sweep-full", "sweep-interior", "sweep-boundary"};

struct Steps {
  std::map<std::string, double> rows;     // ledger seconds, traced steps
  std::map<std::string, double> buckets;  // bucket seconds, traced steps
  std::vector<double> traced, plain;      // suggest_next_a + step
  std::vector<double> solver;             // step alone, every timed step
  double a = 0.0;
  int n = 0;
};

/// Steps `s` from a_init within the step and time budgets.  `agree` makes
/// every rank take the same go/stop decision.
template <class Solver>
Steps run_steps(Solver& s, const Flags& fl, const driver::SimulationConfig& cfg,
                const std::function<bool(bool)>& agree) {
  Steps st;
  st.a = cfg.a_init;
  const auto t0 = Clock::now();
  while (agree(st.a < cfg.a_final - 1e-12 && st.n < fl.steps &&
               (st.n < 4 || since(t0) < fl.seconds))) {
    const bool warmup = st.n == 0;  // also assembles the initial forces
    const bool traced = st.n % 2 == 1;
    std::map<std::string, double> before;
    if (traced)
      for (const auto& b : kReadBuckets) before[b] = s.timers().total(b);
    const auto s0 = Clock::now();
    const double a1 = std::min(s.suggest_next_a(st.a, cfg.da_max), cfg.a_final);
    const double cfl_s = since(s0);
    const double step_only = time_call([&] { s.step(st.a, a1); });
    const double step_s = since(s0);
    if (traced) {
      st.traced.push_back(step_s);
      st.rows["cfl"] += cfl_s;
      for (const auto& b : kReadBuckets) {
        const double delta = s.timers().total(b) - before[b];
        st.buckets[b] += delta;
        if (std::find(kTopBuckets.begin(), kTopBuckets.end(), b) !=
            kTopBuckets.end())
          st.rows["timers." + b] += delta;
      }
    } else if (!warmup) {
      st.plain.push_back(step_s);
    }
    if (!warmup) st.solver.push_back(step_only);
    st.a = a1;
    ++st.n;
  }
  return st;
}

/// Per-step ledger rows, the unattributed rest of the mean traced step,
/// and the check that no row is negative (which would mean rows overlap).
void finish_steps(const Steps& st, Result& r) {
  const double n = static_cast<double>(st.traced.size());
  if (n == 0 || st.plain.empty())
    throw std::runtime_error("too few steps to trace");
  double rows = 0.0;
  for (const auto& [row, s] : st.rows) {
    r.ledger[row] = s / n;
    rows += s / n;
  }
  double total = 0.0;
  for (const double s : st.traced) total += s;
  r.traced_step_s = total / n;
  r.ledger["unattributed"] = r.traced_step_s - rows;
  for (const auto& [row, s] : r.ledger)
    if (s < 0.0) r.failures.push_back("negative ledger row " + row);
  for (const auto& [b, s] : st.buckets) r.metrics["timers." + b + "_s"] = s / n;
  r.metrics["unattributed_s"] = r.ledger["unattributed"];
  r.metrics["traced.steps"] = n;
  r.metrics["traced.step_s"] = r.traced_step_s;
  r.metrics["traced.step_s_p50"] = median(st.traced);
  r.metrics["trace_overhead_frac"] =
      median(st.traced) / median(st.plain) - 1.0;
}

// ---------------------------------------------------------------------------
// Probes: layer calls on copies of one rank's state
// ---------------------------------------------------------------------------

/// Computed bytes of one phase-space sweep: f read once and written once.
constexpr double kSweepBytesPerCell = 2.0 * sizeof(float);

/// kick_half, drift_full and compute_density on a copy of `f_in`.
void probe_vlasov(const vlasov::PhaseSpace& f_in,
                  const hybrid::HybridSolver::StepForces& forces,
                  const cosmo::Background& bg, double a0, double a1,
                  vlasov::SweepKernel kernel, const Sync& sync, Samples& s) {
  vlasov::PhaseSpace f = f_in;
  sync();
  s["kick"].push_back(time_call([&] {
    vlasov::kick_half(f, forces.nu_ax, forces.nu_ay, forces.nu_az,
                      bg.kick_factor(a0, a1), kernel);
  }));
  sync();
  s["drift"].push_back(time_call([&] {
    vlasov::drift_full(f, bg.drift_factor(a0, a1), kernel,
                       vlasov::periodic_halo_filler());
  }));
  mesh::Grid3D<double> rho(f.dims().nx, f.dims().ny, f.dims().nz);
  sync();
  s["moments"].push_back(time_call([&] { vlasov::compute_density(f, rho); }));
}

/// The mesh calls of one force assembly on a PM brick at `patch` with
/// `n` local cells: CIC deposit of the particles in `px/py/pz` plus the
/// injection of every Vlasov cell of `f`, then the gather at the particles
/// plus the interpolation of three force components at every Vlasov cell.
void probe_mesh(const mesh::MeshPatch& patch, std::array<int, 3> n,
                const std::vector<double>& px, const std::vector<double>& py,
                const std::vector<double>& pz, double mass,
                const vlasov::PhaseSpace& f, const Sync& sync, Samples& s) {
  const auto& d = f.dims();
  const auto& g = f.geom();
  mesh::Grid3D<double> rho(n[0], n[1], n[2], 2);
  std::vector<double> cx(1), cy(1), cz(1);
  sync();
  s["deposit"].push_back(time_call([&] {
    mesh::deposit(rho, patch, px, py, pz, mass, mesh::Assignment::kCic);
    for (int ix = 0; ix < d.nx; ++ix)
      for (int iy = 0; iy < d.ny; ++iy)
        for (int iz = 0; iz < d.nz; ++iz) {
          cx[0] = g.x(ix);
          cy[0] = g.y(iy);
          cz[0] = g.z(iz);
          mesh::deposit(rho, patch, cx, cy, cz, g.dvol(),
                        mesh::Assignment::kCic);
        }
  }));
  rho.fill(1.0);
  std::vector<double> ax(px.size()), ay(px.size()), az(px.size());
  double sink = 0.0;
  sync();
  s["gather"].push_back(time_call([&] {
    mesh::gather_forces(rho, rho, rho, patch, px, py, pz, ax, ay, az,
                        mesh::Assignment::kCic);
    for (int ix = 0; ix < d.nx; ++ix)
      for (int iy = 0; iy < d.ny; ++iy)
        for (int iz = 0; iz < d.nz; ++iz)
          for (int c = 0; c < 3; ++c)
            sink += mesh::interpolate(rho, patch, g.x(ix), g.y(iy), g.z(iz),
                                      mesh::Assignment::kCic);
  }));
  if (!std::isfinite(sink)) throw std::runtime_error("mesh probe not finite");
}

/// A step's particle push on a copy: two nbody::kick and one nbody::drift.
void probe_push(const nbody::Particles& p_in,
                const hybrid::HybridSolver::StepForces& forces, double box,
                const Sync& sync, Samples& s) {
  nbody::Particles p = p_in;
  sync();
  s["push"].push_back(time_call([&] {
    nbody::kick(p, forces.ax, forces.ay, forces.az, 0.5e-3);
    nbody::drift(p, 1e-3, box);
    nbody::kick(p, forces.ax, forces.ay, forces.az, 0.5e-3);
  }));
}

/// The BarnesHutTree build and walk of hybrid::add_tree_accelerations.
void probe_tree(const nbody::Particles& p, double box,
                const hybrid::HybridOptions& opt, const Sync& sync,
                Samples& s, std::uint64_t& p2p) {
  const auto derived = hybrid::TreePmDerived::from(opt, box);
  std::optional<gravity::BarnesHutTree> tree;
  sync();
  s["tree_build"].push_back(
      time_call([&] { tree.emplace(p, box, opt.treepm.leaf_size); }));
  gravity::PpKernelParams params;
  params.eps = derived.eps;
  params.rs = derived.rs;
  params.rcut = derived.rcut;
  std::vector<double> tx(p.size(), 0.0), ty = tx, tz = tx;
  gravity::TreeStats stats;
  s["tree_walk"].push_back(time_call([&] {
    tree->accelerations(p, params, derived.poly, opt.treepm.theta,
                        opt.treepm.use_simd, tx, ty, tz, &stats);
  }));
  p2p = stats.p2p_interactions;
}

/// Per-step layer metrics from the probe medians on one rank with
/// `cells` local phase-space cells.
void probe_metrics(const std::map<std::string, double>& probe, double cells,
                   Result& r) {
  const auto has = [&](const char* k) { return probe.count(k) > 0; };
  if (has("kick")) {
    // A step makes two kick_half calls, one drift_full and one moment; the
    // sweep calls are three sweeps each.
    r.metrics["vlasov.kick_s"] = 2.0 * probe.at("kick");
    r.metrics["vlasov.drift_s"] = probe.at("drift");
    r.metrics["vlasov.moments_s"] = probe.at("moments");
    r.metrics["vlasov.kick_cells_per_s"] = cells / probe.at("kick");
    r.metrics["vlasov.drift_cells_per_s"] = cells / probe.at("drift");
    r.metrics["vlasov.bytes_per_step"] =
        cells * (9.0 * kSweepBytesPerCell + sizeof(float));
  }
  r.metrics["mesh.deposit_s"] = probe.at("deposit");
  r.metrics["mesh.gather_s"] = probe.at("gather");
  if (has("push")) r.metrics["nbody.push_s"] = probe.at("push");
  if (has("tree_build")) {
    r.metrics["gravity.tree_build_s"] = probe.at("tree_build");
    r.metrics["gravity.tree_walk_s"] = probe.at("tree_walk");
  }
}

std::map<std::string, double> medians(const Samples& s) {
  std::map<std::string, double> out;
  for (const auto& [k, v] : s) out[k] = median(v);
  return out;
}

/// One Driver::write_checkpoint of `d`'s state and Driver::resume of it.
void time_checkpoint(const Flags& fl, const driver::Driver& d, Result& r) {
  const std::string dir = (fs::path(fl.scratch) / "ckpt").string();
  fs::remove_all(dir);
  const double t = time_call([&] { d.write_checkpoint(dir); });
  const double bytes = dir_bytes(dir);
  r.metrics["driver.ckpt_write_s"] = t;
  r.metrics["driver.ckpt_write_gb_per_s"] = bytes / t / 1e9;
  r.metrics["host.disk_write_gb_per_s"] = disk_write_gb_per_s(fl.scratch, bytes);
  r.metrics["driver.resume_s"] =
      time_call([&] { driver::Driver::resume(dir); });
  fs::remove_all(dir);
}

constexpr int kProbeReps = 3;

// ---------------------------------------------------------------------------
// Serial: HybridSolver
// ---------------------------------------------------------------------------

void run_serial(const Flags& fl, const driver::SimulationConfig& cfg,
                Result& r) {
  std::unique_ptr<driver::Driver> d;
  r.metrics["cosmology.ic_s"] =
      time_call([&] { d = std::make_unique<driver::Driver>(cfg); });
  auto& s = d->solver();
  const double mass0 = s.total_mass();
  const Steps st = run_steps(s, fl, cfg, [](bool go) { return go; });
  check_mass(fl, mass0, s.total_mass(), r);
  finish_steps(st, r);
  r.metrics["hybrid.step_s"] = median(st.solver);

  const auto& opt = s.options();
  const auto forces = s.export_step_forces();
  const Sync none = [] {};
  Samples samples;
  std::uint64_t p2p = 0;
  mesh::MeshPatch patch;
  patch.box = s.box();
  patch.n_global = opt.pm_grid;
  const int pm = opt.pm_grid;
  gravity::PoissonSolver poisson(pm, s.box());
  mesh::Grid3D<double> rho(pm, pm, pm, 2), gx = rho, gy = rho, gz = rho;
  rho.fill(1.0);
  gravity::PoissonOptions popt;
  popt.prefactor = hybrid::HybridSolver::poisson_prefactor(st.a);
  popt.deconvolve_order = 2;
  popt.green = gravity::GreenFunction::kExactK2;
  const double a0 = std::max(cfg.a_init, st.a - 0.01);
  const bool has_nu = s.neutrinos().dims().total_interior() > 0;
  const auto& p = s.cdm();
  for (int rep = 0; rep < kProbeReps; ++rep) {
    if (has_nu)
      probe_vlasov(s.neutrinos(), forces, s.background(), a0, st.a,
                   opt.kernel, none, samples);
    probe_mesh(patch, {pm, pm, pm}, p.x, p.y, p.z, p.mass, s.neutrinos(),
               none, samples);
    samples["poisson"].push_back(
        time_call([&] { poisson.solve_forces(rho, gx, gy, gz, popt); }));
    if (p.size() > 0) probe_push(p, forces, s.box(), none, samples);
    if (opt.enable_tree && p.size() > 0)
      probe_tree(p, s.box(), opt, none, samples, p2p);
  }
  const auto probe = medians(samples);
  probe_metrics(probe,
                static_cast<double>(s.neutrinos().dims().total_interior()), r);
  // The step solves for the CDM field twice and, with neutrinos, once more.
  r.metrics["gravity.poisson_s"] = (has_nu ? 3.0 : 2.0) * probe.at("poisson");
  if (probe.count("tree_walk"))
    r.metrics["gravity.p2p_interactions"] = static_cast<double>(p2p);
  time_checkpoint(fl, *d, r);
}

// ---------------------------------------------------------------------------
// Distributed: thread ranks over loopback TCP
// ---------------------------------------------------------------------------

// Probe tags sit above every tag the distributed solver uses.
constexpr int kProbeHaloTag = 1000;
constexpr int kProbeSlabTag = 1100;

mesh::Grid3D<double> brick_of(const mesh::Grid3D<double>& global,
                              const mesh::BrickDecomposition& dec) {
  mesh::Grid3D<double> local(dec.local_n(0), dec.local_n(1), dec.local_n(2));
  for (int i = 0; i < dec.local_n(0); ++i)
    for (int j = 0; j < dec.local_n(1); ++j)
      for (int k = 0; k < dec.local_n(2); ++k)
        local.at(i, j, k) =
            global.at(dec.offset(0) + i, dec.offset(1) + j, dec.offset(2) + k);
  return local;
}

/// Positions of the particles whose PM cell lies in `dec`'s brick: the
/// set a rank deposits and gathers for (the solver's ownership rule).
void owned_positions(const nbody::Particles& p, double box, int pm,
                     const mesh::BrickDecomposition& dec,
                     std::vector<double>& x, std::vector<double>& y,
                     std::vector<double>& z) {
  const double inv_h = pm / box;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double pos[3] = {p.x[i], p.y[i], p.z[i]};
    bool own = true;
    for (int axis = 0; axis < 3 && own; ++axis) {
      double c = pos[axis] * inv_h;
      c -= pm * std::floor(c / pm);
      const int cell = std::min(pm - 1, static_cast<int>(std::floor(c)));
      own = cell >= dec.offset(axis) &&
            cell < dec.offset(axis) + dec.local_n(axis);
    }
    if (own) {
      x.push_back(p.x[i]);
      y.push_back(p.y[i]);
      z.push_back(p.z[i]);
    }
  }
}

void run_distributed(const Flags& fl, const driver::SimulationConfig& cfg,
                     Result& r) {
  std::unique_ptr<driver::Driver> d;
  r.metrics["cosmology.ic_s"] =
      time_call([&] { d = std::make_unique<driver::Driver>(cfg); });
  auto& global = d->solver();
  const auto& opt = global.options();
  const auto decomp = driver::resolve_run_decomp(cfg, global);
  const int world = cfg.ranks;

  // Written by rank 0 only; read after the ranks have joined.
  Steps lead_steps;
  std::map<std::string, double> probe;
  double mass0 = 0.0, mass1 = 0.0, local_cells = 0.0;
  std::int64_t bytes_all = 0, messages_all = 0;
  double recv_wait_all = 0.0;
  std::uint64_t p2p = 0;

  comm::LaunchOptions launch;
  launch.backend = "tcp";
  launch.rendezvous = (fs::path(fl.scratch) / "rendezvous").string();
  fs::remove_all(launch.rendezvous);
  fs::create_directories(launch.rendezvous);

  comm::run_transport(world, launch, [&](comm::Communicator& comm) {
    parallel::DistributedHybridSolver ds(global, comm, decomp, cfg.overlap);
    const double m0 = ds.total_mass();
    const auto bytes0 = comm.bytes_sent();
    const auto messages0 = comm.messages_sent();
    const double wait0 = comm.recv_stats().pop_wait_s;
    const Steps st = run_steps(ds, fl, cfg, [&](bool go) {
      int flag = go;
      comm.bcast(&flag, 1, 0);
      return flag != 0;
    });
    const double m1 = ds.total_mass();
    const std::int64_t bytes = comm.allreduce_sum(
        static_cast<std::int64_t>(comm.bytes_sent() - bytes0));
    const std::int64_t messages = comm.allreduce_sum(
        static_cast<std::int64_t>(comm.messages_sent() - messages0));
    const double wait = comm.allreduce_sum(comm.recv_stats().pop_wait_s - wait0);

    // --- probes on copies of rank-local state, all ranks at once ---
    const Sync sync = [&] { comm.barrier(); };
    Samples samples;
    std::uint64_t rank_p2p = 0;
    const auto& dec = ds.decomposition();
    auto forces = ds.export_step_forces_global();  // collective
    if (ds.has_neutrinos()) {
      forces.nu_ax = brick_of(forces.nu_ax, dec);
      forces.nu_ay = brick_of(forces.nu_ay, dec);
      forces.nu_az = brick_of(forces.nu_az, dec);
    }
    const int pm = opt.pm_grid;
    const mesh::BrickDecomposition pm_dec({pm, pm, pm}, decomp,
                                          ds.cart().coords());
    mesh::MeshPatch patch;
    patch.box = global.box();
    patch.n_global = pm;
    for (int a = 0; a < 3; ++a) patch.offset[a] = pm_dec.offset(a);
    std::vector<double> px, py, pz;
    owned_positions(ds.cdm(), global.box(), pm, pm_dec, px, py, pz);
    const double mass = ds.cdm().size() > 0 ? ds.cdm().mass : 0.0;
    const double a0 = std::max(cfg.a_init, st.a - 0.01);
    for (int rep = 0; rep < kProbeReps; ++rep) {
      if (ds.has_neutrinos()) {
        probe_vlasov(ds.local_f(), forces, ds.background(), a0, st.a,
                     opt.kernel, sync, samples);
        vlasov::PhaseSpace f = ds.local_f();
        mesh::HaloPlan plan(ds.cart(), f.dims(), kProbeHaloTag);
        sync();
        samples["halo"].push_back(time_call([&] {
          for (int axis : {2, 1, 0}) {
            plan.begin_axis(f, axis);
            plan.finish_axis(f, axis);
          }
        }));
        samples["halo_wait"].push_back(plan.take_wait());
      }
      probe_mesh(patch, {pm_dec.local_n(0), pm_dec.local_n(1),
                         pm_dec.local_n(2)},
                 px, py, pz, mass, ds.local_f(), sync, samples);
      // The particles are replicated: every rank pushes, builds and walks
      // the full set in the step, so every rank does so here too.
      if (ds.cdm().size() > 0)
        probe_push(ds.cdm(), forces, global.box(), sync, samples);
      if (opt.enable_tree && ds.cdm().size() > 0)
        probe_tree(ds.cdm(), global.box(), opt, sync, samples, rank_p2p);
      fft::ParallelFft3D pfft(comm, pm);
      std::vector<fft::cplx> slab(
          static_cast<std::size_t>(pfft.local_nx()) * pm * pm);
      for (std::size_t i = 0; i < slab.size(); ++i)
        slab[i] = fft::cplx(std::sin(0.1 * static_cast<double>(i)), 0.0);
      sync();
      samples["pfft"].push_back(time_call([&] {
        pfft.forward(slab);
        pfft.inverse_normalized(slab);
      }));
      parallel::SlabExchange sx(pm_dec, pfft, ds.cart(), kProbeSlabTag);
      mesh::Grid3D<double> brick(pm_dec.local_n(0), pm_dec.local_n(1),
                                 pm_dec.local_n(2), 2);
      brick.fill(1.0);
      sync();
      samples["slab"].push_back(time_call([&] {
        sx.begin_to_slab(brick);
        auto& s = sx.finish_to_slab();
        sx.begin_to_brick(s);
        sx.finish_to_brick(brick);
      }));
    }
    sync();
    if (comm.rank() == 0) {
      lead_steps = st;
      mass0 = m0;
      mass1 = m1;
      local_cells = static_cast<double>(ds.local_f().dims().total_interior());
      bytes_all = bytes;
      messages_all = messages;
      recv_wait_all = wait;
      p2p = rank_p2p;
      probe = medians(samples);
    }
  });

  check_mass(fl, mass0, mass1, r);
  finish_steps(lead_steps, r);
  const double ntraced = static_cast<double>(lead_steps.traced.size());
  const double steps = lead_steps.n;
  r.metrics["parallel.step_s"] = median(lead_steps.solver);
  r.metrics["parallel.cfl_s"] = lead_steps.rows.at("cfl") / ntraced;
  probe_metrics(probe, local_cells, r);
  if (probe.count("tree_walk"))
    r.metrics["gravity.p2p_interactions"] = static_cast<double>(p2p);
  if (probe.count("halo")) {
    r.metrics["mesh.halo_s"] = probe.at("halo");
    r.metrics["mesh.halo_wait_s"] = probe.at("halo_wait");
  }
  r.metrics["fft.pfft_s"] = probe.at("pfft");
  r.metrics["parallel.slab_s"] = probe.at("slab");
  r.metrics["comm.bytes_per_step"] =
      static_cast<double>(bytes_all) / world / steps;
  r.metrics["comm.messages_per_step"] =
      static_cast<double>(messages_all) / world / steps;
  r.metrics["comm.recv_wait_s"] = recv_wait_all / world / steps;
  time_checkpoint(fl, *d, r);
}

/// Every *_per_s rate as a percentage of its host ceiling: sweep cell
/// rates through their computed bytes (summed over the ranks that sweep
/// concurrently) against the triad bandwidth, checkpoint writes against
/// a plain fsync'd write of the same size.
void add_ceiling_shares(Result& r, int world) {
  const auto get = [&](const char* name) {
    const auto it = r.metrics.find(name);
    return it == r.metrics.end() ? 0.0 : it->second;
  };
  const double triad = get("host.triad_gb_per_s") * 1e9;
  const double sweep_bytes = 3.0 * kSweepBytesPerCell;
  if (r.metrics.count("vlasov.kick_cells_per_s")) {
    r.metrics["vlasov.kick_pct_triad"] =
        100.0 * get("vlasov.kick_cells_per_s") * world * sweep_bytes / triad;
    r.metrics["vlasov.drift_pct_triad"] =
        100.0 * get("vlasov.drift_cells_per_s") * world * sweep_bytes / triad;
  }
  r.metrics["driver.ckpt_write_pct_disk"] =
      100.0 * get("driver.ckpt_write_gb_per_s") /
      get("host.disk_write_gb_per_s");
}

void print_json(const Result& r) {
  const auto numbers = [](const std::map<std::string, double>& m) {
    const char* sep = "";
    for (const auto& [k, v] : m) {
      std::printf("%s\"%s\":%.17g", sep, k.c_str(), v);
      sep = ",";
    }
  };
  std::printf("{\"metrics\":{");
  numbers(r.metrics);
  std::printf("},\"ledger\":{");
  numbers(r.ledger);
  std::printf("},\"traced_step_s\":%.17g,\"context\":{", r.traced_step_s);
  const char* sep = "";
  for (const auto& [k, v] : r.context) {
    std::printf("%s\"%s\":\"%s\"", sep, k.c_str(), v.c_str());
    sep = ",";
  }
  std::printf("},\"failures\":[");
  sep = "";
  for (const auto& f : r.failures) {
    std::printf("%s\"%s\"", sep, f.c_str());
    sep = ",";
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Flags fl;
  std::vector<char*> cfg_argv = {argv[0]};
  bool cfg_part = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--") {
      cfg_part = true;
      continue;
    }
    if (cfg_part) {
      cfg_argv.push_back(argv[i]);
      continue;
    }
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "seconds") fl.seconds = std::stod(value);
    else if (key == "steps") fl.steps = std::stoi(value);
    else if (key == "scratch") fl.scratch = value;
    else if (key == "mass_tol") fl.mass_tol = std::stod(value);
    else {
      std::fprintf(stderr,
                   "usage: e2ebench_traced [flag=value ...] -- [key=value ...]"
                   "\ne2ebench_traced: unknown flag %s\n",
                   arg.c_str());
      return 2;
    }
  }
  try {
    const CliArgs cli =
        parse_cli(static_cast<int>(cfg_argv.size()), cfg_argv.data());
    const auto cfg = driver::make_config(cli.options);
    fs::create_directories(fl.scratch);
    const bool distributed = cfg.ranks > 1;

    Result r;
    r.context["isa"] = simd::isa_info().name;
    r.context["omp_threads"] = std::to_string(simd::thread_count());
    r.context["world"] = std::to_string(cfg.ranks);
    r.context["transport"] = distributed ? "tcp" : "none";

    // Ceilings at the workload's count of concurrently busy threads.
    const int threads = cfg.ranks * simd::thread_count();
    r.context["ceiling_threads"] = std::to_string(threads);
    triad_ceiling(r, threads);
    r.metrics["host.fma_gflops_1t"] = fma_gflops(1);
    r.metrics["host.fma_gflops_nt"] = fma_gflops(threads);

    if (distributed)
      run_distributed(fl, cfg, r);
    else
      run_serial(fl, cfg, r);
    add_ceiling_shares(r, cfg.ranks);
    print_json(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench_traced: %s\n", e.what());
    return 1;
  }
  return 0;
}
