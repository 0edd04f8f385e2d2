#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "compute/backend.hpp"
#include "la/cg.hpp"
#include "nektar/helmholtz.hpp"

/// \file solver_options.hpp
/// The unified configuration API for the three Navier-Stokes solvers.
///
/// SerialNS2d, FourierNS and AleNS2d share one SolverOptions base (time
/// step, viscosity, integration order, boundary data, observability knobs)
/// and extend it only with what is genuinely solver-specific; the overlap
/// toggles use one naming convention (`overlap_*`).  A setting that every
/// production run holds at one value is a constant, not a field: FourierNS
/// always transposes through the paper's 1-D slab (nektar::Transpose keeps
/// the 2-D pencil for the strong-scaling study).  Construct any solver from
/// its derived struct:
///
///     nektar::SerialNsOptions opts;
///     opts.dt = 1e-3;
///     opts.viscosity = 0.01;   // was `nu` before the unification
///     opts.trace = true;       // record stage spans into obs::tracer()
///     nektar::SerialNS2d ns(disc, opts);
namespace nektar {

/// Time-dependent Dirichlet velocity data g(x, y, t).
using VelocityBC = std::function<double(double, double, double)>;

/// Options every solver understands.
struct SolverOptions {
    double dt = 1e-3;
    double viscosity = 0.01; ///< kinematic viscosity (1/Re)
    int time_order = 2;      ///< 1..3 (stiffly-stable)
    HelmholtzBC velocity_bc{.dirichlet = {mesh::BoundaryTag::Inflow, mesh::BoundaryTag::Wall,
                                          mesh::BoundaryTag::Body}};
    HelmholtzBC pressure_bc{.dirichlet = {mesh::BoundaryTag::Outflow}};
    VelocityBC u_bc = [](double, double, double) { return 0.0; };
    VelocityBC v_bc = [](double, double, double) { return 0.0; };
    /// Record per-stage spans into the global obs tracer (obs::tracer() must
    /// be enable()d as well).  Comm-backed solvers stamp them on the rank's
    /// virtual clock lane ("rank N"); the serial solver uses the host clock.
    bool trace = false;
    /// Checkpoint the full solver state every N steps through the sink set
    /// with SolverCore::set_checkpoint_sink() (0 = never, the default).
    int checkpoint_every = 0;
    /// Compute backend for the elemental transforms (compute/backend.hpp):
    /// Auto defers to the discretization default, itself $REPRO_BACKEND.
    /// The resolved name is folded into the options fingerprint, so a
    /// checkpoint refuses to restore under a different backend.
    compute::BackendKind backend = compute::BackendKind::Auto;
};

struct SerialNsOptions : SolverOptions {};

/// NekTar-F (Fourier-spectral, one mode per rank pair of planes).
struct FourierNsOptions : SolverOptions {
    std::size_t num_modes = 4; ///< complex Fourier modes M (Nz = 2M physical planes)
    double lz = 2.0 * 3.14159265358979323846; ///< spanwise length (paper uses 2*pi)
    VelocityBC w_bc = [](double, double, double) { return 0.0; };
    /// Pipeline the nonlinear step's transpositions against the z-line FFT
    /// work through the chunked nonblocking alltoall.  Bit-identical to the
    /// blocking path — only the virtual-clock accounting changes.
    bool overlap_transpose = true;
};

/// NekTar-ALE (moving mesh, element decomposition, PCG + gather-scatter).
struct AleOptions : SolverOptions {
    /// Vertical velocity of the body boundary at time t (heave/flap motion).
    std::function<double(double)> body_velocity = [](double) { return 0.0; };
    la::CgOptions cg{.max_iterations = 2000, .tolerance = 1e-9};
    /// Run the gather-scatter pairwise stage over posted irecvs with
    /// per-neighbour packing overlapped (bit-identical to blocking).
    /// Renamed from `gs_nonblocking` for the unified overlap_* convention.
    bool overlap_gs = true;
};

} // namespace nektar
