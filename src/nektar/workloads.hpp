#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "compute/backend.hpp"
#include "mesh/mesh.hpp"
#include "netsim/netmodel.hpp"
#include "nektar/ns_ale.hpp"
#include "nektar/ns_fourier.hpp"
#include "nektar/ns_serial.hpp"
#include "perf/stage_stats.hpp"
#include "simmpi/simmpi.hpp"

/// \file workloads.hpp
/// The paper's three application runs, each defined once.
///
///   table1_serial()     Table 1, Figure 12: SerialNS2d on the bluff body
///   table2_fourier(P)   Table 2, Figures 13-14: NekTar-F, 2 planes per rank
///   table3_ale(P)       Table 3, Figures 15-16: NekTar-ALE, heaving body
///
/// A run function builds the mesh, order, options and initial condition,
/// runs the bootstrap step and the steady steps, and returns what a caller
/// prices.  The measured window opens in one place per run: after the
/// bootstrap step, where the solver's breakdown is reset and every rank's
/// simmpi logs are cleared.  It takes a parameter only where two of its
/// callers need different values; everything else is a constant here, so a
/// change to a paper run's physics is one edit.  The examples and the fault ablation
/// keep their own sizes and step counts but take the boundary data and the
/// starts from here too.
namespace nektar::workloads {

/// Steady steps timed after the bootstrap step: serial and parallel runs.
inline constexpr int kSerialSteadySteps = 3;
inline constexpr int kParallelSteadySteps = 2;

/// Polynomial order of each table's run.
inline constexpr std::size_t kTable1Order = 6;
inline constexpr std::size_t kTable2Order = 4;
inline constexpr std::size_t kTable3Order = 4;

/// The reduced meshes the tables run on.
[[nodiscard]] mesh::Mesh table1_mesh();
[[nodiscard]] mesh::Mesh table2_mesh();
[[nodiscard]] mesh::Mesh table3_mesh();

/// True on the bluff body's surface: |x| <= 0.5 + 1e-6.  The velocity-
/// Dirichlet boundary of every bluff-body mesh is the inflow (x = x_min)
/// plus the body, so x alone tells them apart, and it still does while the
/// ALE body heaves in y.
[[nodiscard]] bool on_body(double x);

/// Dirichlet u: no-slip (0) on the body, the free stream (1) on the inflow.
[[nodiscard]] double inflow_u(double x, double y, double t);

/// Heaves the body with vertical velocity `body_velocity(t)`: sets it in
/// `opts` with u_bc = inflow_u and v_bc = the body velocity on the body, 0
/// on the inflow.
void heave_body(AleOptions& opts, std::function<double(double)> body_velocity);

/// Starts a 2-D run from the free stream u = 1, v = 0.
void start_free_stream(SerialNS2d& ns);
void start_free_stream(AleNS2d& ns);

/// Starts a Fourier run from the free stream with a spanwise perturbation
/// that seeds the 3-D flow: u = 1 + a sin z, v = 0, w = a cos z.
inline constexpr double kPerturbation = 0.05;
void start_perturbed(FourierNS& ns, double amplitude = kPerturbation);

/// The network every parallel run executes on.  Any model does: the comm
/// log is re-priced on each target network afterwards.
[[nodiscard]] netsim::NetworkModel probe_net();

/// Table 3's options: dt, viscosity, CG tolerance and the heaving body.
[[nodiscard]] AleOptions table3_options();

/// What a run leaves for pricing.
struct Run {
    /// Rank 0's steady-step breakdown, as the solver recorded it.
    perf::StageBreakdown bd;
    /// Every rank's steady-step breakdown.
    std::vector<perf::StageBreakdown> rank_bds;
    /// Rank 0's simmpi report (empty when serial).  Its comm, fault and
    /// overlap logs cover the same steady steps as `bd`, so a per-step price
    /// divides by bd.steps; its clocks cover the whole run.
    simmpi::RankReport rank0;
    /// Priced working sets: the quadrature fields, and the solver's
    /// working_set_bytes().
    std::size_t field_bytes = 0;
    std::size_t solver_bytes = 0;
    /// Global dof of rank 0's 2-D discretization.
    std::size_t dof = 0;
};

/// Table 1: SerialNS2d on table1_mesh() at kTable1Order.
[[nodiscard]] Run table1_serial(bool trace = false, int steady_steps = kSerialSteadySteps,
                                compute::BackendKind backend = compute::BackendKind::Auto);

/// Table 2: FourierNS on `nprocs` ranks with 2 planes per rank.
[[nodiscard]] Run table2_fourier(int nprocs, bool overlap_transpose = true, bool trace = false,
                                 int steady_steps = kParallelSteadySteps,
                                 compute::BackendKind backend = compute::BackendKind::Auto);

/// Table 3: AleNS2d on table3_mesh(), partitioned over `nprocs` ranks.
[[nodiscard]] Run table3_ale(int nprocs, bool overlap_gs = true, bool trace = false);

} // namespace nektar::workloads
