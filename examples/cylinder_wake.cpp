/// Bluff-body wake DNS (serial): the paper's §4.1 workload on the graded
/// channel mesh of Figure 11.  Runs the third-order stiffly-stable
/// splitting scheme (time_order = 3; the scheme ramps 1 -> 2 -> 3 over the
/// first steps while history accumulates), monitors the wake velocity
/// deficit and prints the Figure 12 stage breakdown measured on this host.
///
/// Checkpoint/restart (README "Surviving a node failure"):
///   cylinder_wake --checkpoint wake.ckpt     # archive state every 8 steps
///   cylinder_wake --resume wake.ckpt         # continue from the archive
/// A resumed run replays to the same fields, probes and time stamps as an
/// uninterrupted one — the checkpoint carries the multistep history ring
/// and the scheme's startup-ramp position (DESIGN.md §5.6).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "ckpt/checkpoint.hpp"
#include "mesh/generators.hpp"
#include "nektar/forces.hpp"
#include "nektar/ns_serial.hpp"
#include "nektar/workloads.hpp"

int main(int argc, char** argv) {
    std::string ckpt_path, resume_path;
    int nsteps = 40;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--checkpoint") == 0 && i + 1 < argc)
            ckpt_path = argv[++i];
        else if (std::strcmp(argv[i], "--resume") == 0 && i + 1 < argc)
            resume_path = argv[++i];
        else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc)
            nsteps = std::atoi(argv[++i]);
        else {
            std::fprintf(stderr,
                         "usage: %s [--checkpoint FILE] [--resume FILE] [--steps N]\n",
                         argv[0]);
            return 2;
        }
    }
    mesh::BluffBodyParams p;
    p.n_upstream = 5;
    p.n_wake = 8;
    p.n_body = 2;
    p.n_side = 3;
    const auto disc = std::make_shared<nektar::Discretization>(
        std::make_shared<mesh::Mesh>(mesh::bluff_body_mesh(p)), 5);
    std::printf("Bluff-body DNS: %s, order %zu, %zu global dof\n\n",
                disc->mesh().summary().c_str(), disc->order(), disc->dofmap().num_global());

    nektar::SerialNsOptions opts;
    opts.dt = 4e-3;
    opts.viscosity = 1.0 / 100.0; // Re = 100 on the body scale
    opts.time_order = 3;   // third-order stiffly-stable splitting (Je = 3)
    opts.u_bc = nektar::workloads::inflow_u; // laminar inflow of 1 (paper's setup)
    if (!ckpt_path.empty()) opts.checkpoint_every = 8;
    nektar::SerialNS2d ns(disc, opts);
    nektar::workloads::start_free_stream(ns);

    if (!ckpt_path.empty())
        ns.set_checkpoint_sink([&](const ckpt::Checkpoint& c) {
            c.write_file(ckpt_path);
            std::printf("%8s checkpointed step %d -> %s\n", "", ns.steps_taken(),
                        ckpt_path.c_str());
        });
    if (!resume_path.empty()) {
        try {
            ns.restore(ckpt::Checkpoint::read_file(resume_path));
        } catch (const ckpt::Error& e) {
            std::fprintf(stderr, "cannot resume from %s: %s\n", resume_path.c_str(),
                         e.what());
            return 1;
        }
        std::printf("Resumed from %s at step %d (t = %.3f)\n\n", resume_path.c_str(),
                    ns.steps_taken(), ns.time());
    }

    // Probe the wake centreline velocity at x = 2 (u < 1 marks the deficit).
    const auto probe_wake = [&] {
        double best = 1e30, val = 1.0;
        for (std::size_t e = 0; e < disc->num_elements(); ++e) {
            const auto& g = disc->ops(e).geometry();
            for (std::size_t q = 0; q < disc->ops(e).num_quad(); ++q) {
                const double d = std::abs(g.x[q] - 2.0) + std::abs(g.y[q]);
                if (d < best) {
                    best = d;
                    val = ns.u_quad()[disc->quad_offset(e) + q];
                }
            }
        }
        return val;
    };

    std::printf("%8s %10s %14s %12s %12s %12s\n", "step", "time", "wake u(2,0)", "drag",
                "lift", "||div u||");
    for (int s = ns.steps_taken() + 1; s <= nsteps; ++s) {
        ns.step();
        if (s % 8 == 0) {
            // Traction integral over the body surface (drag/lift).
            std::vector<double> um(disc->modal_size()), vm(disc->modal_size());
            disc->project(ns.u_quad(), um);
            disc->project(ns.v_quad(), vm);
            const auto f = nektar::body_force(*disc, um, vm, ns.p_modal(), opts.viscosity,
                                              mesh::BoundaryTag::Body);
            const double probe = probe_wake();
            const double div = ns.divergence_norm();
            std::printf("%8d %10.3f %14.4f %12.4f %12.4f %12.3e\n", s, ns.time(), probe,
                        f.fx, f.fy, div);
            if (!std::isfinite(probe) || !std::isfinite(f.fx) || !std::isfinite(f.fy) ||
                !std::isfinite(div)) {
                std::fprintf(stderr, "cylinder_wake: non-finite field at step %d (t = %.3f)\n",
                             s, ns.time());
                return 1;
            }
        }
    }

    std::printf("\nStage breakdown on this host (paper Figure 12 layout):\n");
    const auto& bd = ns.breakdown();
    const double total = bd.total_host_seconds();
    for (std::size_t s = 1; s <= perf::kNumStages; ++s)
        std::printf("  stage %zu  %-32s %5.1f%%\n", s, perf::stage_name(s).c_str(),
                    total > 0.0 ? 100.0 * bd.host_seconds[s] / total : 0.0);
    std::printf("\nThe wake deficit (u < 1 behind the body) shows the bluff-body "
                "recirculation developing.\n");
    return 0;
}
