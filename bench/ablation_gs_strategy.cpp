/// Ablation: the Tufo-Fischer GS library's pairwise/tree mix against a
/// tree-only baseline, on the ALE solver's actual interface-dof pattern.
/// "Pairwise exchange is used for communicating values shared by only a few
/// processors, while the binary-tree approach is used for values shared by
/// many processors" (paper §4.2.2) — this bench quantifies why the mix wins.
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "gs/gather_scatter.hpp"
#include "nektar/dofmap.hpp"
#include "nektar/workloads.hpp"
#include "partition/partition.hpp"
#include "simmpi/simmpi.hpp"

namespace {

/// Builds the per-rank interface gid lists of a partitioned mesh at the
/// given order (the pattern AleNS2d hands to the GS library).
std::vector<std::vector<std::int64_t>> interface_ids(const mesh::Mesh& m, std::size_t order,
                                                     const std::vector<int>& part, int nprocs) {
    const nektar::DofMap dm(m, order, false);
    std::vector<std::vector<std::int64_t>> ids(static_cast<std::size_t>(nprocs));
    std::vector<std::set<std::int64_t>> sets(static_cast<std::size_t>(nprocs));
    for (std::size_t e = 0; e < m.num_elements(); ++e) {
        auto& s = sets[static_cast<std::size_t>(part[e])];
        for (const auto& ld : dm.element_map(e)) s.insert(ld.global);
    }
    for (int r = 0; r < nprocs; ++r)
        ids[static_cast<std::size_t>(r)].assign(sets[static_cast<std::size_t>(r)].begin(),
                                                sets[static_cast<std::size_t>(r)].end());
    return ids;
}

} // namespace

int main(int argc, char** argv) {
    const benchutil::Cli cli = benchutil::Cli::parse("ablation_gs_strategy", argc, argv);
    namespace workloads = nektar::workloads;
    const mesh::Mesh m = workloads::table3_mesh();
    partition::Graph g;
    m.dual_graph(g.xadj, g.adjncy);

    std::printf("Ablation: GS exchange strategy on the ALE interface pattern\n");
    std::printf("Mesh: %s, order %zu\n\n", m.summary().c_str(), workloads::kTable3Order);
    benchutil::Table table({"P", "strategy", "pairwise dofs", "tree dofs", "sum wall us"},
                           15);
    table.print_header();

    perf::RunReport rep = perf::report("ablation_gs_strategy");
    for (int nprocs : cli.rank_sweep({4, 8, 16})) {
        const auto part = partition::partition_graph(g, nprocs);
        const auto ids = interface_ids(m, workloads::kTable3Order, part, nprocs);
        for (auto strat : {gs::GatherScatter::Strategy::Auto,
                           gs::GatherScatter::Strategy::TreeOnly}) {
            simmpi::World world(nprocs, netsim::by_name("RoadRunner myr."));
            std::size_t pw = 0, tr = 0;
            const auto reports = world.run([&](simmpi::Comm& c) {
                gs::GatherScatter gsx(c, ids[static_cast<std::size_t>(c.rank())], strat);
                if (c.rank() == 0) {
                    pw = gsx.pairwise_dofs();
                    tr = gsx.tree_dofs();
                }
                std::vector<double> vals(ids[static_cast<std::size_t>(c.rank())].size(), 1.0);
                for (int it = 0; it < 10; ++it) gsx.sum(c, vals);
            });
            double wall = 0.0;
            for (const auto& r : reports) wall = std::max(wall, r.wall_seconds);
            table.print_row(
                {std::to_string(nprocs),
                 strat == gs::GatherScatter::Strategy::Auto ? "pairwise+tree" : "tree-only",
                 std::to_string(pw), std::to_string(tr),
                 benchutil::fmt(wall / 10.0 * 1e6, "%.1f")});
            perf::Case kase;
            kase.labels["strategy"] = strat == gs::GatherScatter::Strategy::Auto
                                          ? "pairwise+tree"
                                          : "tree-only";
            kase.values["nprocs"] = static_cast<double>(nprocs);
            kase.values["pairwise_dofs"] = static_cast<double>(pw);
            kase.values["tree_dofs"] = static_cast<double>(tr);
            kase.values["sum_wall_us"] = wall / 10.0 * 1e6;
            rep.cases.push_back(std::move(kase));
        }
    }
    std::printf("\nThe tree-only baseline drags every interface dof through a global\n"
                "allreduce; the Tufo-Fischer mix keeps most dofs on cheap neighbour\n"
                "exchanges and reserves the tree for the few many-way corners.\n");
    cli.finish(std::move(rep));
    return 0;
}
