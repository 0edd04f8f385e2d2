#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "simmpi/simmpi.hpp"

/// \file gather_scatter.hpp
/// Tufo-Fischer "Gather-Scatter" (GS) library.
///
/// The NekTar-ALE communication interface "allows for the treatment of all
/// the communications using a 'binary-tree' algorithm, 'pairwise' exchanges,
/// or a mix of these two.  Pairwise exchange is used for communicating values
/// shared by only a few processors, while the 'binary-tree' approach is used
/// for values shared by many processors" (paper §4.2.2, citing Tufo 1998).
///
/// Each rank presents its local degrees of freedom as a list of global ids;
/// gs_sum() then replaces every local value by the sum of that global dof's
/// contributions across all ranks — i.e. the parallel direct-stiffness
/// assembly PCG needs after each local matrix-vector product.
namespace gs {

class GatherScatter {
public:
    /// Exchange strategy: Auto is Tufo-Fischer's mix (pairwise for dofs
    /// shared by exactly two ranks, tree for the rest); TreeOnly pushes
    /// everything through the packed tree reduction — the ablation baseline
    /// the mix is measured against.
    enum class Strategy { Auto, TreeOnly };

    /// How the pairwise stage moves its payloads: Blocking runs one
    /// sendrecv per partner; Nonblocking posts every partner's receive up
    /// front and overlaps each partner's packing with the transfers already
    /// in flight (isend/irecv).  Both orders apply the neighbour sums
    /// identically, so the results are bit-identical.
    enum class Exchange { Blocking, Nonblocking };

    /// Collective: every rank of `comm` must call this with its own id list.
    /// Ids may be any non-negative 64-bit values; a rank must not list the
    /// same id twice.
    GatherScatter(simmpi::Comm& comm, std::span<const std::int64_t> global_ids,
                  Strategy strategy = Strategy::Auto,
                  Exchange exchange = Exchange::Nonblocking);

    [[nodiscard]] Exchange exchange() const noexcept { return exchange_; }

    /// Collective in-place assembly: values[i] becomes the global sum over
    /// every rank holding global_ids[i].
    void sum(simmpi::Comm& comm, std::span<double> values) const;

    /// Number of dofs exchanged pairwise / through the tree (diagnostics).
    [[nodiscard]] std::size_t pairwise_dofs() const noexcept { return n_pairwise_; }
    [[nodiscard]] std::size_t tree_dofs() const noexcept { return tree_local_.size(); }

private:
    struct Partner {
        int rank = -1;
        /// Local indices shared with exactly this one other rank, ordered by
        /// global id on both sides so payloads align.
        std::vector<std::size_t> indices;
    };

    Exchange exchange_ = Exchange::Nonblocking;
    std::vector<Partner> partners_;          ///< pairwise exchange lists
    std::vector<std::size_t> tree_local_;    ///< local index of each tree dof
    std::vector<std::size_t> tree_slot_;     ///< its slot in the packed tree vector
    std::size_t tree_size_ = 0;              ///< packed vector length (all ranks)
    std::size_t n_pairwise_ = 0;
};

} // namespace gs
