#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "simmpi/simmpi.hpp"

/// \file transpose.hpp
/// The distributed matrix transposition at the heart of NekTar-F.
///
/// Each rank owns `nplanes` Fourier planes (two per complex mode) holding all
/// nq quadrature points of the x-y mesh: the "planes" layout.  The nonlinear
/// step needs the opposite "lines" layout — every rank holding all planes for
/// a chunk of the points, so z-lines can be FFTed locally.  "This type of
/// algorithm relies heavily on Global Exchange MPI_Alltoall ... it supports
/// the transposition of a distributed matrix" (paper §4.2.1).
///
/// The P ranks form a rows x cols grid and the exchange runs in two stages:
///
///   stage 1 (row comm, cols ranks):  every rank scatters its own planes to
///     the point-sets owned by each *column* of the grid, leaving it with
///     its row's planes at its column's points — a "pencil" of the data;
///   stage 2 (column comm, rows ranks):  the pencil is re-scattered along
///     the column so every rank ends with all planes for its final chunk of
///     points.
///
/// TransposeKind picks the grid:
///
///   * Slab — the paper's 1-D slab, the P x 1 grid.  Stage 1 is a local
///     repack (no split(), no message) and stage 2 is one P-wide alltoall on
///     the world communicator every call receives, so its events log as
///     group 0 and re-price across P.  Latency grows like P.
///   * Pencil — the 2-D pencil of the post-paper literature: the most square
///     grid (most_square_rows), both stages on split() subcommunicators.
///     Per-rank volume is the slab's; the message count drops to
///     rows + cols - 2 peers, which is what the latency term prices.
///
/// Point and plane ownership do not depend on the grid, so both kinds move
/// bit-identical values, padding zeros included — the choice changes the
/// virtual-clock cost, never the numbers.
namespace nektar {

/// Which distributed-transpose decomposition a Transpose runs.  FourierNS
/// always runs the paper's Slab; the Pencil serves the strong-scaling study.
enum class TransposeKind : std::uint8_t {
    Slab,   ///< the paper's 1-D slab: one P-wide alltoall on the world comm
    Pencil, ///< 2-D pencil: two staged alltoalls over row/column subcomms
};

/// Largest divisor of p that is <= sqrt(p): the most square grid shape.
[[nodiscard]] std::size_t most_square_rows(std::size_t p) noexcept;

class Transpose {
public:
    /// `comm` may be null for the serial (1-rank) case.  `nq` is the number
    /// of quadrature points per plane; `nplanes` the planes owned per rank
    /// (equal on all ranks).  A Pencil takes most_square_rows(comm->size())
    /// grid rows and its construction is collective: every rank derives the
    /// row and column subcommunicators via two split() calls.  A Slab never
    /// splits.
    Transpose(simmpi::Comm* comm, std::size_t nq, std::size_t nplanes,
              TransposeKind kind = TransposeKind::Slab);

    [[nodiscard]] std::size_t num_ranks() const noexcept { return nranks_; }
    /// Points this rank owns in line layout (last rank may see padding).
    [[nodiscard]] std::size_t chunk() const noexcept { return chunk_; }
    /// Global plane count (nplanes * ranks).
    [[nodiscard]] std::size_t total_planes() const noexcept { return nplanes_ * nranks_; }
    [[nodiscard]] std::size_t planes_buffer_size() const noexcept { return nplanes_ * nq_; }
    [[nodiscard]] std::size_t lines_buffer_size() const noexcept {
        return chunk_ * total_planes();
    }
    /// Physical point index of local line i on `rank` (>= nq means padding).
    [[nodiscard]] std::size_t global_point(std::size_t i, int rank) const noexcept {
        return static_cast<std::size_t>(rank) * chunk_ + i;
    }

    /// The process grid: num_ranks() == grid_rows() * grid_cols().
    [[nodiscard]] std::size_t grid_rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t grid_cols() const noexcept { return cols_; }

    /// planes layout: planes[lp * nq + i], lp in [0, nplanes).
    /// lines layout: lines[i_local * total_planes + gp], i_local in [0, chunk).
    /// Points beyond nq (padding) produce zero lines.
    void to_lines(simmpi::Comm* comm, std::span<const double> planes,
                  std::span<double> lines) const;
    /// Inverse of to_lines.
    void to_planes(simmpi::Comm* comm, std::span<const double> lines,
                   std::span<double> planes) const;

    /// The nonlinear step's full pipelined exchange: forward-transposes every
    /// `planes_in` field into the matching `lines_in` buffer, calls
    /// `compute(b, e)` as each slice of points [b, e) arrives (it must fill
    /// that point range of every `lines_out` field), and reverse-transposes
    /// `lines_out` into `planes_out`.  Stage 2 is cut into `nslices`
    /// point-aligned slices that ship up front, so compute on early points
    /// runs while later ones are still in flight and each slice's results
    /// start back immediately.  Bit-identical to the blocking to_lines /
    /// compute(0, chunk) / to_planes sequence.
    void roundtrip_overlapped(
        simmpi::Comm* comm, const std::vector<std::span<const double>>& planes_in,
        const std::vector<std::span<double>>& lines_in,
        const std::vector<std::span<const double>>& lines_out,
        const std::vector<std::span<double>>& planes_out, std::size_t nslices,
        const std::function<void(std::size_t, std::size_t)>& compute) const;

private:
    [[nodiscard]] bool slab() const noexcept { return kind_ == TransposeKind::Slab; }
    /// The stage-2 communicator: the world comm for a slab, the column
    /// subcomm for a pencil.
    [[nodiscard]] simmpi::Comm& stage2(simmpi::Comm* comm) const {
        return slab() ? *comm : col_;
    }

    // Buffer geometry.  Stage-1 per-peer blocks are plane-major
    // [rp * nplanes * chunk + lp * chunk + ck] (b1 = rows * nplanes * chunk
    // doubles each, one per row peer); stage-2 blocks are point-major
    // [ck * G + gl] with G = cols * nplanes row-local planes (b2 = chunk * G
    // doubles each, one per column peer), so a contiguous run of points is a
    // shippable slice — the granularity the overlapped pipeline cuts on.
    //
    // Slab stage 1: planes <-> the stage-2 buffer M in one local pass.
    void pack_local(std::span<const double> planes, std::span<double> m) const;
    void unpack_local(std::span<const double> m, std::span<double> planes, std::size_t pb,
                      std::size_t pe) const;
    // Pencil stage 1: planes -> row alltoall -> M, and back.
    void pack_stage1(std::span<const double> planes, std::span<double> send) const;
    void unpack_planes(std::span<const double> recv, std::span<double> planes) const;
    void stage1_to_m(std::span<const double> recv1, std::span<double> m) const;
    void m_to_stage1(std::span<const double> m, std::span<double> send1) const;
    // Stage 2: the received point-major blocks <-> the lines layout.
    void unpack_lines_slice(std::span<const double> recv2, std::span<double> lines,
                            std::size_t pb, std::size_t pe) const;
    void pack_lines_slice(std::span<const double> lines, std::span<double> send2,
                          std::size_t pb, std::size_t pe) const;

    TransposeKind kind_;
    std::size_t nq_;
    std::size_t nplanes_;
    std::size_t nranks_;
    std::size_t chunk_;
    std::size_t rows_ = 1;
    std::size_t cols_ = 1;
    std::size_t b1_ = 0; ///< stage-1 per-peer block, doubles
    std::size_t b2_ = 0; ///< stage-2 per-peer block, doubles
    // Mutable: the exchanges advance the owning rank's virtual clocks and
    // logs; the decomposition itself never changes after construction.
    // Both stay null for a slab.
    mutable simmpi::Comm row_;
    mutable simmpi::Comm col_;
};

} // namespace nektar
