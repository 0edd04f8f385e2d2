#include "nektar/transpose.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "obs/trace.hpp"

namespace nektar {

namespace {

/// Span on the calling rank's lane for one transpose entry point, stamped on
/// the virtual clock; inert without a comm or with tracing off.
class TransposeSpan {
public:
    TransposeSpan(simmpi::Comm* comm, const char* name) {
        if (comm == nullptr || !obs::active()) return;
        obs::Tracer& tr = obs::tracer();
        lane_ = tr.lane("rank " + std::to_string(comm->rank()));
        name_ = tr.intern(name);
        comm_ = comm;
        tr.begin(lane_, name_, comm_->wall_time(), /*virtual_time=*/true);
    }
    TransposeSpan(const TransposeSpan&) = delete;
    TransposeSpan& operator=(const TransposeSpan&) = delete;
    ~TransposeSpan() {
        if (comm_ != nullptr && obs::active())
            obs::tracer().end(lane_, name_, comm_->wall_time(), /*virtual_time=*/true);
    }

private:
    simmpi::Comm* comm_ = nullptr;
    obs::Lane* lane_ = nullptr;
    std::uint32_t name_ = 0;
};

} // namespace

std::size_t most_square_rows(std::size_t p) noexcept {
    std::size_t best = 1;
    for (std::size_t r = 1; r * r <= p; ++r)
        if (p % r == 0) best = r;
    return best;
}

Transpose::Transpose(simmpi::Comm* comm, std::size_t nq, std::size_t nplanes,
                     TransposeKind kind)
    : kind_(kind),
      nq_(nq),
      nplanes_(nplanes),
      nranks_(comm ? static_cast<std::size_t>(comm->size()) : 1),
      chunk_((nq + nranks_ - 1) / nranks_) {
    rows_ = slab() ? nranks_ : most_square_rows(nranks_);
    cols_ = nranks_ / rows_;
    b1_ = rows_ * nplanes_ * chunk_;
    b2_ = cols_ * nplanes_ * chunk_;
    if (!slab() && comm != nullptr && nranks_ > 1) {
        const std::size_t me = static_cast<std::size_t>(comm->rank());
        const int my_row = static_cast<int>(me / cols_);
        const int my_col = static_cast<int>(me % cols_);
        // Row comm: my row's ranks ordered by column; column comm: my
        // column's ranks ordered by row.  Both splits run on every rank, so
        // the derived contexts are identical across the world.
        row_ = comm->split(my_row, my_col);
        col_ = comm->split(my_col, my_row);
    }
}

// ---------------------------------------------------------------------------
// Pack / unpack helpers
// ---------------------------------------------------------------------------

// Slab stage 1 (cols = 1, so G = nplanes): block rp of M holds column peer
// rp's final points x my planes, point-major.  Points past nq are padding
// zeros.  With one rank M is the lines buffer itself.
void Transpose::pack_local(std::span<const double> planes, std::span<double> m) const {
    for (std::size_t rp = 0; rp < rows_; ++rp) {
        const std::size_t i0 = rp * chunk_;
        const std::size_t n = i0 < nq_ ? std::min(chunk_, nq_ - i0) : 0;
        for (std::size_t lp = 0; lp < nplanes_; ++lp) {
            double* dst = &m[rp * b2_ + lp];
            for (std::size_t ck = 0; ck < n; ++ck) dst[ck * nplanes_] = planes[lp * nq_ + i0 + ck];
            for (std::size_t ck = n; ck < chunk_; ++ck) dst[ck * nplanes_] = 0.0;
        }
    }
}

void Transpose::unpack_local(std::span<const double> m, std::span<double> planes,
                             std::size_t pb, std::size_t pe) const {
    for (std::size_t rp = 0; rp < rows_; ++rp) {
        const std::size_t i0 = rp * chunk_;
        const std::size_t end = i0 < nq_ ? std::min(pe, nq_ - i0) : 0;
        if (end <= pb) continue;
        for (std::size_t lp = 0; lp < nplanes_; ++lp) {
            double* const dst = &planes[lp * nq_ + i0];
            const double* const src = &m[rp * b2_ + lp];
            for (std::size_t ck = pb; ck < end; ++ck) dst[ck] = src[ck * nplanes_];
        }
    }
}

// Pencil stage-1 send block for row peer cp: my nplanes planes at the points
// owned by grid column cp (ranks (rp, cp) for every rp).  Points past nq are
// padding zeros, exactly as in the slab's local pack.
void Transpose::pack_stage1(std::span<const double> planes, std::span<double> send) const {
    const std::size_t npc = nplanes_ * chunk_;
    for (std::size_t cp = 0; cp < cols_; ++cp) {
        for (std::size_t rp = 0; rp < rows_; ++rp) {
            const std::size_t base = cp * b1_ + rp * npc;
            const std::size_t i0 = (rp * cols_ + cp) * chunk_;
            for (std::size_t lp = 0; lp < nplanes_; ++lp)
                for (std::size_t ck = 0; ck < chunk_; ++ck) {
                    const std::size_t i = i0 + ck;
                    send[base + lp * chunk_ + ck] = i < nq_ ? planes[lp * nq_ + i] : 0.0;
                }
        }
    }
}

void Transpose::unpack_planes(std::span<const double> recv, std::span<double> planes) const {
    const std::size_t npc = nplanes_ * chunk_;
    for (std::size_t cp = 0; cp < cols_; ++cp) {
        for (std::size_t rp = 0; rp < rows_; ++rp) {
            const std::size_t base = cp * b1_ + rp * npc;
            const std::size_t i0 = (rp * cols_ + cp) * chunk_;
            for (std::size_t lp = 0; lp < nplanes_; ++lp)
                for (std::size_t ck = 0; ck < chunk_; ++ck) {
                    const std::size_t i = i0 + ck;
                    if (i < nq_) planes[lp * nq_ + i] = recv[base + lp * chunk_ + ck];
                }
        }
    }
}

// Stage-1 recv -> the intermediate pencil M: block rp holds my column's
// points I((rp, my_col)) x my row's planes, point-major [ck * G + gl] with
// gl = cp * nplanes + lp indexing row peer cp's plane lp.  M is laid out so
// it IS the stage-2 send buffer: block rp goes to column peer rp, whose
// final chunk those points are.
void Transpose::stage1_to_m(std::span<const double> recv1, std::span<double> m) const {
    const std::size_t npc = nplanes_ * chunk_;
    const std::size_t g = cols_ * nplanes_;
    for (std::size_t rp = 0; rp < rows_; ++rp)
        for (std::size_t cp = 0; cp < cols_; ++cp)
            for (std::size_t lp = 0; lp < nplanes_; ++lp) {
                const std::size_t gl = cp * nplanes_ + lp;
                const double* src = &recv1[cp * b1_ + rp * npc + lp * chunk_];
                double* dst = &m[rp * b2_ + gl];
                for (std::size_t ck = 0; ck < chunk_; ++ck) dst[ck * g] = src[ck];
            }
}

void Transpose::m_to_stage1(std::span<const double> m, std::span<double> send1) const {
    const std::size_t npc = nplanes_ * chunk_;
    const std::size_t g = cols_ * nplanes_;
    for (std::size_t rp = 0; rp < rows_; ++rp)
        for (std::size_t cp = 0; cp < cols_; ++cp)
            for (std::size_t lp = 0; lp < nplanes_; ++lp) {
                const std::size_t gl = cp * nplanes_ + lp;
                const double* src = &m[rp * b2_ + gl];
                double* dst = &send1[cp * b1_ + rp * npc + lp * chunk_];
                for (std::size_t ck = 0; ck < chunk_; ++ck) dst[ck] = src[ck * g];
            }
}

// Stage-2 recv block rp carries my final points x grid row rp's planes,
// which are globally contiguous: plane gl of row rp is global plane
// rp * G + gl.  One copy per (peer, point) lands the lines layout.
void Transpose::unpack_lines_slice(std::span<const double> recv2, std::span<double> lines,
                                   std::size_t pb, std::size_t pe) const {
    const std::size_t g = cols_ * nplanes_;
    const std::size_t tp = total_planes();
    for (std::size_t rp = 0; rp < rows_; ++rp)
        for (std::size_t ck = pb; ck < pe; ++ck)
            std::copy_n(&recv2[rp * b2_ + ck * g], g, &lines[ck * tp + rp * g]);
}

void Transpose::pack_lines_slice(std::span<const double> lines, std::span<double> send2,
                                 std::size_t pb, std::size_t pe) const {
    const std::size_t g = cols_ * nplanes_;
    const std::size_t tp = total_planes();
    for (std::size_t rp = 0; rp < rows_; ++rp)
        for (std::size_t ck = pb; ck < pe; ++ck)
            std::copy_n(&lines[ck * tp + rp * g], g, &send2[rp * b2_ + ck * g]);
}

// ---------------------------------------------------------------------------
// Blocking mode
// ---------------------------------------------------------------------------

void Transpose::to_lines(simmpi::Comm* comm, std::span<const double> planes,
                         std::span<double> lines) const {
    assert(planes.size() == planes_buffer_size());
    assert(lines.size() == lines_buffer_size());
    const TransposeSpan span(comm, slab() ? "transpose.to_lines" : "transpose.pencil_to_lines");
    if (nranks_ == 1) {
        pack_local(planes, lines);
        return;
    }
    std::vector<double> m(b2_ * rows_), recv2(b2_ * rows_);
    if (slab()) {
        pack_local(planes, m);
    } else {
        std::vector<double> send1(b1_ * cols_), recv1(b1_ * cols_);
        pack_stage1(planes, send1);
        row_.alltoall(send1, recv1, b1_);
        stage1_to_m(recv1, m);
    }
    stage2(comm).alltoall(m, recv2, b2_);
    unpack_lines_slice(recv2, lines, 0, chunk_);
}

void Transpose::to_planes(simmpi::Comm* comm, std::span<const double> lines,
                          std::span<double> planes) const {
    assert(planes.size() == planes_buffer_size());
    assert(lines.size() == lines_buffer_size());
    const TransposeSpan span(comm,
                             slab() ? "transpose.to_planes" : "transpose.pencil_to_planes");
    if (nranks_ == 1) {
        unpack_local(lines, planes, 0, chunk_);
        return;
    }
    std::vector<double> send2(b2_ * rows_), mprime(b2_ * rows_);
    pack_lines_slice(lines, send2, 0, chunk_);
    stage2(comm).alltoall(send2, mprime, b2_);
    if (slab()) {
        unpack_local(mprime, planes, 0, chunk_);
        return;
    }
    std::vector<double> send1(b1_ * cols_), recv1(b1_ * cols_);
    m_to_stage1(mprime, send1);
    row_.alltoall(send1, recv1, b1_);
    unpack_planes(recv1, planes);
}

// ---------------------------------------------------------------------------
// Overlapped (pipelined) mode
// ---------------------------------------------------------------------------
//
// Stage 1 has nothing to overlap against (no final point is complete until
// stage 2 delivers it), so the pencil ships it whole through one nonblocking
// exchange per field; the pipeline cuts on stage 2, whose point-major blocks
// slice on runs of final points.

void Transpose::roundtrip_overlapped(
    simmpi::Comm* comm, const std::vector<std::span<const double>>& planes_in,
    const std::vector<std::span<double>>& lines_in,
    const std::vector<std::span<const double>>& lines_out,
    const std::vector<std::span<double>>& planes_out, std::size_t nslices,
    const std::function<void(std::size_t, std::size_t)>& compute) const {
    assert(planes_in.size() == lines_in.size());
    assert(lines_out.size() == planes_out.size());
    const TransposeSpan span(comm, slab() ? "transpose.roundtrip_overlapped"
                                          : "transpose.pencil_roundtrip_overlapped");
    if (comm == nullptr || nranks_ == 1) {
        for (std::size_t f = 0; f < planes_in.size(); ++f)
            to_lines(comm, planes_in[f], lines_in[f]);
        compute(0, chunk_);
        for (std::size_t f = 0; f < lines_out.size(); ++f)
            to_planes(comm, lines_out[f], planes_out[f]);
        return;
    }
    const std::size_t g = cols_ * nplanes_;
    const std::size_t nf_in = planes_in.size();
    const std::size_t nf_out = lines_out.size();
    if (nf_in == 0 && nf_out == 0) {
        compute(0, chunk_);
        return;
    }
    simmpi::Comm& c2 = stage2(comm);
    // Forward stage 1 into each field's stage-2 send buffer M.  The pencil
    // posts every field's row exchange before any completes, so their
    // transfers queue on the NIC back-to-back instead of syncing one field
    // at a time.
    std::vector<std::vector<double>> min(nf_in), r2in(nf_in);
    std::vector<simmpi::Ialltoall> h2in(nf_in);
    std::vector<std::vector<double>> s1in(slab() ? 0 : nf_in), r1in(s1in.size());
    std::vector<simmpi::Ialltoall> h1in(s1in.size());
    for (std::size_t f = 0; f < s1in.size(); ++f) {
        s1in[f].resize(b1_ * cols_);
        r1in[f].resize(b1_ * cols_);
        pack_stage1(planes_in[f], s1in[f]);
        h1in[f] = row_.ialltoall(r1in[f], b1_, 1);
        h1in[f].send_slice(0, s1in[f]);
    }
    for (std::size_t f = 0; f < nf_in; ++f) {
        min[f].resize(b2_ * rows_);
        r2in[f].resize(b2_ * rows_);
        if (slab()) {
            pack_local(planes_in[f], min[f]);
        } else {
            h1in[f].finish();
            stage1_to_m(r1in[f], min[f]);
        }
        h2in[f] = c2.ialltoall(r2in[f], b2_, nslices, g);
    }
    std::vector<std::vector<double>> s2out(nf_out), mpout(nf_out);
    std::vector<simmpi::Ialltoall> h2out(nf_out);
    for (std::size_t f = 0; f < nf_out; ++f) {
        s2out[f].resize(b2_ * rows_);
        mpout[f].resize(b2_ * rows_);
        h2out[f] = c2.ialltoall(mpout[f], b2_, nslices, g);
    }
    const simmpi::Ialltoall& geom = nf_in ? h2in[0] : h2out[0];
    const std::size_t ns = geom.num_slices();
    const auto point_range = [&](std::size_t s) {
        const std::size_t pb = geom.slice_offset(s) / g;
        return std::pair{pb, pb + geom.slice_len(s) / g};
    };
    // Ship every forward stage-2 slice up front, then drain: compute on
    // slice s runs under slices s+1.. still in flight, and each slice's
    // results start their reverse stage-2 journey immediately.
    for (std::size_t s = 0; s < ns; ++s)
        for (std::size_t f = 0; f < nf_in; ++f) h2in[f].send_slice(s, min[f]);
    for (std::size_t s = 0; s < ns; ++s) {
        const auto [pb, pe] = point_range(s);
        for (std::size_t f = 0; f < nf_in; ++f) {
            h2in[f].wait_slice(s);
            unpack_lines_slice(r2in[f], lines_in[f], pb, pe);
        }
        compute(pb, pe);
        for (std::size_t f = 0; f < nf_out; ++f) {
            pack_lines_slice(lines_out[f], s2out[f], pb, pe);
            h2out[f].send_slice(s, s2out[f]);
        }
    }
    // Drain the reverse stage 2.  Comm::absorb books idle and hidden time per
    // request in wait order, so each kind keeps its own order: the slab has
    // no reverse stage 1 and drains slice-major, landing each slice in the
    // planes as it arrives; the pencil drains field-major, posting each
    // field's reverse stage 1 as soon as that field's stage 2 is complete.
    if (slab()) {
        for (std::size_t s = 0; s < ns; ++s) {
            const auto [pb, pe] = point_range(s);
            for (std::size_t f = 0; f < nf_out; ++f) {
                h2out[f].wait_slice(s);
                unpack_local(mpout[f], planes_out[f], pb, pe);
            }
        }
        return;
    }
    std::vector<std::vector<double>> s1out(nf_out), r1out(nf_out);
    std::vector<simmpi::Ialltoall> h1out(nf_out);
    for (std::size_t f = 0; f < nf_out; ++f) {
        h2out[f].finish();
        s1out[f].resize(b1_ * cols_);
        r1out[f].resize(b1_ * cols_);
        m_to_stage1(mpout[f], s1out[f]);
        h1out[f] = row_.ialltoall(r1out[f], b1_, 1);
        h1out[f].send_slice(0, s1out[f]);
    }
    for (std::size_t f = 0; f < nf_out; ++f) {
        h1out[f].finish();
        unpack_planes(r1out[f], planes_out[f]);
    }
}

} // namespace nektar
