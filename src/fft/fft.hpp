#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

/// \file fft.hpp
/// Self-contained FFT library for the Fourier (homogeneous) direction of the
/// NekTar-F solver.  Power-of-two sizes use an iterative radix-2
/// Cooley-Tukey; every other size falls back to Bluestein's chirp-z
/// algorithm, so any plane count works.
///
/// The batch path (rfft_lanes / irfft_lanes) transforms W = 4 or 8 real
/// lines at once, held lane-interleaved, through one vector kernel whose
/// lane q does exactly the per-line path's operations on line q, so every
/// line's result is bitwise the per-line transform's (DESIGN.md §5.10a).
namespace fft {

using cplx = std::complex<double>;

/// A reusable plan for length-n complex transforms (twiddle tables etc.).
/// Plans are immutable after construction and safe to share across threads.
class Plan {
public:
    explicit Plan(std::size_t n);

    [[nodiscard]] std::size_t size() const noexcept { return n_; }

    /// In-place forward DFT: X_k = sum_j x_j exp(-2*pi*i*j*k/n).
    void forward(std::span<cplx> x) const;

    /// In-place inverse DFT including the 1/n normalisation.
    void inverse(std::span<cplx> x) const;

private:
    friend void rfft_lanes(const Plan&, std::size_t, std::size_t, std::span<const double>,
                           std::span<double>);
    friend void irfft_lanes(const Plan&, std::size_t, std::size_t, std::span<double>,
                            std::span<double>);
    void radix2(std::span<cplx> x, bool inv) const;
    /// radix2 on w lines held lane-interleaved (see rfft_lanes), without
    /// the inverse's 1/n; power-of-two lengths only.
    void radix2_lanes(double* x, std::size_t w, bool inv) const;
    void bluestein(std::span<cplx> x, bool inv) const;

    std::size_t n_ = 0;
    bool pow2_ = false;
    std::vector<cplx> twiddle_;       // radix-2 twiddles (forward sign)
    std::vector<std::size_t> rev_;    // bit reversal permutation
    // Bluestein workspace (sized m = next pow2 >= 2n-1)
    std::size_t m_ = 0;
    std::vector<cplx> chirp_;         // exp(-i*pi*k^2/n)
    std::vector<cplx> bfilter_fft_;   // FFT of the chirp filter
    std::vector<cplx> mtwiddle_;
    std::vector<std::size_t> mrev_;
    void radix2_m(std::span<cplx> x, bool inv) const;
};

/// One-shot helpers (construct a plan internally).
void forward(std::span<cplx> x);
void inverse(std::span<cplx> x);

/// Real-to-half-complex transform: given n real samples, returns the n/2+1
/// non-redundant spectrum coefficients (n must be even).
std::vector<cplx> rfft(const Plan& plan, std::span<const double> x);

/// rfft into caller storage: `buf` has n entries, and on return its first
/// n/2+1 hold the spectrum (the rest is scratch).  Bitwise the returning
/// form, without its allocation.
void rfft(const Plan& plan, std::span<const double> x, std::span<cplx> buf);

/// Inverse of rfft; `spec` has n/2+1 entries, result has n real samples.
std::vector<double> irfft(const Plan& plan, std::span<const cplx> spec);

/// irfft into caller storage: `out` gets the n real samples, `work` (n
/// entries) is scratch.  Bitwise the returning form, without allocations.
void irfft(const Plan& plan, std::span<const cplx> spec, std::span<double> out,
           std::span<cplx> work);

/// Lane-interleaved layout of a batch of w lines (w = 4 or 8; FourierNS
/// takes blaslite::vector_lanes(), the width its clone runs): real value j
/// of line q at x[j * w + q]; complex coefficient k of line q with its real
/// part at c[2 * k * w + q] and its imaginary part at c[(2 * k + 1) * w + q].
///
/// rfft of lines 0 .. count-1 (count <= w): `x` holds n values per lane and
/// `buf` (2 n w doubles) gets each line's n/2+1 spectrum coefficients
/// (the rest is scratch).  Lane q is bitwise rfft(plan, line q), and each
/// line is charged as one rfft; lanes from `count` on are unspecified.
void rfft_lanes(const Plan& plan, std::size_t w, std::size_t count, std::span<const double> x,
                std::span<double> buf);

/// irfft of lines 0 .. count-1: `buf` (2 n w doubles) holds each line's
/// n/2+1 coefficients on entry and is scratch after; `out` gets n real
/// samples per lane.  Lane q is bitwise irfft(plan, its spectrum), charged
/// as one irfft; lanes from `count` on are unspecified.
void irfft_lanes(const Plan& plan, std::size_t w, std::size_t count, std::span<double> buf,
                 std::span<double> out);

/// Number of real flops charged for a length-n complex FFT (5 n log2 n).
[[nodiscard]] std::size_t fft_flops(std::size_t n) noexcept;

} // namespace fft
