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
    void radix2(std::span<cplx> x, bool inv) const;
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

/// Number of real flops charged for a length-n complex FFT (5 n log2 n).
[[nodiscard]] std::size_t fft_flops(std::size_t n) noexcept;

} // namespace fft
