#include "fft/fft.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

#include "blaslite/counters.hpp"
#include "blaslite/multiversion.hpp"

namespace fft {

namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
    std::size_t m = 1;
    while (m < n) m <<= 1;
    return m;
}

std::vector<std::size_t> bit_reversal(std::size_t n) {
    std::vector<std::size_t> rev(n, 0);
    std::size_t bits = 0;
    while ((std::size_t{1} << bits) < n) ++bits;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t r = 0;
        for (std::size_t b = 0; b < bits; ++b)
            if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
        rev[i] = r;
    }
    return rev;
}

std::vector<cplx> make_twiddles(std::size_t n) {
    // twiddle[n/2 .. n-1] style table: for each stage length len, entries at
    // [len/2, len) hold exp(-2 pi i k / len).
    std::vector<cplx> tw(n, cplx{1.0, 0.0});
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double ang = -2.0 * std::numbers::pi / static_cast<double>(len);
        for (std::size_t k = 0; k < len / 2; ++k)
            tw[len / 2 + k] = std::polar(1.0, ang * static_cast<double>(k));
    }
    return tw;
}

/// In-place radix-2 transform, without the inverse's 1/n.  The twiddle
/// product is spelled out in real arithmetic with the products and sums of
/// the inline std::complex multiply, (a + bi)(c + di) = (ac - bd) + (ad + bc)i,
/// so for finite data it is bitwise the complex loop; the inverse multiplies
/// by conj(w), whose (ac + bd) + (bc - ad)i equals it bit for bit too
/// (b(-d) = -(bd) exactly).  No FMA can fuse them: this file is built with
/// -ffp-contract=off, which its multiversioned lane kernels need too.
template <bool Inv>
void radix2_core(std::span<cplx> x, std::span<const cplx> tw, std::span<const std::size_t> rev) {
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i)
        if (i < rev[i]) std::swap(x[i], x[rev[i]]);
    // cplx is layout-compatible with double[2] ([complex.numbers]).
    double* const xd = reinterpret_cast<double*>(x.data());
    const double* const twd = reinterpret_cast<const double*>(tw.data());
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        for (std::size_t base = 0; base < n; base += len) {
            double* const u = xd + 2 * base;
            double* const v = u + 2 * half;
            for (std::size_t k = 0; k < half; ++k) {
                const double c = twd[2 * (half + k)], d = twd[2 * (half + k) + 1];
                const double a = v[2 * k], b = v[2 * k + 1];
                const double vr = Inv ? a * c + b * d : a * c - b * d;
                const double vi = Inv ? b * c - a * d : a * d + b * c;
                const double ur = u[2 * k], ui = u[2 * k + 1];
                u[2 * k] = ur + vr;
                u[2 * k + 1] = ui + vi;
                v[2 * k] = ur - vr;
                v[2 * k + 1] = ui - vi;
            }
        }
    }
}

/// radix2_core on W lines at once, lane-interleaved (complex element k of
/// line q: real part x[2kW + q], imaginary part x[(2k + 1)W + q]).  Lane q
/// takes exactly radix2_core's operations on line q in its order: the same
/// swaps, and per butterfly the same products, sums and differences, each
/// rounded (no FMA: -ffp-contract=off).  One blaslite::Lanes<W> holds one
/// value of the W lines; the batch buffers come from callers, so only
/// their element alignment is known.
template <bool Inv, std::size_t W>
[[gnu::always_inline]] inline void radix2_lanes(double* x, const double* twd,
                                                const std::size_t* rev, std::size_t n) noexcept {
    using V = typename blaslite::Lanes<W>::type;
    V* const xv = reinterpret_cast<V*>(x);
    for (std::size_t i = 0; i < n; ++i)
        if (i < rev[i]) {
            // Not std::swap: a template argument drops V's alignment.
            const V re = xv[2 * i], im = xv[2 * i + 1];
            xv[2 * i] = xv[2 * rev[i]];
            xv[2 * i + 1] = xv[2 * rev[i] + 1];
            xv[2 * rev[i]] = re;
            xv[2 * rev[i] + 1] = im;
        }
    for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        for (std::size_t base = 0; base < n; base += len) {
            V* const u = xv + 2 * base;
            V* const v = u + 2 * half;
            for (std::size_t k = 0; k < half; ++k) {
                const double c = twd[2 * (half + k)], d = twd[2 * (half + k) + 1];
                const V a = v[2 * k], b = v[2 * k + 1];
                const V vr = Inv ? a * c + b * d : a * c - b * d;
                const V vi = Inv ? b * c - a * d : a * d + b * c;
                const V ur = u[2 * k], ui = u[2 * k + 1];
                u[2 * k] = ur + vr;
                u[2 * k + 1] = ui + vi;
                v[2 * k] = ur - vr;
                v[2 * k + 1] = ui - vi;
            }
        }
    }
}

REPRO_MULTIVERSION
void radix2_four(bool inv, double* x, const double* twd, const std::size_t* rev,
                 std::size_t n) noexcept {
    inv ? radix2_lanes<true, 4>(x, twd, rev, n) : radix2_lanes<false, 4>(x, twd, rev, n);
}

REPRO_MULTIVERSION
void radix2_eight(bool inv, double* x, const double* twd, const std::size_t* rev,
                  std::size_t n) noexcept {
    inv ? radix2_lanes<true, 8>(x, twd, rev, n) : radix2_lanes<false, 8>(x, twd, rev, n);
}

/// Charges `count` transforms of length n, each as Plan::forward/inverse
/// do: one call of fft_flops(n) flops, n complex values read and written.
void charge_lines(std::size_t n, std::size_t count) noexcept {
    blaslite::OpCounts& c = blaslite::thread_counts();
    c.flops += count * fft_flops(n);
    c.bytes_read += count * n * sizeof(cplx);
    c.bytes_written += count * n * sizeof(cplx);
    c.calls += count;
}

} // namespace

std::size_t fft_flops(std::size_t n) noexcept {
    if (n < 2) return 0;
    const double l = std::log2(static_cast<double>(n));
    return static_cast<std::size_t>(5.0 * static_cast<double>(n) * l);
}

Plan::Plan(std::size_t n) : n_(n), pow2_(is_pow2(n)) {
    assert(n >= 1);
    if (pow2_) {
        twiddle_ = make_twiddles(n_);
        rev_ = bit_reversal(n_);
        return;
    }
    // Bluestein setup.
    m_ = next_pow2(2 * n_ - 1);
    mtwiddle_ = make_twiddles(m_);
    mrev_ = bit_reversal(m_);
    chirp_.resize(n_);
    for (std::size_t k = 0; k < n_; ++k) {
        // k^2 mod 2n keeps the argument bounded for large k.
        const std::size_t k2 = (k * k) % (2 * n_);
        chirp_[k] = std::polar(1.0, -std::numbers::pi * static_cast<double>(k2) /
                                        static_cast<double>(n_));
    }
    bfilter_fft_.assign(m_, cplx{0.0, 0.0});
    bfilter_fft_[0] = std::conj(chirp_[0]);
    for (std::size_t k = 1; k < n_; ++k) {
        bfilter_fft_[k] = std::conj(chirp_[k]);
        bfilter_fft_[m_ - k] = std::conj(chirp_[k]);
    }
    radix2_core<false>(bfilter_fft_, mtwiddle_, mrev_);
}

void Plan::radix2(std::span<cplx> x, bool inv) const {
    inv ? radix2_core<true>(x, twiddle_, rev_) : radix2_core<false>(x, twiddle_, rev_);
}

void Plan::radix2_lanes(double* x, std::size_t w, bool inv) const {
    assert(pow2_);
    const double* const twd = reinterpret_cast<const double*>(twiddle_.data());
    (w == 8 ? radix2_eight : radix2_four)(inv, x, twd, rev_.data(), n_);
}

void Plan::radix2_m(std::span<cplx> x, bool inv) const {
    inv ? radix2_core<true>(x, mtwiddle_, mrev_) : radix2_core<false>(x, mtwiddle_, mrev_);
}

void Plan::bluestein(std::span<cplx> x, bool inv) const {
    if (inv) {
        // DFT^{-1}(x) = conj(DFT(conj(x))) / n; the caller applies the 1/n.
        for (auto& v : x) v = std::conj(v);
        bluestein(x, false);
        for (auto& v : x) v = std::conj(v);
        return;
    }
    // Per-thread workspace, grown on first use: a transform never yields.
    thread_local std::vector<cplx> a;
    a.assign(m_, cplx{0.0, 0.0});
    for (std::size_t k = 0; k < n_; ++k) a[k] = x[k] * chirp_[k];
    radix2_m(a, false);
    for (std::size_t k = 0; k < m_; ++k) a[k] *= bfilter_fft_[k];
    radix2_m(a, true);
    // radix2_core(inv=true) omits the 1/m normalisation; apply it here.
    const double invm = 1.0 / static_cast<double>(m_);
    for (std::size_t k = 0; k < n_; ++k) x[k] = a[k] * chirp_[k] * invm;
}

void Plan::forward(std::span<cplx> x) const {
    assert(x.size() == n_);
    if (n_ == 1) return;
    if (pow2_) {
        radix2(x, false);
    } else {
        bluestein(x, false);
    }
    blaslite::detail::charge(fft_flops(n_), n_ * sizeof(cplx), n_ * sizeof(cplx));
}

void Plan::inverse(std::span<cplx> x) const {
    assert(x.size() == n_);
    if (n_ == 1) return;
    if (pow2_) {
        radix2(x, true);
        const double inv = 1.0 / static_cast<double>(n_);
        for (auto& v : x) v *= inv;
    } else {
        bluestein(x, true);
        const double inv = 1.0 / static_cast<double>(n_);
        for (auto& v : x) v *= inv;
    }
    blaslite::detail::charge(fft_flops(n_), n_ * sizeof(cplx), n_ * sizeof(cplx));
}

void forward(std::span<cplx> x) { Plan(x.size()).forward(x); }
void inverse(std::span<cplx> x) { Plan(x.size()).inverse(x); }

void rfft(const Plan& plan, std::span<const double> x, std::span<cplx> buf) {
    const std::size_t n = plan.size();
    assert(x.size() == n && buf.size() == n && n % 2 == 0);
    for (std::size_t i = 0; i < n; ++i) buf[i] = cplx{x[i], 0.0};
    plan.forward(buf);
}

void irfft(const Plan& plan, std::span<const cplx> spec, std::span<double> out,
           std::span<cplx> work) {
    const std::size_t n = plan.size();
    assert(spec.size() == n / 2 + 1 && out.size() == n && work.size() == n && n % 2 == 0);
    for (std::size_t k = 0; k <= n / 2; ++k) work[k] = spec[k];
    for (std::size_t k = n / 2 + 1; k < n; ++k) work[k] = std::conj(spec[n - k]);
    plan.inverse(work);
    for (std::size_t i = 0; i < n; ++i) out[i] = work[i].real();
}

std::vector<cplx> rfft(const Plan& plan, std::span<const double> x) {
    std::vector<cplx> buf(plan.size());
    rfft(plan, x, buf);
    buf.resize(plan.size() / 2 + 1);
    return buf;
}

std::vector<double> irfft(const Plan& plan, std::span<const cplx> spec) {
    std::vector<cplx> work(plan.size());
    std::vector<double> out(plan.size());
    irfft(plan, spec, out, work);
    return out;
}

namespace {

/// The per-line fallback's buffers, per thread and grown on first use (a
/// transform never yields), so a batch allocates nothing once warm.
struct LineScratch {
    std::vector<double> line;
    std::vector<cplx> spec, work;
};

LineScratch& line_scratch(std::size_t n) {
    thread_local LineScratch s;
    if (s.line.size() < n) {
        s.line.resize(n);
        s.spec.resize(n / 2 + 1);
        s.work.resize(n);
    }
    return s;
}

} // namespace

void rfft_lanes(const Plan& plan, std::size_t w, std::size_t count, std::span<const double> x,
                std::span<double> buf) {
    const std::size_t n = plan.size();
    assert((w == 4 || w == 8) && count <= w && n % 2 == 0);
    assert(x.size() == n * w && buf.size() == 2 * n * w);
    if (!plan.pow2_) {
        // Bluestein lengths: line by line.
        LineScratch& s = line_scratch(n);
        const std::span<double> line(s.line.data(), n);
        const std::span<cplx> spec(s.work.data(), n);
        for (std::size_t q = 0; q < count; ++q) {
            for (std::size_t j = 0; j < n; ++j) line[j] = x[j * w + q];
            rfft(plan, line, spec);
            for (std::size_t k = 0; k <= n / 2; ++k) {
                buf[2 * k * w + q] = spec[k].real();
                buf[(2 * k + 1) * w + q] = spec[k].imag();
            }
        }
        return;
    }
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t q = 0; q < w; ++q) {
            buf[2 * j * w + q] = x[j * w + q];
            buf[(2 * j + 1) * w + q] = 0.0;
        }
    plan.radix2_lanes(buf.data(), w, false);
    charge_lines(n, count);
}

void irfft_lanes(const Plan& plan, std::size_t w, std::size_t count, std::span<double> buf,
                 std::span<double> out) {
    const std::size_t n = plan.size();
    assert((w == 4 || w == 8) && count <= w && n % 2 == 0);
    assert(buf.size() == 2 * n * w && out.size() == n * w);
    if (!plan.pow2_) {
        // Bluestein lengths: line by line.
        LineScratch& s = line_scratch(n);
        const std::span<double> line(s.line.data(), n);
        const std::span<cplx> spec(s.spec.data(), n / 2 + 1), work(s.work.data(), n);
        for (std::size_t q = 0; q < count; ++q) {
            for (std::size_t k = 0; k <= n / 2; ++k)
                spec[k] = cplx{buf[2 * k * w + q], buf[(2 * k + 1) * w + q]};
            irfft(plan, spec, line, work);
            for (std::size_t j = 0; j < n; ++j) out[j * w + q] = line[j];
        }
        return;
    }
    // The Hermitian half irfft fills in: coefficient k > n/2 is the
    // conjugate of coefficient n - k.
    for (std::size_t k = n / 2 + 1; k < n; ++k)
        for (std::size_t q = 0; q < w; ++q) {
            buf[2 * k * w + q] = buf[2 * (n - k) * w + q];
            buf[(2 * k + 1) * w + q] = -buf[(2 * (n - k) + 1) * w + q];
        }
    plan.radix2_lanes(buf.data(), w, true);
    const double inv = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t q = 0; q < w; ++q) out[j * w + q] = buf[2 * j * w + q] * inv;
    charge_lines(n, count);
}

} // namespace fft
