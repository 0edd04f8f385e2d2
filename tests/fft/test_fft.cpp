#include "fft/fft.hpp"

#include <gtest/gtest.h>

#include "blaslite/counters.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>

namespace {

using fft::cplx;

std::vector<cplx> random_signal(std::size_t n, unsigned seed) {
    std::mt19937 gen(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<cplx> v(n);
    for (auto& x : v) x = cplx{dist(gen), dist(gen)};
    return v;
}

/// Brute-force DFT for reference.
std::vector<cplx> naive_dft(const std::vector<cplx>& x) {
    const std::size_t n = x.size();
    std::vector<cplx> out(n, cplx{0.0, 0.0});
    for (std::size_t k = 0; k < n; ++k)
        for (std::size_t j = 0; j < n; ++j)
            out[k] += x[j] * std::polar(1.0, -2.0 * std::numbers::pi *
                                                 static_cast<double>(j * k) /
                                                 static_cast<double>(n));
    return out;
}

class FftSizes : public ::testing::TestWithParam<int> {};

TEST_P(FftSizes, MatchesNaiveDft) {
    const auto n = static_cast<std::size_t>(GetParam());
    auto x = random_signal(n, 1);
    const auto ref = naive_dft(x);
    fft::Plan plan(n);
    plan.forward(x);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(x[k].real(), ref[k].real(), 1e-9 * static_cast<double>(n)) << n << " " << k;
        EXPECT_NEAR(x[k].imag(), ref[k].imag(), 1e-9 * static_cast<double>(n));
    }
}

TEST_P(FftSizes, RoundTripIsIdentity) {
    const auto n = static_cast<std::size_t>(GetParam());
    const auto x0 = random_signal(n, 2);
    auto x = x0;
    fft::Plan plan(n);
    plan.forward(x);
    plan.inverse(x);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(x[k].real(), x0[k].real(), 1e-10 * static_cast<double>(n));
        EXPECT_NEAR(x[k].imag(), x0[k].imag(), 1e-10 * static_cast<double>(n));
    }
}

TEST_P(FftSizes, ParsevalHolds) {
    const auto n = static_cast<std::size_t>(GetParam());
    auto x = random_signal(n, 3);
    double time_energy = 0.0;
    for (const auto& v : x) time_energy += std::norm(v);
    fft::Plan plan(n);
    plan.forward(x);
    double freq_energy = 0.0;
    for (const auto& v : x) freq_energy += std::norm(v);
    EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
                1e-8 * static_cast<double>(n * n));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwoAndOdd, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 3, 5, 6, 7, 12, 15, 100));

TEST(Fft, DeltaTransformsToConstant) {
    std::vector<cplx> x(16, cplx{0.0, 0.0});
    x[0] = cplx{1.0, 0.0};
    fft::forward(x);
    for (const auto& v : x) {
        EXPECT_NEAR(v.real(), 1.0, 1e-12);
        EXPECT_NEAR(v.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, Linearity) {
    const std::size_t n = 32;
    const auto a = random_signal(n, 4);
    const auto b = random_signal(n, 5);
    std::vector<cplx> sum(n);
    for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
    auto fa = a, fb = b, fsum = sum;
    fft::Plan plan(n);
    plan.forward(fa);
    plan.forward(fb);
    plan.forward(fsum);
    for (std::size_t k = 0; k < n; ++k) {
        const cplx expect = 2.0 * fa[k] + 3.0 * fb[k];
        EXPECT_NEAR(fsum[k].real(), expect.real(), 1e-9);
        EXPECT_NEAR(fsum[k].imag(), expect.imag(), 1e-9);
    }
}

TEST(Rfft, RoundTripAndHermitianSymmetry) {
    const std::size_t n = 48;
    std::mt19937 gen(6);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<double> x(n);
    for (auto& v : x) v = dist(gen);
    fft::Plan plan(n);
    const auto spec = fft::rfft(plan, x);
    ASSERT_EQ(spec.size(), n / 2 + 1);
    // DC and Nyquist must be real for a real signal.
    EXPECT_NEAR(spec[0].imag(), 0.0, 1e-10);
    EXPECT_NEAR(spec[n / 2].imag(), 0.0, 1e-10);
    const auto back = fft::irfft(plan, spec);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], x[i], 1e-10);
}

TEST(Rfft, SingleHarmonicLandsInOneBin) {
    const std::size_t n = 64;
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = std::cos(2.0 * std::numbers::pi * 5.0 * static_cast<double>(i) /
                        static_cast<double>(n));
    fft::Plan plan(n);
    const auto spec = fft::rfft(plan, x);
    for (std::size_t k = 0; k <= n / 2; ++k) {
        const double mag = std::abs(spec[k]);
        if (k == 5) {
            EXPECT_NEAR(mag, static_cast<double>(n) / 2.0, 1e-9);
        } else {
            EXPECT_NEAR(mag, 0.0, 1e-9);
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-identity of the real-arithmetic butterflies.  ReferencePlan is the
// std::complex radix-2 loop (conjugating the twiddle inside the butterfly
// for the inverse) and the Bluestein path on top of it, as fft.cpp had them
// before the butterflies were spelled out in real arithmetic.
// ---------------------------------------------------------------------------

struct ReferencePlan {
    std::size_t n = 0, m = 0;
    std::vector<cplx> tw, mtw, chirp, bfilter;
    std::vector<std::size_t> rev, mrev;

    static std::vector<std::size_t> bit_reversal(std::size_t n) {
        std::vector<std::size_t> r(n, 0);
        std::size_t bits = 0;
        while ((std::size_t{1} << bits) < n) ++bits;
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t b = 0; b < bits; ++b)
                if (i & (std::size_t{1} << b)) r[i] |= std::size_t{1} << (bits - 1 - b);
        return r;
    }
    static std::vector<cplx> twiddles(std::size_t n) {
        std::vector<cplx> t(n, cplx{1.0, 0.0});
        for (std::size_t len = 2; len <= n; len <<= 1) {
            const double ang = -2.0 * std::numbers::pi / static_cast<double>(len);
            for (std::size_t k = 0; k < len / 2; ++k)
                t[len / 2 + k] = std::polar(1.0, ang * static_cast<double>(k));
        }
        return t;
    }
    static void radix2(std::vector<cplx>& x, bool inv, const std::vector<cplx>& t,
                       const std::vector<std::size_t>& r) {
        const std::size_t n = x.size();
        for (std::size_t i = 0; i < n; ++i)
            if (i < r[i]) std::swap(x[i], x[r[i]]);
        for (std::size_t len = 2; len <= n; len <<= 1) {
            const std::size_t half = len / 2;
            for (std::size_t base = 0; base < n; base += len)
                for (std::size_t k = 0; k < half; ++k) {
                    cplx w = t[half + k];
                    if (inv) w = std::conj(w);
                    const cplx u = x[base + k];
                    const cplx v = x[base + half + k] * w;
                    x[base + k] = u + v;
                    x[base + half + k] = u - v;
                }
        }
    }

    explicit ReferencePlan(std::size_t size) : n(size) {
        if ((n & (n - 1)) == 0) {
            tw = twiddles(n);
            rev = bit_reversal(n);
            return;
        }
        m = 1;
        while (m < 2 * n - 1) m <<= 1;
        mtw = twiddles(m);
        mrev = bit_reversal(m);
        chirp.resize(n);
        for (std::size_t k = 0; k < n; ++k)
            chirp[k] = std::polar(1.0, -std::numbers::pi * static_cast<double>((k * k) % (2 * n)) /
                                           static_cast<double>(n));
        bfilter.assign(m, cplx{0.0, 0.0});
        bfilter[0] = std::conj(chirp[0]);
        for (std::size_t k = 1; k < n; ++k) bfilter[k] = bfilter[m - k] = std::conj(chirp[k]);
        radix2(bfilter, false, mtw, mrev);
    }
    void bluestein(std::vector<cplx>& x) const {
        std::vector<cplx> a(m, cplx{0.0, 0.0});
        for (std::size_t k = 0; k < n; ++k) a[k] = x[k] * chirp[k];
        radix2(a, false, mtw, mrev);
        for (std::size_t k = 0; k < m; ++k) a[k] *= bfilter[k];
        radix2(a, true, mtw, mrev);
        const double invm = 1.0 / static_cast<double>(m);
        for (std::size_t k = 0; k < n; ++k) x[k] = a[k] * chirp[k] * invm;
    }
    void transform(std::vector<cplx>& x, bool inv) const {
        if (m == 0) {
            radix2(x, inv, tw, rev);
        } else if (inv) {
            for (auto& v : x) v = std::conj(v);
            bluestein(x);
            for (auto& v : x) v = std::conj(v);
        } else {
            bluestein(x);
        }
        if (inv)
            for (auto& v : x) v *= 1.0 / static_cast<double>(n);
    }
};

::testing::AssertionResult same_bits(std::span<const cplx> a, std::span<const cplx> b) {
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (std::memcmp(&a[i], &b[i], sizeof(cplx)) != 0)
            return ::testing::AssertionFailure()
                   << "first difference at " << i << ": " << a[i] << " vs " << b[i];
    return ::testing::AssertionSuccess();
}

TEST(Fft, Radix2IsBitwiseTheComplexButterfly) {
    std::vector<std::size_t> sizes = {12, 80, 96}; // Bluestein over 32, 256, 256
    for (std::size_t n = 2; n <= 1024; n *= 2) sizes.push_back(n);
    for (std::size_t n : sizes) {
        const fft::Plan plan(n);
        const ReferencePlan ref(n);
        for (bool inv : {false, true}) {
            std::vector<cplx> x = random_signal(n, static_cast<unsigned>(n)), x_ref = x;
            inv ? plan.inverse(x) : plan.forward(x);
            ref.transform(x_ref, inv);
            EXPECT_TRUE(same_bits(x, x_ref)) << "n " << n << (inv ? ", inverse" : ", forward");
        }
    }
}

TEST(Rfft, IntoBuffersMatchesTheReturningForm) {
    // The buffers start as NaN: nothing of their old contents may leak in.
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t n : {2u, 16u, 48u, 64u, 128u}) {
        const fft::Plan plan(n);
        std::mt19937 gen(static_cast<unsigned>(n));
        std::uniform_real_distribution<double> dist(-1.0, 1.0);
        std::vector<double> x(n);
        for (auto& v : x) v = dist(gen);
        std::vector<cplx> buf(n, cplx{nan, nan});
        fft::rfft(plan, x, buf);
        const std::vector<cplx> spec = fft::rfft(plan, x);
        EXPECT_TRUE(same_bits(std::span<const cplx>(buf).first(n / 2 + 1), spec)) << "rfft " << n;

        std::vector<double> out(n, nan);
        std::vector<cplx> work(n, cplx{nan, nan});
        fft::irfft(plan, spec, out, work);
        const std::vector<double> back = fft::irfft(plan, spec);
        EXPECT_EQ(std::memcmp(out.data(), back.data(), n * sizeof(double)), 0) << "irfft " << n;
    }
}

TEST(Rfft, LanesAreBitwiseThePerLineTransforms) {
    // 1 to 17 lines through batches of 4 and of 8 lanes, against rfft and
    // irfft line by line: every power of two from 2 to 256, plus 24, a
    // Bluestein length that takes the per-line fallback.  Each line gets its
    // own data, so a lane shifted by one shows; random values make a fused
    // multiply-add in a butterfly show.  The charges are one transform per
    // line, as the per-line path's.
    constexpr double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::size_t> sizes = {24};
    for (std::size_t n = 2; n <= 256; n *= 2) sizes.push_back(n);
    for (std::size_t n : sizes) {
        const fft::Plan plan(n);
        for (std::size_t w : {4u, 8u})
            for (std::size_t lines = 1; lines <= 17; ++lines) {
                std::mt19937 gen(static_cast<unsigned>(1000 * n + 100 * w + lines));
                std::uniform_real_distribution<double> dist(-1.0, 1.0);
                std::vector<std::vector<double>> x(lines, std::vector<double>(n));
                std::vector<std::vector<cplx>> spec(lines, std::vector<cplx>(n / 2 + 1));
                for (std::size_t l = 0; l < lines; ++l) {
                    for (double& v : x[l]) v = dist(gen);
                    for (cplx& c : spec[l]) c = cplx{dist(gen), dist(gen)};
                }
                blaslite::OpCounts lane_counts, line_counts;
                for (std::size_t l0 = 0; l0 < lines; l0 += w) {
                    const std::size_t count = std::min(w, lines - l0);
                    std::vector<double> xl(n * w, 0.0), buf(2 * n * w, nan), out(n * w, nan);
                    for (std::size_t q = 0; q < count; ++q)
                        for (std::size_t j = 0; j < n; ++j) xl[j * w + q] = x[l0 + q][j];
                    {
                        const blaslite::CountScope scope;
                        fft::rfft_lanes(plan, w, count, xl, buf);
                        lane_counts += scope.delta();
                    }
                    for (std::size_t q = 0; q < count; ++q) {
                        std::vector<cplx> ref(n);
                        {
                            const blaslite::CountScope scope;
                            fft::rfft(plan, x[l0 + q], ref);
                            line_counts += scope.delta();
                        }
                        std::vector<cplx> got(n / 2 + 1);
                        for (std::size_t k = 0; k <= n / 2; ++k)
                            got[k] = cplx{buf[2 * k * w + q], buf[(2 * k + 1) * w + q]};
                        EXPECT_TRUE(same_bits(got, std::span<const cplx>(ref).first(n / 2 + 1)))
                            << "rfft n " << n << ", w " << w << ", line " << l0 + q;
                    }

                    std::fill(buf.begin(), buf.end(), 0.0);
                    for (std::size_t q = 0; q < count; ++q)
                        for (std::size_t k = 0; k <= n / 2; ++k) {
                            buf[2 * k * w + q] = spec[l0 + q][k].real();
                            buf[(2 * k + 1) * w + q] = spec[l0 + q][k].imag();
                        }
                    {
                        const blaslite::CountScope scope;
                        fft::irfft_lanes(plan, w, count, buf, out);
                        lane_counts += scope.delta();
                    }
                    for (std::size_t q = 0; q < count; ++q) {
                        std::vector<double> ref(n), got(n);
                        std::vector<cplx> work(n);
                        {
                            const blaslite::CountScope scope;
                            fft::irfft(plan, spec[l0 + q], ref, work);
                            line_counts += scope.delta();
                        }
                        for (std::size_t j = 0; j < n; ++j) got[j] = out[j * w + q];
                        EXPECT_EQ(std::memcmp(got.data(), ref.data(), n * sizeof(double)), 0)
                            << "irfft n " << n << ", w " << w << ", line " << l0 + q;
                    }
                }
                EXPECT_EQ(lane_counts.flops, line_counts.flops) << n;
                EXPECT_EQ(lane_counts.bytes(), line_counts.bytes()) << n;
                EXPECT_EQ(lane_counts.calls, line_counts.calls) << n;
            }
    }
}

TEST(Fft, FlopsModelIsMonotonic) {
    EXPECT_EQ(fft::fft_flops(1), 0u);
    EXPECT_LT(fft::fft_flops(64), fft::fft_flops(128));
    EXPECT_NEAR(static_cast<double>(fft::fft_flops(1024)), 5.0 * 1024 * 10, 1.0);
}

} // namespace
