#pragma once

#include <cstddef>

/// \file multiversion.hpp
/// REPRO_MULTIVERSION: compile a hot kernel once per x86-64 microarchitecture
/// level and dispatch at load time (GCC/Clang function multi-versioning).
///
/// The baseline x86-64 ABI the default build targets has no FMA and only 16
/// SSE2 registers, which starves register-blocked micro-kernels; the v3
/// (AVX2+FMA) and v4 (AVX-512) clones give them the register file they were
/// designed for without changing global compile flags or dropping support
/// for older machines.  Dispatch is per-machine, not per-run, so results
/// stay bitwise reproducible on a given host.  A kernel that must also be
/// bitwise identical *across* clones has to be compiled with
/// -ffp-contract=off, or the v3/v4 clones fuse a*b+c into an FMA.
/// Sanitizer builds disable the clones: their IFUNC resolvers run during
/// relocation, before the sanitizer runtime is initialized, and crash at
/// startup.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define REPRO_MULTIVERSION
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define REPRO_MULTIVERSION
#endif
#endif
#if !defined(REPRO_MULTIVERSION) && defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define REPRO_MULTIVERSION \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#define REPRO_MULTIVERSION_CLONES 1
#endif
#endif
#ifndef REPRO_MULTIVERSION
#define REPRO_MULTIVERSION
#endif
/// 1 when REPRO_MULTIVERSION makes clones (the ISA a kernel runs with is
/// then the host's level, not the compile flags'), else 0.
#ifndef REPRO_MULTIVERSION_CLONES
#define REPRO_MULTIVERSION_CLONES 0
#endif

namespace blaslite {

/// The x86-64 microarchitecture level REPRO_MULTIVERSION kernels run with:
/// the host's when clones are made (checked like their resolver, by CPU
/// feature), else the compile target's.  Kernels that size their register
/// tiles per level pass it to their cloned entry point; only speed may
/// depend on it.  Resolved once; out of line, so a caller pays one call
/// rather than carrying the detection.
enum class IsaLevel { base, v3, v4 };

[[gnu::noinline]] inline IsaLevel isa_level() noexcept {
    static const IsaLevel level = [] {
#if REPRO_MULTIVERSION_CLONES
        __builtin_cpu_init();
        if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl") &&
            __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512dq") &&
            __builtin_cpu_supports("avx512cd"))
            return IsaLevel::v4;
        if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) return IsaLevel::v3;
        return IsaLevel::base;
#elif defined(__AVX512F__)
        return IsaLevel::v4;
#elif defined(__AVX2__)
        return IsaLevel::v3;
#else
        return IsaLevel::base;
#endif
    }();
    return level;
}

/// Lanes a generic-vector kernel that packs independent columns should
/// take: 8 where it runs with AVX-512, else 4 (8-wide vectors built for
/// AVX2 run several times slower than 4-wide ones).  Only speed may depend
/// on it.
inline std::size_t vector_lanes() noexcept { return isa_level() == IsaLevel::v4 ? 8 : 4; }

/// W doubles in one GNU vector, the register type of the hand-vectorised
/// kernels in banded.cpp, fft.cpp and element_ops.cpp: one xmm, ymm or zmm
/// for W = 2, 4 or 8.  Element-aligned and may_alias, so a kernel loads it
/// straight from any double array through reinterpret_cast; name it inside
/// the kernel (`using V = ...`), because GCC drops both attributes from a
/// typedef passed as a template argument.  A W wider than the clone's
/// registers is split into halves that GCC keeps in memory across a loop,
/// so each kernel takes its clone's width.  blas.cpp keeps its own
/// naturally aligned vectors (DESIGN.md section 5.2).
template <std::size_t W>
struct Lanes {
    typedef double type
        __attribute__((vector_size(W * sizeof(double)), aligned(alignof(double)), may_alias));
};

/// Lane q holds q: the lane indices as doubles (SSE2 has no 64-bit integer
/// compare), for masks by lane position; W = 2, 4 or 8.
template <std::size_t W>
extern const typename Lanes<W>::type lane_index;
template <>
inline constexpr Lanes<2>::type lane_index<2>{0, 1};
template <>
inline constexpr Lanes<4>::type lane_index<4>{0, 1, 2, 3};
template <>
inline constexpr Lanes<8>::type lane_index<8>{0, 1, 2, 3, 4, 5, 6, 7};

static_assert(sizeof(Lanes<2>::type) == 2 * sizeof(double) &&
              sizeof(Lanes<4>::type) == 4 * sizeof(double) &&
              sizeof(Lanes<8>::type) == 8 * sizeof(double));
static_assert(alignof(Lanes<2>::type) == alignof(double) &&
              alignof(Lanes<4>::type) == alignof(double) &&
              alignof(Lanes<8>::type) == alignof(double),
              "the kernels load Lanes from double* at any double boundary");

} // namespace blaslite
