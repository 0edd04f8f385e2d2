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
/// depend on it.
enum class IsaLevel { base, v3, v4 };

inline IsaLevel isa_level() noexcept {
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
}

/// Lanes a generic-vector kernel that packs independent columns should
/// take: 8 where it runs with AVX-512, else 4 (8-wide vectors built for
/// AVX2 run several times slower than 4-wide ones).  Only speed may depend
/// on it.
inline std::size_t vector_lanes() noexcept { return isa_level() == IsaLevel::v4 ? 8 : 4; }

} // namespace blaslite
