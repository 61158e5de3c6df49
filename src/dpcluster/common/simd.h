// Function-multiversioning helper for the blocked numeric kernels.
//
// DPC_TARGET_CLONES_AVX2 marks a function for runtime dispatch between a
// baseline and an AVX2 build on toolchains that support it (GCC/Clang ifunc
// on x86-64 glibc); everywhere else it expands to nothing and the plain
// function is used. The AVX2 clone deliberately does NOT enable FMA: without
// contraction every lane performs the same mul-then-add roundings as the
// scalar build, so kernel outputs are bit-identical across instruction sets.
//
// ThreadSanitizer builds also get the plain functions: GCC 12's TSan runtime
// segfaults before main in a program holding an ifunc-dispatched clone.
// Since the baseline bodies produce the same bits, outputs do not change.

#ifndef DPCLUSTER_COMMON_SIMD_H_
#define DPCLUSTER_COMMON_SIMD_H_

#if defined(__SANITIZE_THREAD__)
#define DPC_THREAD_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPC_THREAD_SANITIZER 1
#endif
#endif

#if defined(__x86_64__) && defined(__gnu_linux__) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(DPC_THREAD_SANITIZER)
#define DPC_TARGET_CLONES_AVX2 __attribute__((target_clones("default", "avx2")))
// 1 where the toolchain dispatches __attribute__((target("default"))) /
// __attribute__((target("avx2"))) overloads of one function at runtime, for
// kernels whose AVX2 body differs from the baseline one (and must still
// produce the same bits).
#define DPC_AVX2_MULTIVERSIONING 1
#else
#define DPC_TARGET_CLONES_AVX2
#define DPC_AVX2_MULTIVERSIONING 0
#endif

#endif  // DPCLUSTER_COMMON_SIMD_H_
