// Element-wise SIMD primitives behind runtime ISA dispatch.
//
// Every routine here is element-wise: output slot i depends only on input
// slot i, through exactly the scalar code's operation sequence (multiply then
// add/subtract as separate roundings — never a fused multiply-add, which
// would change the result by one rounding).  Vectorising such loops permutes
// *which lanes compute in the same instruction*, not the per-element
// arithmetic, so these kernels are bitwise identical to their scalar
// counterparts on any ISA.  That property is what lets the linalg kernels
// promise bit-equality with the seed's scalar loops (DESIGN.md §14).
//
// Dispatch: on x86-64 the implementation compiles AVX2 and AVX-512F variants
// via GCC/clang target attributes and selects once at first use with
// __builtin_cpu_supports; elsewhere (or on old CPUs) a portable unrolled C++
// fallback runs.  The mg_linalg target builds with -ffp-contract=off so the
// fallback cannot be contracted to FMA under -march=native builds either.
#pragma once

#include <cstddef>

namespace mg::linalg::simd {

/// Name of the ISA variant selected at runtime ("portable", "avx2",
/// "avx512").  For logs and bench labels.
const char* isa_name();

/// y[j] -= l * x[j].  The banded-LU trailing update, one target row against
/// one pivot row.
void mulsub_row(double* __restrict y, const double* __restrict x, double l, std::size_t n);

/// Four target rows against one shared pivot row: y_r[j] -= l_r * x[j].
/// Amortises the x loads 4x; the rows must be pairwise disjoint.
void mulsub_rows4(double* __restrict y0, double* __restrict y1, double* __restrict y2,
                  double* __restrict y3, const double* __restrict x, double l0, double l1,
                  double l2, double l3, std::size_t n);

/// p[i] = r[i] + beta * (p[i] - omega * v[i]).  BiCGSTAB direction update.
void triad_p_update(double* __restrict p, const double* __restrict r, const double* __restrict v,
                    double beta, double omega, std::size_t n);

/// x[i] += alpha * a[i] + omega * b[i].  BiCGSTAB solution update.
void triad_x_update(double* __restrict x, const double* __restrict a, const double* __restrict b,
                    double alpha, double omega, std::size_t n);

/// y[i] += alpha * x[i].
void axpy(double* __restrict y, const double* __restrict x, double alpha, std::size_t n);

/// z[i] = r[i] * d[i].  Jacobi preconditioner apply.
void hadamard(double* __restrict z, const double* __restrict r, const double* __restrict d,
              std::size_t n);

}  // namespace mg::linalg::simd
