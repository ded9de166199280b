#ifndef DELREC_NN_VMATH_H_
#define DELREC_NN_VMATH_H_

#include <cstdint>

namespace delrec::nn {

/// Vectorized elementwise math with one result per input on every tier
/// (DESIGN.md §10). The kernels dispatch on the same fp32 tier as the GEMMs
/// (GemmKernelIsa(), pinned by ScopedGemmIsa in tests); the scalar, AVX2 and
/// AVX-512 tiers run the same sequence of separately rounded IEEE mul/add
/// steps, so the tier never changes a bit.
///
/// exp is the repo's own: Cody–Waite range reduction x = n·ln2 + r, a
/// degree-5 polynomial on |r| ≤ ln2/2, and exponent-bit scaling by 2ⁿ.
/// Within 1 ulp of the correctly rounded expf on [-87.3, 88.7].
/// Special values: exp(NaN) = NaN, exp(x) = 0 for x < ln(FLT_MIN) ≈ -87.34
/// (including -inf and the -1e9 attention mask), exp(x) = +inf above
/// ln(FLT_MAX), exp(0) = 1.

/// out[i] = exp(x[i]) for i < n. `out` may alias `x`.
void Exp(const float* x, float* out, int64_t n);

/// Row-wise softmax of a (rows, cols) row-major block: each output row is
/// exp(x - rowmax) times the rounded reciprocal of its sum. The sum runs in
/// one canonical order on every tier — 16 lane partials (lane l takes the
/// columns ≡ l mod 16, ascending), folded pairwise 16→8→4→2→1 — so results
/// are bit-identical across tiers. A row holding a NaN (or +inf) comes out
/// all NaN. `out` may alias `in`; the kernel allocates nothing.
void SoftmaxRows(const float* in, float* out, int64_t rows, int64_t cols);

/// The tanh-form GELU's argument, shared by the exact GELU (nn::GeluRows,
/// nn::Gelu's backward) and GeluPade: GELU(v) = 0.5·v·(1 + tanh(t)) with
/// t = kGeluSqrt2OverPi·(v + kGeluCoeff·v³).
inline constexpr float kGeluSqrt2OverPi = 0.7978845608f;
inline constexpr float kGeluCoeff = 0.044715f;

/// out[i] = GELU(x[i]) for i < n through the Padé(7,6) tanh approximant —
/// the int8 serving path's GELU (llm::TinyLm): the tanh-form argument
/// clamped to ±4.97, beyond which the approximant and tanh both read ±1 at
/// fp32; max |error| ~1.9e-4 against the exact form. Unlike Exp, this
/// kernel fuses: v·v·v·c + v and the two Horner chains use one-rounding
/// fma, the scalar tier through std::fma at exactly the AVX2 tier's fused
/// steps, so the tiers still agree bit for bit. NaN propagates; ±inf give
/// the finite-clamp arithmetic's results on every tier. `out` may alias `x`.
void GeluPade(const float* x, float* out, int64_t n);

}  // namespace delrec::nn

#endif  // DELREC_NN_VMATH_H_
