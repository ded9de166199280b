#include "nn/vmath.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "nn/gemm.h"

// This translation unit is compiled with -ffp-contract=off (set in
// src/nn/CMakeLists.txt), like gemm.cc: the tiers agree bit for bit only
// because every multiply and add rounds separately. The AVX2/AVX-512 paths
// use explicit mul/add intrinsics, which are never contracted either.
// -fno-trapping-math (no FP exception is ever unmasked here) lets the
// compiler vectorize the scalar tier's selects; it changes no result.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DELREC_VMATH_X86 1
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ < 13
// GCC 12's AVX-512 intrinsics seed their pass-through operand with
// _mm512_undefined_*(), which -Wmaybe-uninitialized flags once inlined
// (GCC bug 105593, fixed in 13). The warning fires at the header's lines,
// so it is silenced before the include.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#else
#define DELREC_VMATH_X86 0
#endif

namespace delrec::nn {
namespace {

// exp(x) = 2ⁿ·exp(r), n = floor(x·log2e + 1/2), r = x − n·ln2 with ln2 split
// Cody–Waite style: n·kLn2Hi is exact (kLn2Hi has 9 significant bits and
// |n| ≤ 128), so r carries only kLn2Lo's rounding. exp(r) on |r| ≤ ln2/2 is
// 1 + r + r²·P(r), P of degree 5 (Cephes expf's minimax coefficients).
constexpr float kExpLo = -87.33654f;  // ln(FLT_MIN): below it, 0.
constexpr float kExpHi = 88.72284f;   // ln(FLT_MAX): above it, +inf.
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kP0 = 1.9875691500e-4f;
constexpr float kP1 = 1.3981999507e-3f;
constexpr float kP2 = 8.3334519073e-3f;
constexpr float kP3 = 4.1665795894e-2f;
constexpr float kP4 = 1.6666665459e-1f;
constexpr float kP5 = 5.0000001201e-1f;
constexpr float kInf = std::numeric_limits<float>::infinity();

// Softmax denominators sum in kSumLanes lane partials (lane l takes the
// columns ≡ l mod kSumLanes in ascending order), folded pairwise.
constexpr int kSumLanes = 16;

// -- Scalar tier --------------------------------------------------------------
// The reference every vector tier reproduces. 2ⁿ is applied as 2^(n>>1) then
// 2^(n−(n>>1)): both factors are normal for n ∈ [-126, 128], the first
// product is exact, so the pair rounds once — exactly like one multiply by
// 2ⁿ would, but without needing 2¹²⁸ or a subnormal 2ⁿ.

inline float Pow2(int32_t e) {
  return std::bit_cast<float>(static_cast<uint32_t>(e + 127) << 23);
}

inline float ExpScalar(float x) {
  // NaN and out-of-range inputs run the arithmetic on 0 and are replaced at
  // the end: no NaN or huge value is ever converted to an integer (UB), and
  // the loops over this stay branch-free, so the compiler can vectorize them.
  const bool nan = std::isnan(x);
  const bool low = x < kExpLo;
  const bool high = x > kExpHi;
  const float xs = nan || low || high ? 0.0f : x;
  // floor through an integer (t ∈ [-125.5, 128.5]): without SSE4.1,
  // std::floor is a libm call.
  const float t = xs * kLog2e + 0.5f;
  int32_t n = static_cast<int32_t>(t);
  n -= static_cast<float>(n) > t ? 1 : 0;
  const float fx = static_cast<float>(n);
  float r = xs - fx * kLn2Hi;
  r = r - fx * kLn2Lo;
  const float z = r * r;
  float p = kP0;
  p = p * r + kP1;
  p = p * r + kP2;
  p = p * r + kP3;
  p = p * r + kP4;
  p = p * r + kP5;
  p = p * z + r + 1.0f;
  const int32_t half = n >> 1;
  const float e = p * Pow2(half) * Pow2(n - half);
  return nan ? x : low ? 0.0f : high ? kInf : e;
}

void ExpScalarTier(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = ExpScalar(x[i]);
}

// Padé(7,6) GELU constants: tanh(t) ≈ t·(C0 + t²(C1 + t²(C2 + t²))) /
// (C0 + t²(D1 + t²(D2 + t²·D3))) on |t| ≤ kPadeClamp.
constexpr float kPadeClamp = 4.97f;
constexpr float kPadeC0 = 135135.0f;
constexpr float kPadeC1 = 17325.0f;
constexpr float kPadeC2 = 378.0f;
constexpr float kPadeD1 = 62370.0f;
constexpr float kPadeD2 = 3150.0f;
constexpr float kPadeD3 = 28.0f;

// GeluPadeAvx2Tier step for step: std::fma where that kernel fuses,
// separately rounded mul/add elsewhere, and the clamps written as
// minps/maxps evaluate (the first operand only when the compare holds), so
// a NaN passes through both.
inline float GeluPadeScalar(float v) {
  const float cube = (v * v) * v;
  float t = kGeluSqrt2OverPi * std::fma(cube, kGeluCoeff, v);
  t = kPadeClamp < t ? kPadeClamp : t;
  t = -kPadeClamp > t ? -kPadeClamp : t;
  const float t2 = t * t;
  const float p =
      t * std::fma(t2, std::fma(t2, kPadeC2 + t2, kPadeC1), kPadeC0);
  const float q = std::fma(
      t2, std::fma(t2, std::fma(t2, kPadeD3, kPadeD2), kPadeD1), kPadeC0);
  return (0.5f * v) * (1.0f + p / q);
}

void GeluPadeScalarTier(const float* x, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = GeluPadeScalar(x[i]);
}

void SoftmaxScalarTier(const float* in, float* out, int64_t rows,
                       int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x = in + i * cols;
    float* y = out + i * cols;
    float mx = x[0];
    for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, x[j]);
    float lanes[kSumLanes] = {};
    for (int64_t j = 0; j < cols; j += kSumLanes) {
      const int width =
          static_cast<int>(std::min<int64_t>(kSumLanes, cols - j));
      for (int l = 0; l < width; ++l) {
        y[j + l] = ExpScalar(x[j + l] - mx);
        lanes[l] += y[j + l];
      }
    }
    for (int width = kSumLanes / 2; width > 0; width /= 2) {
      for (int l = 0; l < width; ++l) lanes[l] += lanes[l + width];
    }
    const float inv = 1.0f / lanes[0];
    for (int64_t j = 0; j < cols; ++j) y[j] *= inv;
  }
}

#if DELREC_VMATH_X86

// Folds 8 lane partials 8→4→2→1 in the scalar tier's order.
__attribute__((target("avx2"))) inline float Fold8(__m256 s8) {
  const __m128 s4 =
      _mm_add_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  return _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
}

// Max of 8 lanes. Any order gives the same softmax bits: max is exact, the
// sign of a zero max cannot change x − max's exp, and a NaN anywhere in
// the row makes the whole row NaN either way.
__attribute__((target("avx2"))) inline float Max8(__m256 v) {
  __m128 m =
      _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  return _mm_cvtss_f32(_mm_max_ss(m, _mm_shuffle_ps(m, m, 1)));
}

// ---- AVX2 tier: 8 lanes per register; lane partials 0–7 and 8–15 ----

__attribute__((target("avx2"))) inline __m256 ExpAvx2(__m256 x) {
  const __m256 fx = _mm256_floor_ps(_mm256_add_ps(
      _mm256_mul_ps(x, _mm256_set1_ps(kLog2e)), _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_sub_ps(x, _mm256_mul_ps(fx, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(fx, _mm256_set1_ps(kLn2Lo)));
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 p = _mm256_set1_ps(kP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kP5));
  p = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), r),
                    _mm256_set1_ps(1.0f));
  // Out-of-range lanes (NaN, ±inf, huge) convert to INT_MIN here; their
  // result is replaced below, or is NaN whatever the scale.
  const __m256i n = _mm256_cvttps_epi32(fx);
  const __m256i half = _mm256_srai_epi32(n, 1);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 s1 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(half, bias), 23));
  const __m256 s2 = _mm256_castsi256_ps(_mm256_slli_epi32(
      _mm256_add_epi32(_mm256_sub_epi32(n, half), bias), 23));
  __m256 e = _mm256_mul_ps(_mm256_mul_ps(p, s1), s2);
  e = _mm256_andnot_ps(
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpLo), _CMP_LT_OQ), e);
  return _mm256_blendv_ps(e, _mm256_set1_ps(kInf),
                          _mm256_cmp_ps(x, _mm256_set1_ps(kExpHi),
                                        _CMP_GT_OQ));
}

__attribute__((target("avx2,fma"))) void GeluPadeAvx2Tier(const float* x,
                                                          float* out,
                                                          int64_t n) {
  const __m256 ks = _mm256_set1_ps(kGeluSqrt2OverPi);
  const __m256 kc = _mm256_set1_ps(kGeluCoeff);
  const __m256 clamp = _mm256_set1_ps(kPadeClamp);
  const __m256 neg_clamp = _mm256_set1_ps(-kPadeClamp);
  const __m256 c0 = _mm256_set1_ps(kPadeC0);
  const __m256 c1 = _mm256_set1_ps(kPadeC1);
  const __m256 c2 = _mm256_set1_ps(kPadeC2);
  const __m256 d1 = _mm256_set1_ps(kPadeD1);
  const __m256 d2 = _mm256_set1_ps(kPadeD2);
  const __m256 d3 = _mm256_set1_ps(kPadeD3);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    __m256 t = _mm256_mul_ps(
        ks, _mm256_fmadd_ps(_mm256_mul_ps(_mm256_mul_ps(v, v), v), kc, v));
    t = _mm256_max_ps(neg_clamp, _mm256_min_ps(clamp, t));
    const __m256 t2 = _mm256_mul_ps(t, t);
    const __m256 p = _mm256_mul_ps(
        t, _mm256_fmadd_ps(
               t2, _mm256_fmadd_ps(t2, _mm256_add_ps(c2, t2), c1), c0));
    const __m256 q = _mm256_fmadd_ps(
        t2, _mm256_fmadd_ps(t2, _mm256_fmadd_ps(t2, d3, d2), d1), c0);
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_mul_ps(half, v),
                               _mm256_add_ps(one, _mm256_div_ps(p, q))));
  }
  for (; i < n; ++i) out[i] = GeluPadeScalar(x[i]);
}

// Lanes < count set, for vmaskmovps.
__attribute__((target("avx2"))) inline __m256i Avx2Mask(int64_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

__attribute__((target("avx2"))) void ExpAvx2Tier(const float* x, float* out,
                                                 int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, ExpAvx2(_mm256_loadu_ps(x + i)));
  }
  if (i < n) {
    const __m256i mask = Avx2Mask(n - i);
    _mm256_maskstore_ps(out + i, mask,
                        ExpAvx2(_mm256_maskload_ps(x + i, mask)));
  }
}

// y[j..j+8) = exp(x[j..) − mx) over `count` ≤ 8 lanes; returns the stored
// values with unused lanes zeroed, ready to add into a lane partial.
__attribute__((target("avx2"))) inline __m256 ExpBlockAvx2(const float* x,
                                                           float* y,
                                                           __m256 mx,
                                                           int64_t count) {
  if (count == 8) {
    const __m256 e = ExpAvx2(_mm256_sub_ps(_mm256_loadu_ps(x), mx));
    _mm256_storeu_ps(y, e);
    return e;
  }
  const __m256i mask = Avx2Mask(count);
  const __m256 e = ExpAvx2(_mm256_sub_ps(_mm256_maskload_ps(x, mask), mx));
  _mm256_maskstore_ps(y, mask, e);
  return _mm256_and_ps(e, _mm256_castsi256_ps(mask));
}

__attribute__((target("avx2"))) void SoftmaxAvx2Tier(const float* in,
                                                     float* out, int64_t rows,
                                                     int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* x = in + i * cols;
    float* y = out + i * cols;
    __m256 vmax = _mm256_set1_ps(-kInf);
    int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + j));
    }
    float mx = Max8(vmax);
    for (; j < cols; ++j) mx = std::max(mx, x[j]);
    const __m256 vmx = _mm256_set1_ps(mx);
    __m256 lo = _mm256_setzero_ps();  // Lane partials 0–7.
    __m256 hi = _mm256_setzero_ps();  // Lane partials 8–15.
    for (j = 0; j + 16 <= cols; j += 16) {
      lo = _mm256_add_ps(lo, ExpBlockAvx2(x + j, y + j, vmx, 8));
      hi = _mm256_add_ps(hi, ExpBlockAvx2(x + j + 8, y + j + 8, vmx, 8));
    }
    if (j < cols) {
      const int64_t count = std::min<int64_t>(cols - j, 8);
      lo = _mm256_add_ps(lo, ExpBlockAvx2(x + j, y + j, vmx, count));
      j += count;
    }
    if (j < cols) {
      hi = _mm256_add_ps(hi, ExpBlockAvx2(x + j, y + j, vmx, cols - j));
    }
    const __m256 inv = _mm256_set1_ps(1.0f / Fold8(_mm256_add_ps(lo, hi)));
    for (j = 0; j + 8 <= cols; j += 8) {
      _mm256_storeu_ps(y + j, _mm256_mul_ps(_mm256_loadu_ps(y + j), inv));
    }
    if (j < cols) {
      const __m256i mask = Avx2Mask(cols - j);
      _mm256_maskstore_ps(
          y + j, mask, _mm256_mul_ps(_mm256_maskload_ps(y + j, mask), inv));
    }
  }
}

// ---- AVX-512 tier: one 16-lane register holds all lane partials ----

__attribute__((target("avx512f"))) inline __m512 ExpAvx512(__m512 x) {
  const __m512 fx = _mm512_roundscale_ps(
      _mm512_add_ps(_mm512_mul_ps(x, _mm512_set1_ps(kLog2e)),
                    _mm512_set1_ps(0.5f)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  __m512 r = _mm512_sub_ps(x, _mm512_mul_ps(fx, _mm512_set1_ps(kLn2Hi)));
  r = _mm512_sub_ps(r, _mm512_mul_ps(fx, _mm512_set1_ps(kLn2Lo)));
  const __m512 z = _mm512_mul_ps(r, r);
  __m512 p = _mm512_set1_ps(kP0);
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kP1));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kP2));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kP3));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kP4));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kP5));
  p = _mm512_add_ps(_mm512_add_ps(_mm512_mul_ps(p, z), r),
                    _mm512_set1_ps(1.0f));
  // As in ExpAvx2: out-of-range lanes are replaced below or stay NaN.
  const __m512i n = _mm512_cvttps_epi32(fx);
  const __m512i half = _mm512_srai_epi32(n, 1);
  const __m512i bias = _mm512_set1_epi32(127);
  const __m512 s1 = _mm512_castsi512_ps(
      _mm512_slli_epi32(_mm512_add_epi32(half, bias), 23));
  const __m512 s2 = _mm512_castsi512_ps(_mm512_slli_epi32(
      _mm512_add_epi32(_mm512_sub_epi32(n, half), bias), 23));
  __m512 e = _mm512_mul_ps(_mm512_mul_ps(p, s1), s2);
  e = _mm512_mask_mov_ps(
      e, _mm512_cmp_ps_mask(x, _mm512_set1_ps(kExpLo), _CMP_LT_OQ),
      _mm512_setzero_ps());
  return _mm512_mask_mov_ps(
      e, _mm512_cmp_ps_mask(x, _mm512_set1_ps(kExpHi), _CMP_GT_OQ),
      _mm512_set1_ps(kInf));
}

__attribute__((target("avx512f"))) inline __mmask16 Avx512Mask(
    int64_t count) {
  return static_cast<__mmask16>((1u << count) - 1u);
}

__attribute__((target("avx512f"))) void ExpAvx512Tier(const float* x,
                                                      float* out, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, ExpAvx512(_mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 mask = Avx512Mask(n - i);
    _mm512_mask_storeu_ps(out + i, mask,
                          ExpAvx512(_mm512_maskz_loadu_ps(mask, x + i)));
  }
}

__attribute__((target("avx512f"))) void SoftmaxAvx512Tier(const float* in,
                                                         float* out,
                                                         int64_t rows,
                                                         int64_t cols) {
  const int64_t full = cols - cols % 16;
  const __mmask16 tail = Avx512Mask(cols - full);
  for (int64_t i = 0; i < rows; ++i) {
    const float* x = in + i * cols;
    float* y = out + i * cols;
    __m512 vmax = _mm512_set1_ps(-kInf);
    for (int64_t j = 0; j < full; j += 16) {
      vmax = _mm512_max_ps(vmax, _mm512_loadu_ps(x + j));
    }
    if (tail != 0) {
      vmax = _mm512_mask_max_ps(vmax, tail, vmax,
                                _mm512_maskz_loadu_ps(tail, x + full));
    }
    const __m512 vmx = _mm512_set1_ps(_mm512_reduce_max_ps(vmax));
    __m512 lanes = _mm512_setzero_ps();
    for (int64_t j = 0; j < full; j += 16) {
      const __m512 e = ExpAvx512(_mm512_sub_ps(_mm512_loadu_ps(x + j), vmx));
      _mm512_storeu_ps(y + j, e);
      lanes = _mm512_add_ps(lanes, e);
    }
    if (tail != 0) {
      const __m512 e = ExpAvx512(
          _mm512_sub_ps(_mm512_maskz_loadu_ps(tail, x + full), vmx));
      _mm512_mask_storeu_ps(y + full, tail, e);
      lanes = _mm512_mask_add_ps(lanes, tail, lanes, e);
    }
    // Lanes l + 8 fold onto l, then the AVX2 tier's 8→1 order.
    const __m256 s8 = _mm256_add_ps(
        _mm512_castps512_ps256(lanes),
        _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(lanes), 1)));
    const __m512 inv = _mm512_set1_ps(1.0f / Fold8(s8));
    for (int64_t j = 0; j < full; j += 16) {
      _mm512_storeu_ps(y + j, _mm512_mul_ps(_mm512_loadu_ps(y + j), inv));
    }
    if (tail != 0) {
      _mm512_mask_storeu_ps(
          y + full, tail,
          _mm512_mul_ps(_mm512_maskz_loadu_ps(tail, y + full), inv));
    }
  }
}

#endif  // DELREC_VMATH_X86

}  // namespace

void Exp(const float* x, float* out, int64_t n) {
  switch (ActiveKernelTier()) {
#if DELREC_VMATH_X86
    case KernelTier::kAvx512:
      return ExpAvx512Tier(x, out, n);
    case KernelTier::kAvx2:
      return ExpAvx2Tier(x, out, n);
#endif
    default:
      return ExpScalarTier(x, out, n);
  }
}

void GeluPade(const float* x, float* out, int64_t n) {
#if DELREC_VMATH_X86
  // Both vector tiers run the 8-lane FMA kernel; a host without FMA runs
  // the scalar tier, whose bits are the same.
  static const bool fma = __builtin_cpu_supports("fma");
  if (fma && ActiveKernelTier() != KernelTier::kScalar) {
    return GeluPadeAvx2Tier(x, out, n);
  }
#endif
  GeluPadeScalarTier(x, out, n);
}

void SoftmaxRows(const float* in, float* out, int64_t rows, int64_t cols) {
  if (rows <= 0 || cols <= 0) return;
  switch (ActiveKernelTier()) {
#if DELREC_VMATH_X86
    case KernelTier::kAvx512:
      return SoftmaxAvx512Tier(in, out, rows, cols);
    case KernelTier::kAvx2:
      return SoftmaxAvx2Tier(in, out, rows, cols);
#endif
    default:
      return SoftmaxScalarTier(in, out, rows, cols);
  }
}

}  // namespace delrec::nn
