#include "nn/gemm.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <limits>
#include <vector>

#include "util/buffer_pool.h"
#include "util/check.h"
#include "util/threadpool.h"

// This translation unit is compiled with -ffp-contract=off (set in
// src/nn/CMakeLists.txt): the blocked kernels stay bit-identical to the
// scalar reference kernels only because every multiply and add rounds
// separately — a contracted FMA would round once and break the oracle,
// including under -DDELREC_NATIVE=ON. The AVX2/AVX-512 paths use explicit
// mul/add intrinsics, which map to fixed instructions and are never
// contracted either.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DELREC_GEMM_X86 1
#include <immintrin.h>
#else
#define DELREC_GEMM_X86 0
#endif

namespace delrec::nn {
namespace {

constexpr int MR = kGemmRowTile;
constexpr int NR = kGemmColTile;
static_assert(NR == 16, "microkernels assume one 16-lane (or two 8-lane) "
                        "vector of C columns per row");

// Row-partitioned dispatch over C across util::ParallelConfig threads.
// Determinism contract (DESIGN.md §9): every C row is written by exactly one
// chunk of a static partition, and each element's accumulation order over k
// is fixed (ascending p) regardless of the chunking — so all kernels are
// bit-identical to their serial (num_threads = 1) reference for any thread
// count, and need no synchronisation or float atomics. GEMMs whose m·n·k
// falls below ParallelMinWork() skip dispatch and run serially, which by the
// same argument cannot change results.
void GemmRows(int64_t m, int64_t n, int64_t k,
              const std::function<void(int64_t, int64_t)>& rows) {
  if (util::ParallelThreads() > 1 && m * n * k >= util::ParallelMinWork()) {
    util::ParallelFor(
        m, [&rows](int64_t begin, int64_t end, int) { rows(begin, end); });
  } else {
    rows(0, m);
  }
}

// -- Microkernel tiles --------------------------------------------------------
// A tile computes an mr×nr block of C (mr ≤ MR rows, nr ≤ NR columns) over
// the whole k loop. Per output element every variant accumulates ascending p
// into a single chain from the reference's start value, so lane width never
// changes results — vector lanes are distinct C columns. Edge tiles are the
// same kernels with lanes ≥ nr masked off every load, gather and store (never
// read, never written) and the row count a template argument. The tier is
// picked once per GEMM call; the row-tile loop is ISA-agnostic.

// What a tile computes, each with its reference's semantics:
//  kDense/kSkip (NN/TN): the chain starts from C (accumulate) or 0 and is
//    stored back. kSkip replicates the reference's per-(row, p) `a == 0.0f`
//    skip (observable: it avoids 0·inf → NaN and signed-zero flips); kDense
//    drops the branch and runs only after a prescan proves the row tile's A
//    zero-free, where skipping and not skipping are the same program.
//  kNt: the chain starts at 0 and combines as C + dot at the end — the
//    reference's dot-then-combine association, distinct from NN/TN.
//  kNtGather: kNt reading B (N,K) in place, lane jr gathered from row jr.
enum class Mode { kDense, kSkip, kNt, kNtGather };

// One tile call's operands. The mode and row count are template arguments
// of the kernel the row-tile loop picks per row tile.
struct Tile {
  int nr;  // Valid columns (lanes), 1..NR.
  bool accumulate;
  const float* a;  // A(r, p) = a[r·a_i_stride + p·a_p_stride].
  int64_t a_i_stride;
  int64_t a_p_stride;
  // Step p of lane jr: bp[jr] with bp = b + p·b_p_stride (kNtGather:
  // bp[jr·k]).
  const float* b;
  int64_t b_p_stride;
  float* c;  // C(r, jr) = c[r·ldc + jr].
  int64_t ldc;
  int64_t k;
};

using TileFn = void (*)(const Tile& t);
// True iff any of the mr rows of A holds an element == 0.0f (matches ±0,
// never NaN — the exact predicate the skip tile applies per element).
using ZeroScanFn = bool (*)(const float* a, int64_t a_i_stride,
                            int64_t a_p_stride, int mr, int64_t k);

constexpr bool IsNt(Mode mode) {
  return mode == Mode::kNt || mode == Mode::kNtGather;
}

// ---- Portable scalar tier (and the only path off x86-64) ----

struct Scalar {
  template <int R, Mode kMode>
  static void Kernel(const Tile& t) {
    // A constant lane count lets the compiler vectorize full panels.
    if (t.nr == NR && kMode != Mode::kNtGather) {
      Rows<R, kMode, NR>(t);
    } else {
      Rows<R, kMode, 0>(t);
    }
  }

  // kWidth = 0 reads the lane count from t.nr.
  template <int R, Mode kMode, int kWidth>
  static void Rows(const Tile& t) {
    const int nr = kWidth != 0 ? kWidth : t.nr;
    const int64_t lane_stride = kMode == Mode::kNtGather ? t.k : 1;
    for (int r = 0; r < R; ++r) {
      const float* ar = t.a + r * t.a_i_stride;
      float* cr = t.c + r * t.ldc;
      float acc[NR];
      for (int jr = 0; jr < nr; ++jr) {
        acc[jr] = !IsNt(kMode) && t.accumulate ? cr[jr] : 0.0f;
      }
      for (int64_t p = 0; p < t.k; ++p) {
        const float av = ar[p * t.a_p_stride];
        if (kMode == Mode::kSkip && av == 0.0f) continue;
        const float* bp = t.b + p * t.b_p_stride;
        for (int jr = 0; jr < nr; ++jr) acc[jr] += av * bp[jr * lane_stride];
      }
      for (int jr = 0; jr < nr; ++jr) {
        cr[jr] = IsNt(kMode) && t.accumulate ? cr[jr] + acc[jr] : acc[jr];
      }
    }
  }
};

bool TileHasZeroScalar(const float* a, int64_t a_i_stride, int64_t a_p_stride,
                       int mr, int64_t k) {
  for (int r = 0; r < mr; ++r) {
    const float* ar = a + r * a_i_stride;
    for (int64_t p = 0; p < k; ++p) {
      if (ar[p * a_p_stride] == 0.0f) return true;
    }
  }
  return false;
}

#if DELREC_GEMM_X86

// ---- AVX-512 tier: one 16-lane register per row ----
// Edge panels mask lanes ≥ nr (k-masks); full panels keep plain loads and
// stores, whose loop has no spare port for a mask move.

template <bool kMasked>
__attribute__((target("avx512f"))) inline __m512 LoadAvx512(
    const float* src, __mmask16 lanes) {
  return kMasked ? _mm512_maskz_loadu_ps(lanes, src) : _mm512_loadu_ps(src);
}

template <bool kMasked>
__attribute__((target("avx512f"))) inline void StoreAvx512(float* dst,
                                                          __mmask16 lanes,
                                                          __m512 v) {
  if (kMasked) {
    _mm512_mask_storeu_ps(dst, lanes, v);
  } else {
    _mm512_storeu_ps(dst, v);
  }
}

struct Avx512 {
  template <int R, Mode kMode>
  static void Kernel(const Tile& t) {
    (t.nr == NR ? Body<R, false, kMode> : Body<R, true, kMode>)(t);
  }

  template <int R, bool kMasked, Mode kMode>
  __attribute__((target("avx512f"))) static void Body(const Tile& t) {
    // Locals, not t's fields, so the loop keeps them (and acc) in registers.
    const __mmask16 lanes = static_cast<__mmask16>((1u << t.nr) - 1);
    const float* const a = t.a;
    const int64_t a_i_stride = t.a_i_stride, a_p_stride = t.a_p_stride;
    const float* const b = t.b;
    const int64_t b_p_stride = t.b_p_stride, k = t.k;
    __m512 acc[R];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      acc[r] = !IsNt(kMode) && t.accumulate
                   ? LoadAvx512<kMasked>(t.c + r * t.ldc, lanes)
                   : _mm512_setzero_ps();
    }
    [[maybe_unused]] __m512i rows_of_b;  // kNtGather: lane jr reads bp[jr·k].
    if constexpr (kMode == Mode::kNtGather) {
      rows_of_b = _mm512_mullo_epi32(
          _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                            15),
          _mm512_set1_epi32(static_cast<int>(k)));
    }
    for (int64_t p = 0; p < k; ++p) {
      const float* bp = b + p * b_p_stride;
      __m512 bv;
      if constexpr (kMode == Mode::kNtGather) {
        bv = _mm512_mask_i32gather_ps(_mm512_setzero_ps(), lanes, rows_of_b,
                                      bp, 4);
      } else {
        bv = LoadAvx512<kMasked>(bp, lanes);
      }
      const float* ap = a + p * a_p_stride;
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const float s = ap[r * a_i_stride];
        if (kMode == Mode::kSkip && s == 0.0f) continue;
        acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(_mm512_set1_ps(s), bv));
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      float* cr = t.c + r * t.ldc;
      if (IsNt(kMode) && t.accumulate) {
        // C first, dot second — the reference's `c += dot` operand order.
        acc[r] = _mm512_add_ps(LoadAvx512<kMasked>(cr, lanes), acc[r]);
      }
      StoreAvx512<kMasked>(cr, lanes, acc[r]);
    }
  }
};

// ---- AVX2 tier: kHalves 8-lane registers per row (one when nr ≤ 8) ----
// Only a partial last register is masked (vmaskmovps), so full panels keep
// plain loads and stores.

template <bool kMasked>
__attribute__((target("avx2"))) inline __m256 LoadAvx2(const float* src,
                                                       __m256i valid) {
  return kMasked ? _mm256_maskload_ps(src, valid) : _mm256_loadu_ps(src);
}

template <bool kMasked>
__attribute__((target("avx2"))) inline void StoreAvx2(float* dst,
                                                      __m256i valid,
                                                      __m256 v) {
  if (kMasked) {
    _mm256_maskstore_ps(dst, valid, v);
  } else {
    _mm256_storeu_ps(dst, v);
  }
}

struct Avx2 {
  template <int R, Mode kMode>
  static void Kernel(const Tile& t) {
    if (t.nr > 8) {
      (t.nr == NR ? Body<R, 2, false, kMode> : Body<R, 2, true, kMode>)(t);
    } else {
      (t.nr == 8 ? Body<R, 1, false, kMode> : Body<R, 1, true, kMode>)(t);
    }
  }

  // kMasked: the last of the kHalves registers holds fewer than 8 lanes.
  template <int R, int kHalves, bool kMasked, Mode kMode>
  __attribute__((target("avx2"))) static void Body(const Tile& t) {
    constexpr int kLast = kHalves - 1;
    // Locals, not t's fields, so the loop keeps them (and acc) in registers.
    const float* const a = t.a;
    const int64_t a_i_stride = t.a_i_stride, a_p_stride = t.a_p_stride;
    const float* const b = t.b;
    const int64_t b_p_stride = t.b_p_stride, k = t.k;
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    // Lane jr of the last register is valid iff 8·kLast + jr < nr.
    const __m256i valid =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(t.nr - 8 * kLast), lane);
    __m256 acc[R][kHalves];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const float* cr = t.c + r * t.ldc;
      if (!IsNt(kMode) && t.accumulate) {
        if (kHalves == 2) acc[r][0] = _mm256_loadu_ps(cr);
        acc[r][kLast] = LoadAvx2<kMasked>(cr + 8 * kLast, valid);
      } else {
#pragma GCC unroll 2
        for (int h = 0; h < kHalves; ++h) acc[r][h] = _mm256_setzero_ps();
      }
    }
    [[maybe_unused]] __m256i rows_of_b[kHalves];  // kNtGather: bp[jr·k].
    if constexpr (kMode == Mode::kNtGather) {
      const __m256i depth = _mm256_set1_epi32(static_cast<int>(k));
      rows_of_b[0] = _mm256_mullo_epi32(lane, depth);
      rows_of_b[kLast] = _mm256_mullo_epi32(
          _mm256_add_epi32(lane, _mm256_set1_epi32(8 * kLast)), depth);
    }
    for (int64_t p = 0; p < k; ++p) {
      const float* bp = b + p * b_p_stride;
      __m256 bv[kHalves];
      if constexpr (kMode == Mode::kNtGather) {
        const __m256 all = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
        if (kHalves == 2) {
          bv[0] = _mm256_mask_i32gather_ps(_mm256_setzero_ps(), bp,
                                           rows_of_b[0], all, 4);
        }
        bv[kLast] = _mm256_mask_i32gather_ps(_mm256_setzero_ps(), bp,
                                             rows_of_b[kLast],
                                             _mm256_castsi256_ps(valid), 4);
      } else {
        if (kHalves == 2) bv[0] = _mm256_loadu_ps(bp);
        bv[kLast] = LoadAvx2<kMasked>(bp + 8 * kLast, valid);
      }
      const float* ap = a + p * a_p_stride;
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const float s = ap[r * a_i_stride];
        if (kMode == Mode::kSkip && s == 0.0f) continue;
        const __m256 av = _mm256_set1_ps(s);
#pragma GCC unroll 2
        for (int h = 0; h < kHalves; ++h) {
          acc[r][h] = _mm256_add_ps(acc[r][h], _mm256_mul_ps(av, bv[h]));
        }
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      float* cr = t.c + r * t.ldc;
      if (IsNt(kMode) && t.accumulate) {
        // C first, dot second — the reference's `c += dot` operand order.
        if (kHalves == 2) {
          acc[r][0] = _mm256_add_ps(_mm256_loadu_ps(cr), acc[r][0]);
        }
        acc[r][kLast] = _mm256_add_ps(
            LoadAvx2<kMasked>(cr + 8 * kLast, valid), acc[r][kLast]);
      }
      if (kHalves == 2) _mm256_storeu_ps(cr, acc[r][0]);
      StoreAvx2<kMasked>(cr + 8 * kLast, valid, acc[r][kLast]);
    }
  }
};

// Vector zero scans: only the contiguous-row layout (NN, a_p_stride == 1)
// vectorizes; the strided TN layout falls back to the scalar scan. A prescan
// is a pure predicate — speeding it up cannot change any result.
// (_CMP_EQ_OQ is the ordered quiet ==, identical to the scalar compare.)

__attribute__((target("avx2"))) bool TileHasZeroAvx2(
    const float* a, int64_t a_i_stride, int64_t a_p_stride, int mr,
    int64_t k) {
  if (a_p_stride != 1) {
    return TileHasZeroScalar(a, a_i_stride, a_p_stride, mr, k);
  }
  const __m256 zero = _mm256_setzero_ps();
  for (int r = 0; r < mr; ++r) {
    const float* ar = a + r * a_i_stride;
    int64_t p = 0;
    for (; p + 8 <= k; p += 8) {
      const __m256 eq =
          _mm256_cmp_ps(_mm256_loadu_ps(ar + p), zero, _CMP_EQ_OQ);
      if (_mm256_movemask_ps(eq) != 0) return true;
    }
    for (; p < k; ++p) {
      if (ar[p] == 0.0f) return true;
    }
  }
  return false;
}

__attribute__((target("avx512f"))) bool TileHasZeroAvx512(
    const float* a, int64_t a_i_stride, int64_t a_p_stride, int mr,
    int64_t k) {
  if (a_p_stride != 1) {
    return TileHasZeroScalar(a, a_i_stride, a_p_stride, mr, k);
  }
  const __m512 zero = _mm512_setzero_ps();
  for (int r = 0; r < mr; ++r) {
    const float* ar = a + r * a_i_stride;
    int64_t p = 0;
    for (; p + 16 <= k; p += 16) {
      if (_mm512_cmp_ps_mask(_mm512_loadu_ps(ar + p), zero, _CMP_EQ_OQ)) {
        return true;
      }
    }
    if (p < k) {
      // Masked tail load: lanes past k are never touched (no OOB read) and
      // zeroed lanes are excluded from the compare by the same mask.
      const __mmask16 tail = static_cast<__mmask16>((1u << (k - p)) - 1);
      if (_mm512_mask_cmp_ps_mask(tail, _mm512_maskz_loadu_ps(tail, ar + p),
                                  zero, _CMP_EQ_OQ)) {
        return true;
      }
    }
  }
  return false;
}

#endif  // DELREC_GEMM_X86

// Every (mode, row count) instantiation of a tier's Kernel, indexed
// [mode][mr - 1]: the row-tile loop picks one per row tile, and each runs
// with its accumulators in registers.
constexpr int kModeCount = static_cast<int>(Mode::kNtGather) + 1;
using KernelTable = std::array<std::array<TileFn, MR>, kModeCount>;

template <class Tier, Mode kMode>
constexpr std::array<TileFn, MR> RowKernels() {
  static_assert(MR == 4, "one kernel per row count 1..MR");
  return {Tier::template Kernel<1, kMode>, Tier::template Kernel<2, kMode>,
          Tier::template Kernel<3, kMode>, Tier::template Kernel<4, kMode>};
}

template <class Tier>
constexpr KernelTable Kernels() {
  return {RowKernels<Tier, Mode::kDense>(), RowKernels<Tier, Mode::kSkip>(),
          RowKernels<Tier, Mode::kNt>(), RowKernels<Tier, Mode::kNtGather>()};
}

struct TileSet {
  KernelTable kernels;
  ZeroScanFn has_zero;
  const char* isa;
  KernelTier tier;
};

#if DELREC_GEMM_X86
constexpr TileSet kAvx512Tiles{Kernels<Avx512>(), TileHasZeroAvx512, "avx512",
                               KernelTier::kAvx512};
constexpr TileSet kAvx2Tiles{Kernels<Avx2>(), TileHasZeroAvx2, "avx2",
                             KernelTier::kAvx2};
constexpr TileSet kScalarTiles{Kernels<Scalar>(), TileHasZeroScalar, "sse2",
                               KernelTier::kScalar};
#else
constexpr TileSet kScalarTiles{Kernels<Scalar>(), TileHasZeroScalar,
                               "portable", KernelTier::kScalar};
#endif

// The tiers this host can run, fastest first.
std::vector<const TileSet*> SupportedTiles() {
  std::vector<const TileSet*> tiers;
#if DELREC_GEMM_X86
  if (__builtin_cpu_supports("avx512f")) tiers.push_back(&kAvx512Tiles);
  if (__builtin_cpu_supports("avx2")) tiers.push_back(&kAvx2Tiles);
#endif
  tiers.push_back(&kScalarTiles);
  return tiers;
}

// Set only by ScopedGemmIsa (tests); nullptr means the fastest tier.
std::atomic<const TileSet*> pinned_tiles{nullptr};

const TileSet& PickTiles() {
  if (const TileSet* pinned = pinned_tiles.load(std::memory_order_acquire)) {
    return *pinned;
  }
  static const TileSet* const fastest = SupportedTiles().front();
  return *fastest;
}

// -- Row-tile loop ------------------------------------------------------------
// One row-tile loop serves all three products: MR-row tiles of C, each swept
// across the NR-wide column panels of B. Panel jb starts at b +
// jb·panel_stride; A, B and C addressing is as in Tile.

struct GemmPlan {
  const float* a;
  int64_t a_i_stride;
  int64_t a_p_stride;
  const float* b;
  int64_t panel_stride;
  int64_t b_p_stride;
  float* c;
  int64_t n;
  int64_t k;
  // NN/TN plans carry kDense; a row tile whose A rows hold a zero runs
  // kSkip instead. NT plans run their mode as is.
  Mode mode;
  bool accumulate;
  const TileSet* tiles;
};

void PlanRows(const GemmPlan& plan, int64_t row_begin, int64_t row_end) {
  const int64_t num_panels = (plan.n + NR - 1) / NR;
  Tile t;
  t.accumulate = plan.accumulate;
  t.a_i_stride = plan.a_i_stride;
  t.a_p_stride = plan.a_p_stride;
  t.b_p_stride = plan.b_p_stride;
  t.ldc = plan.n;
  t.k = plan.k;
  for (int64_t i = row_begin; i < row_end; i += MR) {
    const int mr = static_cast<int>(std::min<int64_t>(MR, row_end - i));
    t.a = plan.a + i * plan.a_i_stride;
    const Mode mode =
        plan.mode == Mode::kDense &&
                plan.tiles->has_zero(t.a, t.a_i_stride, t.a_p_stride, mr, t.k)
            ? Mode::kSkip
            : plan.mode;
    const TileFn kernel =
        plan.tiles->kernels[static_cast<int>(mode)][mr - 1];
    for (int64_t jb = 0; jb < num_panels; ++jb) {
      const int64_t j0 = jb * NR;
      t.nr = static_cast<int>(std::min<int64_t>(NR, plan.n - j0));
      t.b = plan.b + jb * plan.panel_stride;
      t.c = plan.c + i * plan.n + j0;
      kernel(t);
    }
  }
}

void RunPlan(const GemmPlan& plan, int64_t m) {
  GemmRows(m, plan.n, plan.k, [&plan](int64_t row_begin, int64_t row_end) {
    PlanRows(plan, row_begin, row_end);
  });
}

// -- Blocked NN / TN ----------------------------------------------------------
// Both contract C(i,j) = Σ_p A(i,p)·B(p,j) with B stored row-major (K,N);
// they differ only in how A is addressed: A(i,p) = a[i·a_i_stride +
// p·a_p_stride] (NN: strides (k,1); TN with A stored (K,M): strides (1,m)).

void BlockedAxB(const float* a, int64_t a_i_stride, int64_t a_p_stride,
                const float* b, float* c, int64_t m, int64_t n, int64_t k,
                bool accumulate) {
  if (m == 0 || n == 0) return;
  // Unpacked, panel jb is the in-place view b + jb·NR with row stride n.
  GemmPlan plan{a, a_i_stride, a_p_stride, b,          /*panel_stride=*/NR,
                /*b_p_stride=*/n, c, n, k, Mode::kDense, accumulate,
                &PickTiles()};
  // Pack B into contiguous NR-wide panels once per call when enough row
  // tiles will reuse it (the pack is one extra pass over B; with few rows
  // the in-place panel view is cheaper). Edge-panel tail lanes are left
  // unwritten — tiles never read lanes ≥ nr. The pack buffer is pooled
  // scratch shared read-only by all row chunks; ParallelFor joins before the
  // arena releases it.
  util::ScopedArena arena;
  if (m >= kGemmPackMinRows && n > NR) {
    const int64_t num_panels = (n + NR - 1) / NR;
    float* pack = arena.Alloc(static_cast<size_t>(num_panels) * k * NR);
    for (int64_t jb = 0; jb < num_panels; ++jb) {
      const int nr = static_cast<int>(std::min<int64_t>(NR, n - jb * NR));
      float* panel = pack + jb * k * NR;
      const float* bsrc = b + jb * NR;
      for (int64_t p = 0; p < k; ++p) {
        for (int jr = 0; jr < nr; ++jr) {
          panel[p * NR + jr] = bsrc[p * n + jr];
        }
      }
    }
    plan.b = pack;
    plan.panel_stride = k * NR;
    plan.b_p_stride = NR;
  }
  RunPlan(plan, m);
}

}  // namespace

void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate) {
  BlockedAxB(a, /*a_i_stride=*/k, /*a_p_stride=*/1, b, c, m, n, k,
             accumulate);
}

void GemmTN(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate) {
  // A stored (K,M): A(i,p) = a[p·m + i].
  BlockedAxB(a, /*a_i_stride=*/1, /*a_p_stride=*/m, b, c, m, n, k,
             accumulate);
}

// -- Blocked NT ---------------------------------------------------------------
// C(i,j) = Σ_p A(i,p)·B(j,p), both operands stored contiguous along k. With
// enough rows B is transpose-packed into NR-wide panels (panel[p·NR + jr] =
// B(j0+jr, p)), which turns the inner update into the same lane-parallel
// shape as NN — lanes are distinct output columns, each lane still a single
// ascending-p chain with the reference's dot-then-combine association.
// Small-m calls skip the pack: their tiles gather each step's NR lanes
// straight from B's rows (offsets jr·k fit int32 up to kMaxGatherDepth).
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t n,
            int64_t k, bool accumulate) {
  if (m == 0 || n == 0) return;
  constexpr int64_t kMaxGatherDepth =
      std::numeric_limits<int32_t>::max() / NR;
  GemmPlan plan{a, /*a_i_stride=*/k, /*a_p_stride=*/1, b,
                /*panel_stride=*/NR * k, /*b_p_stride=*/1, c, n, k,
                Mode::kNtGather, accumulate, &PickTiles()};
  util::ScopedArena arena;
  if (m >= kGemmPackMinRows || k > kMaxGatherDepth) {
    // The pack costs one pass over B, amortized across m/MR row tiles.
    const int64_t num_panels = (n + NR - 1) / NR;
    float* pack = arena.Alloc(static_cast<size_t>(num_panels) * k * NR);
    for (int64_t jb = 0; jb < num_panels; ++jb) {
      const int nr = static_cast<int>(std::min<int64_t>(NR, n - jb * NR));
      float* panel = pack + jb * k * NR;
      for (int jr = 0; jr < nr; ++jr) {
        const float* bcol = b + (jb * NR + jr) * k;
        for (int64_t p = 0; p < k; ++p) panel[p * NR + jr] = bcol[p];
      }
    }
    plan.b = pack;
    plan.panel_stride = k * NR;
    plan.b_p_stride = NR;
    plan.mode = Mode::kNt;
  }
  RunPlan(plan, m);
}

// -- Reference kernels --------------------------------------------------------
// The exact historical serial loop nests (pre-blocking), kept as the
// bit-identity oracle and the perf baseline.

void GemmNNRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    if (!accumulate) std::fill(c_row, c_row + n, 0.0f);
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a_row[p];
      if (a_val == 0.0f) continue;
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

void GemmNTRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float dot = 0.0f;
      for (int64_t p = 0; p < k; ++p) dot += a_row[p] * b_row[p];
      if (accumulate) {
        c_row[j] += dot;
      } else {
        c_row[j] = dot;
      }
    }
  }
}

void GemmTNRef(const float* a, const float* b, float* c, int64_t m, int64_t n,
               int64_t k, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    if (!accumulate) std::fill(c_row, c_row + n, 0.0f);
    for (int64_t p = 0; p < k; ++p) {
      const float a_val = a[p * m + i];
      if (a_val == 0.0f) continue;
      const float* b_row = b + p * n;
      for (int64_t j = 0; j < n; ++j) c_row[j] += a_val * b_row[j];
    }
  }
}

std::string GemmKernelConfig() {
#ifdef DELREC_NATIVE_BUILD
  const char* native = "on";
#else
  const char* native = "off";
#endif
  return "blocked " + std::to_string(kGemmRowTile) + "x" +
         std::to_string(kGemmColTile) + " microkernel, masked edges, " +
         "packed-B (m>=" + std::to_string(kGemmPackMinRows) + "), isa=" +
         PickTiles().isa + ", fp-contract=off, pool-backed pack buffers, "
         "march=native " + native;
}

std::string GemmKernelIsa() { return PickTiles().isa; }

KernelTier ActiveKernelTier() { return PickTiles().tier; }

std::vector<std::string> GemmSupportedIsas() {
  std::vector<std::string> isas;
  for (const TileSet* tiles : SupportedTiles()) isas.emplace_back(tiles->isa);
  return isas;
}

ScopedGemmIsa::ScopedGemmIsa(const std::string& isa)
    : previous_(pinned_tiles.load(std::memory_order_acquire)) {
  const TileSet* match = nullptr;
  for (const TileSet* tiles : SupportedTiles()) {
    if (isa == tiles->isa) match = tiles;
  }
  DELREC_CHECK(match != nullptr)
      << "GEMM tier \"" << isa << "\" is not supported on this host";
  pinned_tiles.store(match, std::memory_order_release);
}

ScopedGemmIsa::~ScopedGemmIsa() {
  pinned_tiles.store(static_cast<const TileSet*>(previous_),
                     std::memory_order_release);
}

}  // namespace delrec::nn
