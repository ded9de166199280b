// The vectorized exp and softmax kernels (DESIGN.md §10): exp's accuracy
// against double std::exp, its special values, and bitwise agreement of
// every fp32 tier this host supports (pinned through ScopedGemmIsa) — the
// property that lets training, Score() and ScoreBatch() share one softmax.
#include "nn/vmath.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "nn/gemm.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace delrec::nn {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// Bit-exact equality, except that any NaN matches any NaN (the payload of a
// NaN row is not part of the contract).
bool SameBits(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
}

std::vector<float> ExpOnTier(const std::string& isa,
                             const std::vector<float>& x) {
  ScopedGemmIsa pin(isa);
  std::vector<float> out(x.size());
  Exp(x.data(), out.data(), static_cast<int64_t>(x.size()));
  return out;
}

std::vector<float> SoftmaxOnTier(const std::string& isa,
                                 const std::vector<float>& x, int64_t rows,
                                 int64_t cols) {
  ScopedGemmIsa pin(isa);
  std::vector<float> out(x.size());
  SoftmaxRows(x.data(), out.data(), rows, cols);
  return out;
}

TEST(VmathTest, ExpWithinOneUlpOfDoubleExpOnEveryTier) {
  // A uniform 2e-4 grid over [-87.3, 88.7] plus a log-spaced sweep of small
  // magnitudes of both signs, where the uniform grid is sparse.
  std::vector<float> x;
  for (double v = -87.3; v <= 88.7; v += 2e-4) {
    x.push_back(static_cast<float>(v));
  }
  for (double m = 1e-30; m < 1.0; m *= 1.001) {
    x.push_back(static_cast<float>(m));
    x.push_back(static_cast<float>(-m));
  }
  for (const std::string& isa : GemmSupportedIsas()) {
    const std::vector<float> out = ExpOnTier(isa, x);
    int64_t worst = 0;
    float worst_x = 0.0f;
    for (size_t i = 0; i < x.size(); ++i) {
      const float ref =
          static_cast<float>(std::exp(static_cast<double>(x[i])));
      const int64_t ulps =
          std::llabs(static_cast<int64_t>(std::bit_cast<int32_t>(out[i])) -
                     std::bit_cast<int32_t>(ref));
      if (ulps > worst) {
        worst = ulps;
        worst_x = x[i];
      }
    }
    EXPECT_LE(worst, 1) << isa << ": worst at x=" << worst_x;
  }
}

TEST(VmathTest, ExpSpecialValuesOnEveryTier) {
  struct Case {
    float x;
    float expected;  // NaN means "any NaN".
  };
  const Case kCases[] = {
      {0.0f, 1.0f},      {-0.0f, 1.0f},     {-kInf, 0.0f},
      {-1e9f, 0.0f},     {-87.4f, 0.0f},    {-100.0f, 0.0f},
      {-1e30f, 0.0f},    {kInf, kInf},      {89.0f, kInf},
      {1e30f, kInf},     {kNaN, kNaN},      {-kNaN, kNaN},
  };
  // Every case sits at every position of a 37-wide vector — full 16- and
  // 8-lane blocks and each masked tail lane — among ordinary neighbours.
  for (const std::string& isa : GemmSupportedIsas()) {
    const float neighbour = ExpOnTier(isa, {0.5f})[0];
    for (const Case& c : kCases) {
      for (int64_t pos = 0; pos < 37; ++pos) {
        std::vector<float> x(37, 0.5f);
        x[pos] = c.x;
        const std::vector<float> out = ExpOnTier(isa, x);
        EXPECT_TRUE(SameBits(out[pos], c.expected))
            << isa << ": exp(" << c.x << ") = " << out[pos] << " at " << pos;
        for (int64_t j = 0; j < 37; ++j) {
          if (j != pos) {
            ASSERT_EQ(out[j], neighbour) << isa << " at " << j;
          }
        }
      }
    }
    // Inputs at or below ln(FLT_MIN) underflow to exactly 0, above it the
    // result is positive.
    const std::vector<float> edge =
        ExpOnTier(isa, {-87.34f, -87.33f, -87.3f, -88.0f});
    EXPECT_EQ(edge[0], 0.0f) << isa;
    EXPECT_GT(edge[1], 0.0f) << isa;
    EXPECT_GT(edge[2], 0.0f) << isa;
    EXPECT_EQ(edge[3], 0.0f) << isa;
  }
}

TEST(VmathTest, ExpTiersAgreeBitwise) {
  util::Rng rng(7);
  std::vector<float> x(4099);
  for (float& v : x) v = rng.UniformFloat(-100.0f, 100.0f);
  const std::vector<std::string> isas = GemmSupportedIsas();
  const std::vector<float> scalar = ExpOnTier(isas.back(), x);
  for (const std::string& isa : isas) {
    const std::vector<float> out = ExpOnTier(isa, x);
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_TRUE(SameBits(out[i], scalar[i]))
          << isa << " vs " << isas.back() << " at x=" << x[i];
    }
  }
}

std::vector<float> GeluPadeOnTier(const std::string& isa,
                                  const std::vector<float>& x) {
  ScopedGemmIsa pin(isa);
  std::vector<float> out(x.size());
  GeluPade(x.data(), out.data(), static_cast<int64_t>(x.size()));
  return out;
}

// The int8 path's Padé GELU fuses (fma) where its AVX2 kernel does; the
// scalar tier must reproduce those bits exactly — over 2²⁰ N(0, 2) inputs,
// the special values, and every length whose tail the vector kernel hands
// to the scalar form — so int8 scores do not depend on the host.
TEST(VmathTest, GeluPadeTiersAgreeBitwise) {
  util::Rng rng(11);
  std::vector<float> x(1 << 20);
  for (float& v : x) v = static_cast<float>(rng.Normal(0.0, 2.0));
  const std::vector<float> specials = {0.0f,   -0.0f, kInf,  -kInf, kNaN,
                                       4.97f,  -4.97f, 4.97e3f, -4.97e3f,
                                       1e-30f, -1e-30f};
  x.insert(x.end(), specials.begin(), specials.end());
  const std::vector<std::string> isas = GemmSupportedIsas();
  const std::vector<float> scalar = GeluPadeOnTier(isas.back(), x);
  for (const std::string& isa : isas) {
    const std::vector<float> out = GeluPadeOnTier(isa, x);
    int64_t mismatches = 0;
    for (size_t i = 0; i < x.size(); ++i) {
      mismatches += SameBits(out[i], scalar[i]) ? 0 : 1;
    }
    EXPECT_EQ(mismatches, 0) << isa << " vs " << isas.back();
    // NaN propagates on every tier; ±inf and ±0 agree (checked above).
    EXPECT_TRUE(std::isnan(out[x.size() - specials.size() + 4])) << isa;
    for (int64_t n = 1; n <= 15; ++n) {
      const std::vector<float> tail(x.begin() + 3, x.begin() + 3 + n);
      const std::vector<float> got = GeluPadeOnTier(isa, tail);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(SameBits(got[i], scalar[3 + i]))
            << isa << " length " << n << " at x=" << tail[i];
      }
    }
  }
  // And the approximation stays within its documented error of the exact
  // tanh-form GELU.
  std::vector<float> exact(x.size());
  GeluRows(x.data(), exact.data(), static_cast<int64_t>(x.size()));
  for (size_t i = 0; i + specials.size() < x.size(); ++i) {
    ASSERT_NEAR(scalar[i], exact[i], 2e-4f * std::max(1.0f, std::fabs(x[i])))
        << "x=" << x[i];
  }
}

// Rows with the shapes attention and the losses produce: random logits,
// a causal -1e9 mask over the upper part, all-equal, one NaN, and one -inf.
std::vector<float> SoftmaxInput(int64_t rows, int64_t cols, util::Rng& rng) {
  std::vector<float> x(rows * cols);
  for (float& v : x) v = rng.UniformFloat(-8.0f, 8.0f);
  for (int64_t i = 0; i < rows; ++i) {
    float* row = x.data() + i * cols;
    switch (i % 5) {
      case 1:  // Causal mask: column j > i masked.
        for (int64_t j = i + 1; j < cols; ++j) row[j] += -1e9f;
        break;
      case 2:
        for (int64_t j = 0; j < cols; ++j) row[j] = 0.25f;
        break;
      case 3:  // One -inf logit (a lone -inf would make the row NaN).
        if (cols > 1) row[(i * 7) % cols] = -kInf;
        break;
      default:
        break;
    }
  }
  return x;
}

TEST(VmathTest, SoftmaxTiersAgreeBitwiseAndNormalize) {
  std::vector<int64_t> widths;
  for (int64_t c = 1; c <= 70; ++c) widths.push_back(c);
  widths.push_back(102);
  widths.push_back(1682);
  const std::vector<std::string> isas = GemmSupportedIsas();
  util::Rng rng(11);
  for (const int64_t cols : widths) {
    const int64_t rows = 11;
    std::vector<float> x = SoftmaxInput(rows, cols, rng);
    const int64_t nan_row = 4;
    x[nan_row * cols + cols / 2] = kNaN;
    const std::vector<float> scalar =
        SoftmaxOnTier(isas.back(), x, rows, cols);
    for (const std::string& isa : isas) {
      const std::vector<float> out = SoftmaxOnTier(isa, x, rows, cols);
      for (size_t i = 0; i < x.size(); ++i) {
        ASSERT_TRUE(SameBits(out[i], scalar[i]))
            << isa << " cols=" << cols << " row=" << i / cols
            << " col=" << i % cols << ": " << out[i] << " vs " << scalar[i];
      }
      // In place gives the same bits.
      std::vector<float> in_place = x;
      {
        ScopedGemmIsa pin(isa);
        SoftmaxRows(in_place.data(), in_place.data(), rows, cols);
      }
      for (size_t i = 0; i < x.size(); ++i) {
        ASSERT_TRUE(SameBits(in_place[i], out[i])) << isa << " in place";
      }
    }
    for (int64_t i = 0; i < rows; ++i) {
      const float* row = scalar.data() + i * cols;
      if (i == nan_row) {
        for (int64_t j = 0; j < cols; ++j) {
          ASSERT_TRUE(std::isnan(row[j])) << "cols=" << cols << " col=" << j;
        }
        continue;
      }
      double sum = 0.0;
      for (int64_t j = 0; j < cols; ++j) {
        ASSERT_GE(row[j], 0.0f);
        sum += row[j];
      }
      EXPECT_NEAR(sum, 1.0, 1e-6) << "cols=" << cols << " row=" << i;
      if (i % 5 == 1) {
        for (int64_t j = i + 1; j < cols; ++j) {
          ASSERT_EQ(row[j], 0.0f) << "masked column leaked, cols=" << cols;
        }
      }
      if (i % 5 == 2) {
        for (int64_t j = 1; j < cols; ++j) ASSERT_EQ(row[j], row[0]);
      }
    }
  }
}

TEST(VmathTest, SoftmaxMatchesDoubleReference) {
  util::Rng rng(3);
  const int64_t rows = 73, cols = 102;
  std::vector<float> x(rows * cols);
  for (float& v : x) v = rng.UniformFloat(-6.0f, 6.0f);
  std::vector<float> out(x.size());
  SoftmaxRows(x.data(), out.data(), rows, cols);
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = x.data() + i * cols;
    double mx = row[0];
    for (int64_t j = 1; j < cols; ++j) mx = std::max(mx, double{row[j]});
    double denom = 0.0;
    for (int64_t j = 0; j < cols; ++j) denom += std::exp(row[j] - mx);
    for (int64_t j = 0; j < cols; ++j) {
      const double expected = std::exp(row[j] - mx) / denom;
      ASSERT_NEAR(out[i * cols + j], expected, 1e-6 * expected + 1e-12);
    }
  }
}

TEST(VmathTest, TensorSoftmaxOpsShareTheKernel) {
  // nn::Softmax, LogSoftmax and CrossEntropyWithLogits all run SoftmaxRows.
  util::Rng rng(5);
  const int64_t rows = 6, cols = 37;
  std::vector<float> x(rows * cols);
  for (float& v : x) v = rng.UniformFloat(-3.0f, 3.0f);
  std::vector<float> expected(x.size());
  SoftmaxRows(x.data(), expected.data(), rows, cols);
  const Tensor logits = Tensor::FromData({rows, cols}, x);
  const Tensor probs = Softmax(logits);
  const Tensor log_probs = LogSoftmax(logits);
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_TRUE(SameBits(probs.data()[i], expected[i]));
    ASSERT_EQ(log_probs.data()[i], std::log(expected[i]));
  }
}

}  // namespace
}  // namespace delrec::nn
