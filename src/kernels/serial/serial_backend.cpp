// The default backend: the pre-backend loop bodies, unthreaded. This is the
// bit-identity reference — every other backend's determinism contract is
// "matches these loops" (bitwise for spmv/gemm/blas-level updates/xs, within
// verify tolerances for the sum/dot reductions).
//
// Every loop here starts on a 32-byte boundary, so an inner loop of up to 32
// bytes never straddles a 64-byte fetch window, wherever the linker places
// this file. Unaligned, a size change in an earlier translation unit that
// moved the file by 16 bytes (mod 64) made the n=192 GEMM 27% slower.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "common/rng.hpp"
#include "kernels/backend.hpp"
#include "linalg/csr.hpp"
#include "mc/xs_kernel.hpp"

namespace adcc::core {

namespace {

class SerialBackend final : public KernelBackend {
 public:
  SerialBackend() : KernelBackend("serial") {}

 protected:
  void do_spmv(const linalg::CsrMatrix& a, std::span<const double> x,
               std::span<double> y) const override {
    const auto row_ptr = a.row_ptr();
    const auto col_idx = a.col_idx();
    const auto values = a.values();
    const std::size_t n = a.rows();
    for (std::size_t r = 0; r < n; ++r) {
      double acc = 0.0;
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        acc += values[k] * x[col_idx[k]];
      }
      y[r] = acc;
    }
  }

  void do_spmv_rows(const linalg::CsrMatrix& a, std::size_t r0, std::size_t r1,
                    std::span<const double> x, std::span<double> y) const override {
    const auto row_ptr = a.row_ptr();
    const auto col_idx = a.col_idx();
    const auto values = a.values();
    for (std::size_t r = r0; r < r1; ++r) {
      double acc = 0.0;
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
        acc += values[k] * x[col_idx[k]];
      }
      y[r - r0] = acc;
    }
  }

  double do_sum(std::span<const double> x) const override {
    double s = 0.0;
    for (const double v : x) s += v;
    return s;
  }

  double do_dot(std::span<const double> x, std::span<const double> y) const override {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
    return s;
  }

  void do_axpy(double a, std::span<const double> x, std::span<double> y) const override {
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
  }

  void do_xpay(std::span<const double> x, double a, std::span<const double> y,
               std::span<double> z) const override {
    for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] + a * y[i];
  }

  void do_scale(double a, std::span<double> x) const override {
    for (double& v : x) v *= a;
  }

  void do_gemm_tile(const double* a, std::size_t lda, const double* b, std::size_t ldb,
                    std::size_t rows, std::size_t cols, std::size_t k, double* c, std::size_t ldc,
                    bool accumulate) const override {
    for (std::size_t i = 0; i < rows; ++i) {
      const double* ai = a + i * lda;
      double* ci = c + i * ldc;
      if (!accumulate) {
        for (std::size_t j = 0; j < cols; ++j) ci[j] = 0.0;
      }
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double aik = ai[kk];
        const double* brow = b + kk * ldb;
        for (std::size_t j = 0; j < cols; ++j) ci[j] += aik * brow[j];
      }
    }
  }

  void do_panel_sum(const double* const* panels, std::size_t count, std::size_t rows,
                    std::size_t cols, std::size_t ld, double* out, std::size_t ldo) const override {
    for (std::size_t i = 0; i < rows; ++i) {
      double* oi = out + i * ldo;
      for (std::size_t j = 0; j < cols; ++j) oi[j] = 0.0;
      for (std::size_t s = 0; s < count; ++s) {
        const double* pi = panels[s] + i * ld;
        for (std::size_t j = 0; j < cols; ++j) oi[j] += pi[j];
      }
    }
  }

  void do_xs_range(const mc::XsDataHost& data, const CounterRng& rng, std::uint64_t begin,
                   std::uint64_t end, double* macro, std::uint64_t* counters,
                   std::uint64_t* index) const override {
    for (std::uint64_t i = begin; i < end; ++i) {
      *index = i;
      const mc::LookupSample s = mc::sample_lookup(rng, i, data);
      double local[mc::kChannels];
      mc::macro_lookup(data, s.energy, s.material, local);
      for (int c = 0; c < mc::kChannels; ++c) macro[c] += local[c];
      const int type = mc::tally_select(macro, rng.uniform(i, /*lane=*/2));
      counters[static_cast<std::size_t>(type)] += 1;
    }
  }
};

}  // namespace

const KernelBackend& serial_kernel_backend() {
  static const SerialBackend backend;
  return backend;
}

}  // namespace adcc::core
