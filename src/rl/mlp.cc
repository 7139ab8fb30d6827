#include "rl/mlp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace mtat {
namespace {

// Two doubles in one SSE2 register, via the GNU vector extension (GCC and
// clang). GCC's -O2 cost model leaves the loops below scalar, so the kernel
// spells the two lanes out. Lane-wise + and * are the scalar IEEE operations,
// so computing two independent outputs at once changes no rounding.
typedef double V2 __attribute__((vector_size(16)));
typedef std::int64_t M2 __attribute__((vector_size(16)));  // lane mask of a V2 compare

inline V2 load2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store2(double* p, V2 v) { std::memcpy(p, &v, sizeof v); }
inline V2 splat(double x) { return V2{x, x}; }

// Half the units of a hidden layer are clamped, so the ReLU and its
// derivative mask use lane masks rather than a branch per element, which
// would mispredict half the time.

/// ReLU in place: v = v < 0 ? +0.0 : v (a zero sum keeps its sign).
void relu(std::vector<double>& v) {
  const V2 zero = {0.0, 0.0};
  std::size_t k = 0;
  for (; k + 2 <= v.size(); k += 2) {
    const V2 x = load2(&v[k]);
    const M2 negative = std::bit_cast<M2>(x < zero);
    store2(&v[k], std::bit_cast<V2>(std::bit_cast<M2>(x) & ~negative));
  }
  for (; k < v.size(); ++k) v[k] = v[k] < 0.0 ? 0.0 : v[k];
}

/// ReLU derivative: d = +0.0 wherever the layer's output a <= 0.
void mask_clamped(double* d, const double* a, std::size_t size) {
  const V2 zero = {0.0, 0.0};
  std::size_t k = 0;
  for (; k + 2 <= size; k += 2) {
    const M2 clamped = std::bit_cast<M2>(load2(a + k) <= zero);
    store2(d + k, std::bit_cast<V2>(std::bit_cast<M2>(load2(d + k)) & ~clamped));
  }
  for (; k < size; ++k)
    if (a[k] <= 0.0) d[k] = 0.0;
}

/// g[r] += x[r*n + 0] + x[r*n + 1] + ... + x[r*n + n-1], left to right, for
/// r < rows. Four rows run side by side so their dependency chains overlap.
void sum_rows_into(const double* x, std::size_t rows, std::size_t n, double* g) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* x0 = x + r * n;
    double g0 = g[r], g1 = g[r + 1], g2 = g[r + 2], g3 = g[r + 3];
    for (std::size_t s = 0; s < n; ++s) {
      g0 += x0[s];
      g1 += x0[n + s];
      g2 += x0[2 * n + s];
      g3 += x0[3 * n + s];
    }
    g[r] = g0;
    g[r + 1] = g1;
    g[r + 2] = g2;
    g[r + 3] = g3;
  }
  for (; r < rows; ++r) {
    double t = g[r];
    for (std::size_t s = 0; s < n; ++s) t += x[r * n + s];
    g[r] = t;
  }
}

/// One output of multiply_accumulate(), computed alone.
inline void accumulate_cell(std::size_t depth, const double* a, std::size_t aks,
                            const double* b, std::size_t ldb, double* c) {
  double t = *c;
  for (std::size_t k = 0; k < depth; ++k) t += a[k * aks] * b[k * ldb];
  *c = t;
}

/// c[r*ldc + j] += a[r*ars + k*aks] * b[k*ldb + j] for k = 0, 1, ..., depth-1,
/// over all r < rows and j < cols. Each output takes its products one at a
/// time in ascending k, exactly as the scalar loop `for k: c += a * b` does;
/// only independent outputs share registers. The 4-row x 4-column tile stays
/// in registers across the whole k loop.
void multiply_accumulate(std::size_t rows, std::size_t cols, std::size_t depth,
                         const double* a, std::size_t ars, std::size_t aks, const double* b,
                         std::size_t ldb, double* c, std::size_t ldc) {
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* a0 = a + r * ars;
    const double* a1 = a0 + ars;
    const double* a2 = a1 + ars;
    const double* a3 = a2 + ars;
    double* c0 = c + r * ldc;
    double* c1 = c0 + ldc;
    double* c2 = c1 + ldc;
    double* c3 = c2 + ldc;
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      V2 t00 = load2(c0 + j), t01 = load2(c0 + j + 2);
      V2 t10 = load2(c1 + j), t11 = load2(c1 + j + 2);
      V2 t20 = load2(c2 + j), t21 = load2(c2 + j + 2);
      V2 t30 = load2(c3 + j), t31 = load2(c3 + j + 2);
      const double* bk = b + j;
      for (std::size_t k = 0, ak = 0; k < depth; ++k, bk += ldb, ak += aks) {
        const V2 b0 = load2(bk), b1 = load2(bk + 2);
        const V2 w0 = splat(a0[ak]), w1 = splat(a1[ak]);
        const V2 w2 = splat(a2[ak]), w3 = splat(a3[ak]);
        t00 += w0 * b0;
        t01 += w0 * b1;
        t10 += w1 * b0;
        t11 += w1 * b1;
        t20 += w2 * b0;
        t21 += w2 * b1;
        t30 += w3 * b0;
        t31 += w3 * b1;
      }
      store2(c0 + j, t00);
      store2(c0 + j + 2, t01);
      store2(c1 + j, t10);
      store2(c1 + j + 2, t11);
      store2(c2 + j, t20);
      store2(c2 + j + 2, t21);
      store2(c3 + j, t30);
      store2(c3 + j + 2, t31);
    }
    for (; j < cols; ++j) {
      accumulate_cell(depth, a0, aks, b + j, ldb, c0 + j);
      accumulate_cell(depth, a1, aks, b + j, ldb, c1 + j);
      accumulate_cell(depth, a2, aks, b + j, ldb, c2 + j);
      accumulate_cell(depth, a3, aks, b + j, ldb, c3 + j);
    }
  }
  for (; r < rows; ++r) {
    const double* ar = a + r * ars;
    double* cr = c + r * ldc;
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      V2 t0 = load2(cr + j), t1 = load2(cr + j + 2);
      const double* bk = b + j;
      for (std::size_t k = 0, ak = 0; k < depth; ++k, bk += ldb, ak += aks) {
        const V2 w = splat(ar[ak]);
        t0 += w * load2(bk);
        t1 += w * load2(bk + 2);
      }
      store2(cr + j, t0);
      store2(cr + j + 2, t1);
    }
    for (; j < cols; ++j) accumulate_cell(depth, ar, aks, b + j, ldb, cr + j);
  }
}

}  // namespace

Mlp::Mlp(std::vector<int> sizes, Rng& rng) : sizes_(std::move(sizes)) {
  if (sizes_.size() < 2) throw std::invalid_argument("Mlp: need at least in/out sizes");
  for (int s : sizes_)
    if (s <= 0) throw std::invalid_argument("Mlp: layer sizes must be positive");
  std::size_t off = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    Layer layer;
    layer.in = sizes_[l];
    layer.out = sizes_[l + 1];
    layer.w_off = off;
    off += static_cast<std::size_t>(layer.in) * layer.out;
    layer.b_off = off;
    off += layer.out;
    layers_.push_back(layer);
  }
  params_.resize(off);
  grads_.assign(off, 0.0);
  adam_m_.assign(off, 0.0);
  adam_v_.assign(off, 0.0);
  for (const Layer& l : layers_) {
    const double stddev = std::sqrt(2.0 / l.in);  // He init for ReLU nets
    for (int i = 0; i < l.in * l.out; ++i)
      params_[l.w_off + i] = rng.next_gaussian() * stddev;
    for (int i = 0; i < l.out; ++i) params_[l.b_off + i] = 0.0;
  }
}

std::vector<double> Mlp::forward(const std::vector<double>& x) const {
  Cache scratch;
  return forward_cached(x, scratch);
}

std::vector<double> Mlp::forward_cached(const std::vector<double>& x, Cache& cache) const {
  return forward_batch(x, 1, cache);
}

std::vector<double> Mlp::backward(const Cache& cache, const std::vector<double>& dout,
                                  double scale) {
  Scratch scratch;
  return backward_batch(cache, dout, scale, scratch);
}

const std::vector<double>& Mlp::forward_batch(std::span<const double> x, std::size_t n,
                                              Cache& cache) const {
  if (x.size() != static_cast<std::size_t>(sizes_.front()) * n)
    throw std::invalid_argument("Mlp: input size mismatch");
  cache.n = n;
  cache.activations.resize(layers_.size() + 1);
  cache.activations[0].assign(x.begin(), x.end());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    std::vector<double>& out = cache.activations[li + 1];
    out.resize(static_cast<std::size_t>(l.out) * n);
    // out[o][s] = b[o] + w[o][0]*x[0][s] + w[o][1]*x[1][s] + ..., left to right.
    for (int o = 0; o < l.out; ++o)
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(o * n), n, params_[l.b_off + o]);
    multiply_accumulate(l.out, n, l.in, &params_[l.w_off], l.in, 1,
                        cache.activations[li].data(), n, out.data(), n);
    // ReLU on hidden layers, identity on the output layer.
    if (li + 1 < layers_.size()) relu(out);
  }
  return cache.activations.back();
}

const std::vector<double>& Mlp::backward_batch(const Cache& cache,
                                               std::span<const double> dout, double scale,
                                               Scratch& scratch, bool param_grads) {
  if (cache.activations.size() != layers_.size() + 1)
    throw std::invalid_argument("Mlp: stale cache");
  const std::size_t n = cache.n;
  if (dout.size() != static_cast<std::size_t>(sizes_.back()) * n)
    throw std::invalid_argument("Mlp: output gradient size mismatch");
  std::vector<double>& delta = scratch.delta;
  std::vector<double>& dprev = scratch.dprev;
  delta.assign(dout.begin(), dout.end());
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const Layer& l = layers_[li];
    const std::size_t in = l.in, out = l.out;
    const std::vector<double>& a_in = cache.activations[li];
    const std::vector<double>& a_out = cache.activations[li + 1];
    // ReLU derivative on hidden layers: zero where the activation was clamped.
    if (li + 1 < layers_.size()) mask_clamped(delta.data(), a_out.data(), out * n);
    // dprev[i][s] = 0 + d[0][s]*w[0][i] + d[1][s]*w[1][i] + ..., left to right.
    dprev.assign(in * n, 0.0);
    multiply_accumulate(in, n, out, &params_[l.w_off], 1, in, delta.data(), n, dprev.data(), n);
    if (param_grads) {
      // Each parameter adds its per-sample terms (scale*d)*a in sample order,
      // as n single-sample backward passes would. delta is spent once dprev
      // holds the propagated gradient, so it is scaled in place. The
      // weight-gradient product runs over samples, so it reads the layer
      // input sample-major.
      for (double& d : delta) d *= scale;
      sum_rows_into(delta.data(), out, n, &grads_[l.b_off]);
      std::vector<double>& a_t = scratch.input_t;
      a_t.resize(in * n);
      for (std::size_t i = 0; i < in; ++i)
        for (std::size_t s = 0; s < n; ++s) a_t[s * in + i] = a_in[i * n + s];
      multiply_accumulate(out, in, n, delta.data(), n, 1, a_t.data(), in, &grads_[l.w_off], in);
    }
    std::swap(delta, dprev);
  }
  // The returned input gradient carries `scale` too, matching the parameter
  // gradients' scaling so chained backward passes stay consistent.
  if (scale != 1.0)
    for (double& d : delta) d *= scale;
  return delta;
}

void Mlp::reserve(std::size_t n, Cache& cache, Scratch& scratch) const {
  cache.activations.resize(sizes_.size());
  std::size_t widest = 0;
  for (std::size_t l = 0; l < sizes_.size(); ++l) {
    const std::size_t block = static_cast<std::size_t>(sizes_[l]) * n;
    cache.activations[l].reserve(block);
    widest = std::max(widest, block);
  }
  scratch.delta.reserve(widest);
  scratch.dprev.reserve(widest);
  scratch.input_t.reserve(widest);
}

void Mlp::adam_step(double lr, double beta1, double beta2, double eps) {
  ++adam_t_;
  const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(adam_t_));
  const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(adam_t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    adam_m_[i] = beta1 * adam_m_[i] + (1.0 - beta1) * grads_[i];
    adam_v_[i] = beta2 * adam_v_[i] + (1.0 - beta2) * grads_[i] * grads_[i];
    params_[i] -= lr * (adam_m_[i] / bc1) / (std::sqrt(adam_v_[i] / bc2) + eps);
  }
  zero_grad();
}

void Mlp::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }

void Mlp::copy_parameters_from(const Mlp& other) {
  if (other.params_.size() != params_.size())
    throw std::invalid_argument("Mlp: shape mismatch in copy");
  params_ = other.params_;
}

void Mlp::soft_update_from(const Mlp& other, double tau) {
  if (other.params_.size() != params_.size())
    throw std::invalid_argument("Mlp: shape mismatch in soft update");
  for (std::size_t i = 0; i < params_.size(); ++i)
    params_[i] = tau * other.params_[i] + (1.0 - tau) * params_[i];
}

}  // namespace mtat
