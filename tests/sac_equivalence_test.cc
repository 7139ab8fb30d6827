// Bitwise equivalence of the batched MLP/SAC kernels with the per-sample
// reference.
//
// Mlp runs a whole minibatch through the network in one pass and SacAgent
// trains one minibatch at a time (DESIGN.md §14.5). Both promise results that
// are bit for bit those of the one-sample-at-a-time code they replaced. This
// file carries that code as a reference — a scalar MLP and the per-sample
// update_once() — and compares every observable value bitwise: network
// outputs and gradients, and, after K agent updates, Q-values, deterministic
// and stochastic actions, the temperature and both losses.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

#include "common/rng.h"
#include "rl/mlp.h"
#include "rl/replay_buffer.h"
#include "rl/sac.h"

namespace mtat {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << "[" << i << "]: " << a[i] << " vs " << b[i];
}

// ------------------------------------------------------------ reference ----

/// The scalar per-sample MLP: same layout, initialization and arithmetic
/// order as Mlp, one sample per call.
class RefMlp {
 public:
  RefMlp(std::vector<int> sizes, Rng& rng) : sizes_(std::move(sizes)) {
    std::size_t off = 0;
    for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
      Layer layer{off, 0, sizes_[l], sizes_[l + 1]};
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
      const double stddev = std::sqrt(2.0 / l.in);
      for (int i = 0; i < l.in * l.out; ++i)
        params_[l.w_off + i] = rng.next_gaussian() * stddev;
      for (int i = 0; i < l.out; ++i) params_[l.b_off + i] = 0.0;
    }
  }

  using Cache = std::vector<std::vector<double>>;

  std::vector<double> forward(const std::vector<double>& x) const {
    Cache c;
    return forward_cached(x, c);
  }

  std::vector<double> forward_cached(const std::vector<double>& x, Cache& cache) const {
    cache.clear();
    cache.push_back(x);
    std::vector<double> cur = x;
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      const Layer& l = layers_[li];
      std::vector<double> next(l.out);
      for (int o = 0; o < l.out; ++o) {
        double sum = params_[l.b_off + o];
        const double* w = &params_[l.w_off + static_cast<std::size_t>(o) * l.in];
        for (int i = 0; i < l.in; ++i) sum += w[i] * cur[i];
        next[o] = (li + 1 < layers_.size() && sum < 0.0) ? 0.0 : sum;
      }
      cache.push_back(next);
      cur = std::move(next);
    }
    return cur;
  }

  std::vector<double> backward(const Cache& cache, const std::vector<double>& dout,
                               double scale) {
    std::vector<double> delta = dout;
    for (std::size_t li = layers_.size(); li-- > 0;) {
      const Layer& l = layers_[li];
      const auto& a_in = cache[li];
      const auto& a_out = cache[li + 1];
      if (li + 1 < layers_.size())
        for (int o = 0; o < l.out; ++o)
          if (a_out[o] <= 0.0) delta[o] = 0.0;
      std::vector<double> dprev(l.in, 0.0);
      for (int o = 0; o < l.out; ++o) {
        const double d = delta[o];
        grads_[l.b_off + o] += scale * d;
        const std::size_t wrow = l.w_off + static_cast<std::size_t>(o) * l.in;
        for (int i = 0; i < l.in; ++i) {
          grads_[wrow + i] += scale * d * a_in[i];
          dprev[i] += d * params_[wrow + i];
        }
      }
      delta = std::move(dprev);
    }
    if (scale != 1.0)
      for (double& d : delta) d *= scale;
    return delta;
  }

  void adam_step(double lr) {
    const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
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

  void zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }
  void copy_parameters_from(const RefMlp& o) { params_ = o.params_; }
  void soft_update_from(const RefMlp& o, double tau) {
    for (std::size_t i = 0; i < params_.size(); ++i)
      params_[i] = tau * o.params_[i] + (1.0 - tau) * params_[i];
  }
  const std::vector<double>& gradients() const { return grads_; }

 private:
  struct Layer {
    std::size_t w_off, b_off;
    int in, out;
  };
  std::vector<int> sizes_;
  std::vector<Layer> layers_;
  std::vector<double> params_, grads_, adam_m_, adam_v_;
  std::uint64_t adam_t_ = 0;
};

std::vector<int> net_sizes(int in, const std::vector<int>& hidden, int out) {
  std::vector<int> s{in};
  for (int h : hidden) s.push_back(h);
  s.push_back(out);
  return s;
}

/// The per-sample SAC agent: five reference networks built from Rng(seed) in
/// SacAgent's construction order, and update_once() one sample at a time.
class RefSac {
 public:
  explicit RefSac(const SacConfig& cfg)
      : cfg_(cfg),
        rng_(cfg.seed),
        actor_(net_sizes(cfg.state_dim, cfg.hidden, 2 * cfg.action_dim), rng_),
        q1_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
        q2_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
        q1_target_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
        q2_target_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
        log_alpha_(std::log(cfg.init_alpha)),
        buffer_(cfg.buffer_capacity) {
    q1_target_.copy_parameters_from(q1_);
    q2_target_.copy_parameters_from(q2_);
  }

  void observe(const Transition& t) { buffer_.store(t); }
  void update(int steps) {
    if (buffer_.size() < cfg_.min_buffer_for_update) return;
    for (int i = 0; i < steps; ++i) update_once();
  }
  double alpha() const { return std::exp(log_alpha_); }
  double last_critic_loss() const { return last_critic_loss_; }
  double last_actor_loss() const { return last_actor_loss_; }

  std::vector<double> act(const std::vector<double>& state, bool deterministic) {
    if (!deterministic) return sample_policy(state, nullptr).action;
    const std::vector<double> head = actor_.forward(state);
    std::vector<double> out(cfg_.action_dim);
    for (int d = 0; d < cfg_.action_dim; ++d) out[d] = std::tanh(head[d]);
    return out;
  }

  double q_value(const std::vector<double>& s, const std::vector<double>& a) const {
    const std::vector<double> in = concat(s, a);
    return std::min(q1_.forward(in)[0], q2_.forward(in)[0]);
  }

 private:
  static constexpr double kLogStdMin = -5.0;
  static constexpr double kLogStdMax = 2.0;
  static constexpr double kTanhEps = 1e-6;
  static constexpr double kHalfLog2Pi = 0.9189385332046727;

  struct PolicySample {
    std::vector<double> action, raw, mean, log_std, eps;
    double log_prob = 0.0;
  };

  static std::vector<double> concat(const std::vector<double>& a,
                                    const std::vector<double>& b) {
    std::vector<double> out = a;
    out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  PolicySample sample_policy(const std::vector<double>& state, RefMlp::Cache* cache) {
    PolicySample ps;
    RefMlp::Cache local;
    const std::vector<double> head =
        cache ? actor_.forward_cached(state, *cache) : actor_.forward_cached(state, local);
    const int dim = cfg_.action_dim;
    ps.mean.assign(head.begin(), head.begin() + dim);
    ps.log_std.resize(dim);
    ps.action.resize(dim);
    ps.raw.resize(dim);
    ps.eps.resize(dim);
    for (int d = 0; d < dim; ++d) {
      ps.log_std[d] = std::clamp(head[dim + d], kLogStdMin, kLogStdMax);
      const double sigma = std::exp(ps.log_std[d]);
      ps.eps[d] = rng_.next_gaussian();
      ps.raw[d] = ps.mean[d] + sigma * ps.eps[d];
      ps.action[d] = std::tanh(ps.raw[d]);
      ps.log_prob += -0.5 * ps.eps[d] * ps.eps[d] - ps.log_std[d] - kHalfLog2Pi -
                     std::log(1.0 - ps.action[d] * ps.action[d] + kTanhEps);
    }
    return ps;
  }

  void update_once() {
    const std::size_t batch = std::min(cfg_.batch_size, buffer_.size());
    const double inv_b = 1.0 / static_cast<double>(batch);
    std::vector<const Transition*> samples(batch);
    for (auto& s : samples) s = &buffer_.sample(rng_);

    double critic_loss = 0.0;
    for (const Transition* t : samples) {
      double y = t->reward;
      if (!t->done) {
        const PolicySample next = sample_policy(t->next_state, nullptr);
        const std::vector<double> in = concat(t->next_state, next.action);
        const double qmin = std::min(q1_target_.forward(in)[0], q2_target_.forward(in)[0]);
        y += cfg_.gamma * (qmin - alpha() * next.log_prob);
      }
      const std::vector<double> in = concat(t->state, t->action);
      RefMlp::Cache c1, c2;
      const double q1v = q1_.forward_cached(in, c1)[0];
      const double q2v = q2_.forward_cached(in, c2)[0];
      critic_loss += ((q1v - y) * (q1v - y) + (q2v - y) * (q2v - y)) * inv_b;
      q1_.backward(c1, {2.0 * (q1v - y)}, inv_b);
      q2_.backward(c2, {2.0 * (q2v - y)}, inv_b);
    }
    q1_.adam_step(cfg_.critic_lr);
    q2_.adam_step(cfg_.critic_lr);
    last_critic_loss_ = critic_loss;

    double actor_loss = 0.0;
    double mean_log_prob = 0.0;
    const int dim = cfg_.action_dim;
    for (const Transition* t : samples) {
      RefMlp::Cache actor_cache;
      const PolicySample ps = sample_policy(t->state, &actor_cache);
      const std::vector<double> in = concat(t->state, ps.action);
      RefMlp::Cache c1, c2;
      const double q1v = q1_.forward_cached(in, c1)[0];
      const double q2v = q2_.forward_cached(in, c2)[0];
      const double qmin = std::min(q1v, q2v);
      actor_loss += (alpha() * ps.log_prob - qmin) * inv_b;
      mean_log_prob += ps.log_prob * inv_b;
      RefMlp& qsel = q1v <= q2v ? q1_ : q2_;
      const std::vector<double> din = qsel.backward(q1v <= q2v ? c1 : c2, {-1.0}, inv_b);
      std::vector<double> dhead(2 * dim, 0.0);
      for (int d = 0; d < dim; ++d) {
        const double a = ps.action[d];
        const double one_m_a2 = 1.0 - a * a;
        const double dq_da = din[cfg_.state_dim + d];
        const double dlogp_draw = 2.0 * a * one_m_a2 / (one_m_a2 + kTanhEps);
        const double g_raw = dq_da * one_m_a2 + (alpha() * inv_b) * dlogp_draw;
        dhead[d] = g_raw;
        const bool clamped = ps.log_std[d] <= kLogStdMin || ps.log_std[d] >= kLogStdMax;
        if (!clamped)
          dhead[dim + d] = g_raw * std::exp(ps.log_std[d]) * ps.eps[d] - (alpha() * inv_b);
      }
      actor_.backward(actor_cache, dhead, 1.0);
    }
    actor_.adam_step(cfg_.actor_lr);
    q1_.zero_grad();
    q2_.zero_grad();
    last_actor_loss_ = actor_loss;

    const double g_alpha = -(mean_log_prob + cfg_.target_entropy);
    ++alpha_t_;
    alpha_m_ = 0.9 * alpha_m_ + 0.1 * g_alpha;
    alpha_v_ = 0.999 * alpha_v_ + 0.001 * g_alpha * g_alpha;
    const double m_hat = alpha_m_ / (1.0 - std::pow(0.9, static_cast<double>(alpha_t_)));
    const double v_hat = alpha_v_ / (1.0 - std::pow(0.999, static_cast<double>(alpha_t_)));
    log_alpha_ -= cfg_.alpha_lr * m_hat / (std::sqrt(v_hat) + 1e-8);

    q1_target_.soft_update_from(q1_, cfg_.tau);
    q2_target_.soft_update_from(q2_, cfg_.tau);
  }

  SacConfig cfg_;
  Rng rng_;
  RefMlp actor_, q1_, q2_, q1_target_, q2_target_;
  double log_alpha_;
  double alpha_m_ = 0.0, alpha_v_ = 0.0;
  std::uint64_t alpha_t_ = 0;
  ReplayBuffer buffer_;
  double last_critic_loss_ = 0.0, last_actor_loss_ = 0.0;
};

// ------------------------------------------------------------------ Mlp ----

std::vector<double> random_vector(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.next_gaussian();
  return v;
}

class MlpBatchEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MlpBatchEquivalence, ForwardColumnsEqualSingleSampleForward) {
  const std::size_t n = GetParam();
  Rng init(41);
  Mlp net({5, 16, 12, 3}, init);
  Rng ref_init(41);
  RefMlp ref({5, 16, 12, 3}, ref_init);
  Rng rng(n);
  const std::vector<double> x = random_vector(rng, 5 * n);  // feature-major
  Mlp::Cache cache;
  const std::vector<double> out = net.forward_batch(x, n, cache);
  ASSERT_EQ(out.size(), 3 * n);
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> xs(5), col(3);
    for (std::size_t f = 0; f < 5; ++f) xs[f] = x[f * n + s];
    for (std::size_t o = 0; o < 3; ++o) col[o] = out[o * n + s];
    expect_same_bits(col, net.forward(xs), "forward column");
    expect_same_bits(col, ref.forward(xs), "reference forward");
  }
}

TEST_P(MlpBatchEquivalence, BackwardEqualsSequentialSingleSampleBackward) {
  const std::size_t n = GetParam();
  Rng init_a(43), init_b(43), init_r(43);
  Mlp batched({4, 9, 7, 2}, init_a);
  Mlp single({4, 9, 7, 2}, init_b);
  RefMlp ref({4, 9, 7, 2}, init_r);
  Rng rng(100 + n);
  const std::vector<double> x = random_vector(rng, 4 * n);
  const std::vector<double> dout = random_vector(rng, 2 * n);
  const double scale = 1.0 / 3.0;

  Mlp::Cache cache;
  Mlp::Scratch scratch;
  batched.forward_batch(x, n, cache);
  const std::vector<double> din = batched.backward_batch(cache, dout, scale, scratch);
  ASSERT_EQ(din.size(), 4 * n);

  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> xs(4), ds(2), dins(4);
    for (std::size_t f = 0; f < 4; ++f) xs[f] = x[f * n + s];
    for (std::size_t o = 0; o < 2; ++o) ds[o] = dout[o * n + s];
    for (std::size_t f = 0; f < 4; ++f) dins[f] = din[f * n + s];
    Mlp::Cache c;
    single.forward_cached(xs, c);
    expect_same_bits(dins, single.backward(c, ds, scale), "input gradient");
    RefMlp::Cache rc;
    ref.forward_cached(xs, rc);
    expect_same_bits(dins, ref.backward(rc, ds, scale), "reference input gradient");
  }
  expect_same_bits(batched.gradients(), single.gradients(), "parameter gradients");
  expect_same_bits(batched.gradients(), ref.gradients(), "reference parameter gradients");
}

TEST_P(MlpBatchEquivalence, BackwardWithoutParamGradsOnlyPropagates) {
  const std::size_t n = GetParam();
  Rng init_a(47), init_b(47);
  Mlp a({3, 8, 1}, init_a), b({3, 8, 1}, init_b);
  Rng rng(200 + n);
  const std::vector<double> x = random_vector(rng, 3 * n);
  const std::vector<double> dout(n, -1.0);
  Mlp::Cache ca, cb;
  Mlp::Scratch sa, sb;
  a.forward_batch(x, n, ca);
  b.forward_batch(x, n, cb);
  const std::vector<double> with = a.backward_batch(ca, dout, 0.25, sa, true);
  const std::vector<double> without = b.backward_batch(cb, dout, 0.25, sb, false);
  expect_same_bits(with, without, "input gradient");
  for (double g : b.gradients()) ASSERT_EQ(bits(g), bits(0.0));
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, MlpBatchEquivalence,
                         ::testing::Values(1u, 2u, 3u, 5u, 64u));

TEST(MlpBatch, ReluKeepsTheSignOfAZeroSum) {
  // `sum < 0 ? 0 : sum` leaves a -0.0 sum as -0.0. It only shows when a
  // -0.0 bias meets it downstream: -0.0 + 1*(-0.0) is -0.0, -0.0 + 1*(+0.0)
  // is +0.0. Three samples cover the two-lane path and the scalar tail.
  Rng rng(1);
  Mlp net({1, 1, 1}, rng);
  net.parameters() = {1.0, -0.0, 1.0, -0.0};
  Mlp::Cache cache;
  const std::vector<double> out = net.forward_batch(std::vector<double>(3, -0.0), 3, cache);
  for (double v : out) EXPECT_EQ(bits(v), bits(-0.0));
  EXPECT_EQ(bits(net.forward({-0.0})[0]), bits(-0.0));
  EXPECT_EQ(bits(net.forward({-1.0})[0]), bits(0.0));  // clamped: -0.0 + 1*(+0.0)
}

TEST(MlpBatch, RejectsMismatchedBlocks) {
  Rng rng(1);
  Mlp net({3, 4, 2}, rng);
  Mlp::Cache cache;
  Mlp::Scratch scratch;
  EXPECT_THROW(net.forward_batch(std::vector<double>(5), 2, cache), std::invalid_argument);
  EXPECT_THROW(net.backward_batch(cache, std::vector<double>(4), 1.0, scratch),
               std::invalid_argument);  // no forward pass yet
  net.forward_batch(std::vector<double>(6), 2, cache);
  EXPECT_THROW(net.backward_batch(cache, std::vector<double>(3), 1.0, scratch),
               std::invalid_argument);
}

// ------------------------------------------------------------------ SAC ----

struct SacCase {
  const char* name;
  std::vector<int> hidden;
  int action_dim;
  std::size_t batch;
  std::size_t transitions;  ///< stored before the first update
  std::uint64_t seed;
  int updates;
};

void PrintTo(const SacCase& c, std::ostream* os) { *os << c.name; }

class SacBatchEquivalence : public ::testing::TestWithParam<SacCase> {};

TEST_P(SacBatchEquivalence, MatchesPerSampleReferenceBitForBit) {
  const SacCase& tc = GetParam();
  SacConfig cfg;
  cfg.hidden = tc.hidden;
  cfg.action_dim = tc.action_dim;
  cfg.target_entropy = -static_cast<double>(tc.action_dim);
  cfg.batch_size = tc.batch;
  cfg.min_buffer_for_update = std::min<std::size_t>(tc.transitions, 50);
  cfg.seed = tc.seed;
  SacAgent agent(cfg);
  RefSac ref(cfg);

  // A synthetic stream: every fifth transition is terminal.
  Rng env(tc.seed * 7919 + 1);
  const auto transition = [&](std::size_t i) {
    Transition t;
    t.state = random_vector(env, cfg.state_dim);
    for (int d = 0; d < cfg.action_dim; ++d) t.action.push_back(env.next_double() * 2 - 1);
    t.reward = env.next_gaussian();
    t.next_state = random_vector(env, cfg.state_dim);
    t.done = i % 5 == 4;
    return t;
  };
  const auto store = [&](const Transition& t) {
    agent.observe(t.state, t.action, t.reward, t.next_state, t.done);
    ref.observe(t);
  };
  for (std::size_t i = 0; i < tc.transitions; ++i) store(transition(i));

  const std::vector<std::vector<double>> probes = {
      {0.5, 0.6, 0.3}, {-1.0, 0.2, 2.5}, {0.0, 0.0, 0.0}};
  for (int u = 0; u < tc.updates; ++u) {
    agent.update(1);
    ref.update(1);
    ASSERT_EQ(bits(agent.last_critic_loss()), bits(ref.last_critic_loss())) << "update " << u;
    ASSERT_EQ(bits(agent.last_actor_loss()), bits(ref.last_actor_loss())) << "update " << u;
    ASSERT_EQ(bits(agent.alpha()), bits(ref.alpha())) << "update " << u;
    // Interleave acting and storing as PP-M does between updates.
    if (u % 3 == 2) {
      expect_same_bits(agent.act(probes[u % probes.size()], false),
                       ref.act(probes[u % probes.size()], false), "stochastic act");
      store(transition(tc.transitions + static_cast<std::size_t>(u)));
    }
  }
  for (const auto& s : probes) {
    const std::vector<double> a = agent.act(s, true);
    expect_same_bits(a, ref.act(s, true), "deterministic act");
    ASSERT_EQ(bits(agent.q_value(s, a)), bits(ref.q_value(s, a)));
  }
  // Same RNG stream position: the next stochastic draw agrees too.
  expect_same_bits(agent.act(probes[0], false), ref.act(probes[0], false), "stochastic act");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SacBatchEquivalence,
    ::testing::Values(SacCase{"Paper", {64, 64}, 1, 64, 200, 7, 12},
                      SacCase{"PaperSeed2", {64, 64}, 1, 64, 120, 2, 8},
                      SacCase{"BufferSmallerThanBatch50", {64, 64}, 1, 64, 50, 3, 6},
                      SacCase{"BufferSmallerThanBatch63", {64, 64}, 1, 64, 63, 11, 6},
                      SacCase{"ActionDim2", {64, 64}, 2, 64, 150, 5, 8},
                      SacCase{"Hidden8", {8}, 1, 32, 90, 13, 20},
                      SacCase{"Hidden16x3", {16, 16, 16}, 2, 16, 80, 17, 20}),
    [](const ::testing::TestParamInfo<SacCase>& info) { return info.param.name; });

}  // namespace
}  // namespace mtat
