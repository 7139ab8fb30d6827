#include "rl/sac.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "faults/fault_injector.h"
#include "obs/names.h"

namespace mtat {
namespace {

constexpr double kLogStdMin = -5.0;
constexpr double kLogStdMax = 2.0;
constexpr double kTanhEps = 1e-6;
constexpr double kHalfLog2Pi = 0.9189385332046727;  // 0.5 * log(2*pi)

std::vector<int> net_sizes(int in, const std::vector<int>& hidden, int out) {
  // Appended element-wise rather than via insert(range): GCC 12 with
  // -fsanitize=undefined false-positives -Warray-bounds on the memmove
  // inlined out of vector range-insert.
  std::vector<int> s;
  s.reserve(hidden.size() + 2);
  s.push_back(in);
  for (int h : hidden) s.push_back(h);
  s.push_back(out);
  return s;
}

}  // namespace

SacAgent::SacAgent(const SacConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      actor_(net_sizes(cfg.state_dim, cfg.hidden, 2 * cfg.action_dim), rng_),
      q1_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
      q2_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
      q1_target_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
      q2_target_(net_sizes(cfg.state_dim + cfg.action_dim, cfg.hidden, 1), rng_),
      log_alpha_(std::log(cfg.init_alpha)),
      buffer_(cfg.buffer_capacity) {
  if (cfg.state_dim <= 0 || cfg.action_dim <= 0)
    throw std::invalid_argument("SacAgent: bad dimensions");
  q1_target_.copy_parameters_from(q1_);
  q2_target_.copy_parameters_from(q2_);
}

double SacAgent::alpha() const { return std::exp(log_alpha_); }

std::vector<double> SacAgent::concat(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

void SacAgent::sample_policy(const std::vector<double>& head, std::size_t n) {
  const std::size_t dim = cfg_.action_dim;
  ws_.action.resize(dim * n);
  ws_.log_std.resize(dim * n);
  ws_.eps.resize(dim * n);
  ws_.log_prob.assign(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < dim; ++d) {
      const std::size_t k = d * n + s;
      const double log_std = std::clamp(head[(dim + d) * n + s], kLogStdMin, kLogStdMax);
      const double eps = rng_.next_gaussian();
      const double raw = head[k] + std::exp(log_std) * eps;
      const double a = std::tanh(raw);
      ws_.log_std[k] = log_std;
      ws_.eps[k] = eps;
      ws_.action[k] = a;
      // log N(raw; mean, sigma) with raw = mean + sigma*eps, minus the tanh
      // change-of-variables correction.
      ws_.log_prob[s] += -0.5 * eps * eps - log_std - kHalfLog2Pi -
                         std::log(1.0 - a * a + kTanhEps);
    }
  }
}

std::vector<double> SacAgent::act(const std::vector<double>& state, bool deterministic) {
  const std::vector<double>& head = actor_.forward_batch(state, 1, ws_.actor);
  std::vector<double> out(cfg_.action_dim);
  if (deterministic) {
    for (int d = 0; d < cfg_.action_dim; ++d) out[d] = std::tanh(head[d]);
  } else {
    sample_policy(head, 1);
    std::copy(ws_.action.begin(), ws_.action.end(), out.begin());
  }
  if (faults_ != nullptr) {
    // Injected policy pathology: the action the caller sees is replaced by
    // all-NaN or an off-manifold divergent vector. The network itself stays
    // healthy — this models a corrupted inference result, and it is the
    // caller's (PP-M's) job to survive it.
    switch (faults_->action_fault()) {
      case faults::FaultInjector::ActionFault::kNone:
        break;
      case faults::FaultInjector::ActionFault::kNaN:
        std::fill(out.begin(), out.end(), std::numeric_limits<double>::quiet_NaN());
        actions_corrupted_c_->inc();
        break;
      case faults::FaultInjector::ActionFault::kDivergent:
        for (std::size_t d = 0; d < out.size(); ++d) out[d] = d % 2 == 0 ? 1e6 : -1e6;
        actions_corrupted_c_->inc();
        break;
    }
  }
  return out;
}

namespace {
bool all_finite(const std::vector<double>& v) {
  for (double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}
}  // namespace

void SacAgent::observe(const std::vector<double>& state, const std::vector<double>& action,
                       double reward, const std::vector<double>& next_state, bool done) {
  // Non-finite transitions are rejected outright rather than clamped: one NaN
  // reward or corrupted action in the buffer would poison every later
  // gradient batch that samples it. Healthy runs never produce one, so this
  // guard is behaviour-neutral outside fault injection.
  if (!std::isfinite(reward) || !all_finite(state) || !all_finite(action) ||
      !all_finite(next_state)) {
    if (rejected_c_ != nullptr) rejected_c_->inc();
    return;
  }
  buffer_.store(Transition{state, action, reward, next_state, done});
}

double SacAgent::q_value(const std::vector<double>& state,
                         const std::vector<double>& action) const {
  const std::vector<double> in = concat(state, action);
  return std::min(q1_.forward(in)[0], q2_.forward(in)[0]);
}

void SacAgent::update(int steps) {
  if (!ready_to_update()) return;
  for (int i = 0; i < steps; ++i) update_once();
  if (updates_c_ != nullptr) {
    updates_c_->inc(steps);
    critic_loss_g_->set(last_critic_loss_);
    actor_loss_g_->set(last_actor_loss_);
    alpha_g_->set(alpha());
    if (trace_ != nullptr)
      trace_->instant(obs::names::kEvRlUpdate, obs::names::kCatRl, "critic_loss",
                      last_critic_loss_, "actor_loss", last_actor_loss_);
  }
}

void SacAgent::set_run_context(obs::RunContext* ctx) {
  if (ctx == nullptr) {
    updates_c_ = nullptr;
    critic_loss_g_ = actor_loss_g_ = alpha_g_ = nullptr;
    rejected_c_ = nullptr;
    trace_ = nullptr;
    faults_ = nullptr;
    actions_corrupted_c_ = nullptr;
    return;
  }
  obs::MetricsRegistry& reg = ctx->metrics();
  updates_c_ = &reg.counter(obs::names::kRlUpdates);
  critic_loss_g_ = &reg.gauge(obs::names::kRlCriticLoss);
  actor_loss_g_ = &reg.gauge(obs::names::kRlActorLoss);
  alpha_g_ = &reg.gauge(obs::names::kRlAlpha);
  rejected_c_ = &reg.counter(obs::names::kRlRejectedTransitions);
  trace_ = &ctx->trace();
  faults_ = ctx->faults();
  if (faults_ != nullptr)
    actions_corrupted_c_ = &reg.counter(obs::names::kFaultRlActionsCorrupted);
}

void SacAgent::update_once() {
  // Every phase runs its minibatch through the networks in one batched pass.
  // The arithmetic per sample, and the order of the RNG draws (replay
  // indices, then one Gaussian per action dimension of each live sample in
  // the critic phase, then of each sample in the actor phase), are those of
  // a one-sample-at-a-time loop, so the result is the same bit for bit
  // (DESIGN.md §14.5).
  Workspace& w = ws_;
  if (updates_ == 0) {
    // Size the workspace for a full minibatch up front: while the buffer
    // fills toward batch_size, each update's batch is one sample larger and
    // would otherwise regrow (and fragment) every buffer.
    const std::size_t most = std::min(cfg_.batch_size, cfg_.buffer_capacity);
    actor_.reserve(most, w.actor, w.scratch);
    q1_.reserve(most, w.critic, w.scratch);
  }
  const std::size_t batch = std::min(cfg_.batch_size, buffer_.size());
  const double inv_b = 1.0 / static_cast<double>(batch);
  const double alpha = this->alpha();
  const std::size_t sdim = cfg_.state_dim;
  const std::size_t dim = cfg_.action_dim;
  w.samples.resize(batch);
  for (auto& s : w.samples) s = &buffer_.sample(rng_);

  // --- Critic update: y = r + gamma(1-done)(min Q'(s',a') - alpha log pi) ---
  w.live.clear();
  for (std::size_t s = 0; s < batch; ++s)
    if (!w.samples[s]->done) w.live.push_back(s);
  const std::size_t nl = w.live.size();
  // Input block [s'; a'] of the live samples: states first, then the
  // policy's actions appended as the last action_dim rows.
  w.input.resize((sdim + dim) * nl);
  for (std::size_t j = 0; j < nl; ++j)
    for (std::size_t f = 0; f < sdim; ++f)
      w.input[f * nl + j] = w.samples[w.live[j]]->next_state[f];
  sample_policy(actor_.forward_batch({w.input.data(), sdim * nl}, nl, w.actor), nl);
  std::copy(w.action.begin(), w.action.end(), w.input.begin() + sdim * nl);
  w.q1 = q1_target_.forward_batch(w.input, nl, w.critic);
  const std::vector<double>& q2t = q2_target_.forward_batch(w.input, nl, w.critic);
  w.y.resize(batch);
  for (std::size_t s = 0; s < batch; ++s) w.y[s] = w.samples[s]->reward;
  for (std::size_t j = 0; j < nl; ++j)
    w.y[w.live[j]] += cfg_.gamma * (std::min(w.q1[j], q2t[j]) - alpha * w.log_prob[j]);

  // Input block [s; a] of the whole batch. Its first state_dim rows double
  // as the actor's input block in the actor phase.
  w.input.resize((sdim + dim) * batch);
  for (std::size_t s = 0; s < batch; ++s) {
    const Transition& t = *w.samples[s];
    for (std::size_t f = 0; f < sdim; ++f) w.input[f * batch + s] = t.state[f];
    for (std::size_t d = 0; d < dim; ++d) w.input[(sdim + d) * batch + s] = t.action[d];
  }
  w.dout.resize(batch);
  w.q1 = q1_.forward_batch(w.input, batch, w.critic);
  for (std::size_t s = 0; s < batch; ++s) w.dout[s] = 2.0 * (w.q1[s] - w.y[s]);
  q1_.backward_batch(w.critic, w.dout, inv_b, w.scratch);
  w.q2 = q2_.forward_batch(w.input, batch, w.critic);
  for (std::size_t s = 0; s < batch; ++s) w.dout[s] = 2.0 * (w.q2[s] - w.y[s]);
  q2_.backward_batch(w.critic, w.dout, inv_b, w.scratch);
  double critic_loss = 0.0;
  for (std::size_t s = 0; s < batch; ++s) {
    const double e1 = w.q1[s] - w.y[s], e2 = w.q2[s] - w.y[s];
    critic_loss += (e1 * e1 + e2 * e2) * inv_b;
  }
  q1_.adam_step(cfg_.critic_lr);
  q2_.adam_step(cfg_.critic_lr);
  last_critic_loss_ = critic_loss;

  // --- Actor update: minimize alpha*log pi - min Q(s, a(s)) ----------------
  const std::vector<double>& head =
      actor_.forward_batch({w.input.data(), sdim * batch}, batch, w.actor);
  sample_policy(head, batch);
  std::copy(w.action.begin(), w.action.end(), w.input.begin() + sdim * batch);
  // dL/da through each critic (dout = -1, mean-scaled); only the input
  // gradient is needed, the critics already took their step this round.
  w.dout.assign(batch, -1.0);
  const auto action_grad = [&](Mlp& q, std::vector<double>& qv, std::vector<double>& dq) {
    qv = q.forward_batch(w.input, batch, w.critic);
    const std::vector<double>& din = q.backward_batch(w.critic, w.dout, inv_b, w.scratch, false);
    dq.assign(din.begin() + sdim * batch, din.end());
  };
  action_grad(q1_, w.q1, w.dq1);
  action_grad(q2_, w.q2, w.dq2);
  double actor_loss = 0.0;
  double mean_log_prob = 0.0;
  // Gradients w.r.t. the actor head [mean..., log_std...].
  w.dhead.assign(2 * dim * batch, 0.0);
  for (std::size_t s = 0; s < batch; ++s) {
    const double q1v = w.q1[s], q2v = w.q2[s];
    actor_loss += (alpha * w.log_prob[s] - std::min(q1v, q2v)) * inv_b;
    mean_log_prob += w.log_prob[s] * inv_b;
    // The gradient flows through the smaller critic.
    const std::vector<double>& dq = q1v <= q2v ? w.dq1 : w.dq2;
    for (std::size_t d = 0; d < dim; ++d) {
      const std::size_t k = d * batch + s;
      const double a = w.action[k];
      const double one_m_a2 = 1.0 - a * a;
      // d(log pi)/d(raw): only the tanh correction depends on raw given eps.
      const double dlogp_draw = 2.0 * a * one_m_a2 / (one_m_a2 + kTanhEps);
      const double g_raw = dq[k] * one_m_a2 + (alpha * inv_b) * dlogp_draw;
      w.dhead[k] = g_raw;  // d raw / d mean = 1
      // d raw / d log_std = sigma * eps; d(log pi)/d log_std also has the -1
      // from the Gaussian entropy term. Zero where the clamp was active.
      const bool clamped = w.log_std[k] <= kLogStdMin || w.log_std[k] >= kLogStdMax;
      if (!clamped)
        w.dhead[(dim + d) * batch + s] =
            g_raw * std::exp(w.log_std[k]) * w.eps[k] - (alpha * inv_b);
    }
  }
  actor_.backward_batch(w.actor, w.dhead, 1.0, w.scratch);
  actor_.adam_step(cfg_.actor_lr);
  last_actor_loss_ = actor_loss;

  // --- Temperature update: d/dlogalpha of -logalpha*(logpi + target_H) -----
  const double g_alpha = -(mean_log_prob + cfg_.target_entropy);
  ++alpha_t_;
  alpha_m_ = 0.9 * alpha_m_ + 0.1 * g_alpha;
  alpha_v_ = 0.999 * alpha_v_ + 0.001 * g_alpha * g_alpha;
  const double m_hat = alpha_m_ / (1.0 - std::pow(0.9, static_cast<double>(alpha_t_)));
  const double v_hat = alpha_v_ / (1.0 - std::pow(0.999, static_cast<double>(alpha_t_)));
  log_alpha_ -= cfg_.alpha_lr * m_hat / (std::sqrt(v_hat) + 1e-8);

  // --- Target networks -------------------------------------------------------
  q1_target_.soft_update_from(q1_, cfg_.tau);
  q2_target_.soft_update_from(q2_, cfg_.tau);
  ++updates_;
}

}  // namespace mtat
