// Soft Actor-Critic (Haarnoja et al. 2018), the RL algorithm of PP-M's
// Algorithm 1: twin Q-networks with Polyak-averaged targets, a tanh-squashed
// Gaussian policy trained by the reparameterization trick, and automatic
// entropy-temperature tuning.
//
// Actions live in [-1, 1]^dim; the caller (core/ppm) maps them onto the
// paper's admissible range alpha in [-M/2t, +M/2t] (Eq. 1).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "obs/run_context.h"
#include "rl/mlp.h"
#include "rl/replay_buffer.h"

namespace mtat {

struct SacConfig {
  int state_dim = 3;   ///< paper: UsageRatio, AccessRatio, AccessCount
  int action_dim = 1;  ///< paper: scalar FMem delta
  std::vector<int> hidden = {64, 64};
  double actor_lr = 3e-4;
  double critic_lr = 3e-4;
  double alpha_lr = 3e-4;
  double gamma = 0.95;
  double tau = 0.005;             ///< target-network Polyak factor
  double init_alpha = 0.2;        ///< initial entropy temperature
  double target_entropy = -1.0;   ///< default: -action_dim
  std::size_t batch_size = 64;
  std::size_t buffer_capacity = 100'000;
  std::size_t min_buffer_for_update = 50;  ///< paper: update after 50 samples
  std::uint64_t seed = 7;
};

class SacAgent {
 public:
  explicit SacAgent(const SacConfig& cfg);

  /// Sample an action in [-1, 1]^dim. Deterministic mode returns tanh(mean)
  /// (evaluation); stochastic mode draws from the squashed Gaussian.
  std::vector<double> act(const std::vector<double>& state, bool deterministic = false);

  /// Record a transition into the replay buffer. Transitions containing any
  /// non-finite value are rejected (counted as rl.rejected_transitions) —
  /// never clamped into the buffer — so corrupted observations cannot reach
  /// a gradient update.
  void observe(const std::vector<double>& state, const std::vector<double>& action,
               double reward, const std::vector<double>& next_state, bool done);

  bool ready_to_update() const { return buffer_.size() >= cfg_.min_buffer_for_update; }

  /// Run `steps` gradient updates (critic, actor, temperature, targets).
  void update(int steps = 1);

  /// Wire the agent to a run's observability: register training metrics
  /// (update count, losses, temperature) with `ctx`'s registry and record
  /// update events into its trace. nullptr detaches. The context must
  /// outlive the agent (or be detached first).
  void set_run_context(obs::RunContext* ctx);

  double alpha() const;
  std::size_t buffer_size() const { return buffer_.size(); }
  double last_critic_loss() const { return last_critic_loss_; }
  double last_actor_loss() const { return last_actor_loss_; }
  std::uint64_t updates_performed() const { return updates_; }

  /// Q-value estimate min(Q1, Q2)(s, a) — for tests and diagnostics.
  double q_value(const std::vector<double>& state, const std::vector<double>& action) const;

 private:
  /// Buffers reused by every update() and act() call: once grown to the
  /// batch size they stop allocating. One set serves all five networks.
  /// Per-sample quantities are feature-major like the network blocks
  /// (v[f * n + s] is feature f of sample s).
  struct Workspace {
    Mlp::Cache actor, critic;
    Mlp::Scratch scratch;
    std::vector<const Transition*> samples;
    std::vector<std::size_t> live;  // indices of the samples with done == false
    std::vector<double> input;      // network input block
    std::vector<double> y, q1, q2, dout, dq1, dq2, dhead;
    std::vector<double> action, log_std, eps, log_prob;  // sample_policy() output
  };

  /// Squashed-Gaussian policy sample for each of the `n` samples whose actor
  /// head is `head` (2*action_dim x n): draws action_dim Gaussians per sample,
  /// in sample order, and fills ws_.action/log_std/eps/log_prob.
  void sample_policy(const std::vector<double>& head, std::size_t n);
  void update_once();
  static std::vector<double> concat(const std::vector<double>& a, const std::vector<double>& b);

  SacConfig cfg_;
  Rng rng_;
  Mlp actor_;           // state -> [mean..., log_std...]
  Mlp q1_, q2_;         // state+action -> scalar
  Mlp q1_target_, q2_target_;
  double log_alpha_;
  double alpha_m_ = 0.0, alpha_v_ = 0.0;  // Adam state for the temperature
  std::uint64_t alpha_t_ = 0;
  ReplayBuffer buffer_;
  double last_critic_loss_ = 0.0;
  double last_actor_loss_ = 0.0;
  std::uint64_t updates_ = 0;
  Workspace ws_;
  obs::TraceRecorder* trace_ = nullptr;
  faults::FaultInjector* faults_ = nullptr;
  obs::Counter* updates_c_ = nullptr;
  obs::Gauge* critic_loss_g_ = nullptr;
  obs::Gauge* actor_loss_g_ = nullptr;
  obs::Gauge* alpha_g_ = nullptr;
  obs::Counter* rejected_c_ = nullptr;
  obs::Counter* actions_corrupted_c_ = nullptr;  // set iff faults_ != nullptr
};

}  // namespace mtat
