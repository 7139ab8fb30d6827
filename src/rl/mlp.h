// Minimal dense neural network with manual backpropagation and Adam.
//
// This is the substrate under the Soft Actor-Critic agent of PP-M (the paper
// implements PP-M in PyTorch; we implement the same few-thousand-parameter
// MLPs from scratch — see DESIGN.md §1). Double precision, ReLU hidden
// layers, linear output. Gradients accumulate into per-parameter buffers so a
// caller can sum several loss terms before one optimizer step; correctness is
// pinned by numerical-gradient tests in tests/rl_test.cc.
//
// Every pass is batched: a minibatch of n samples goes through the network
// at once, stored feature-major (x[f * n + s] is feature f of sample s). The
// single-sample calls are the n = 1 case of the same kernel. Each output is
// the per-sample sum in the same order a one-sample-at-a-time loop would use,
// and parameter gradients accumulate in sample order, so a batch of n equals
// n sequential single-sample passes bit for bit (DESIGN.md §14.5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace mtat {

class Mlp {
 public:
  /// `sizes` = {in, hidden..., out}. Weights use He initialization.
  Mlp(std::vector<int> sizes, Rng& rng);

  /// Activations of one batched forward pass, kept for backward().
  struct Cache {
    std::size_t n = 0;                             // samples in the pass
    std::vector<std::vector<double>> activations;  // a[0]=input .. a[L]=output
  };

  /// backward_batch()'s working buffers. Reusable across calls and across
  /// networks; they only grow, so a reused Scratch stops allocating.
  struct Scratch {
    std::vector<double> delta, dprev, input_t;
  };

  /// Plain inference.
  std::vector<double> forward(const std::vector<double>& x) const;

  /// Forward pass retaining intermediates for a subsequent backward().
  std::vector<double> forward_cached(const std::vector<double>& x, Cache& cache) const;

  /// Backpropagate dLoss/dOutput for the forward pass recorded in `cache`.
  /// Accumulates parameter gradients (scaled by `scale`, e.g. 1/batch) and
  /// returns dLoss/dInput — needed by SAC's actor update, which differentiates
  /// the critic with respect to the action.
  std::vector<double> backward(const Cache& cache, const std::vector<double>& dout,
                               double scale = 1.0);

  /// Forward pass over `n` samples, `x` feature-major (input_dim() x n).
  /// Returns the output block (output_dim() x n, feature-major), which lives
  /// in `cache` until its next forward pass.
  const std::vector<double>& forward_batch(std::span<const double> x, std::size_t n,
                                           Cache& cache) const;

  /// Backward pass over the batch recorded in `cache`; `dout` is
  /// output_dim() x n, feature-major. With `param_grads`, accumulates each
  /// sample's parameter gradients (scaled by `scale`) in sample order;
  /// without, leaves the gradients untouched and only propagates. Returns
  /// dLoss/dInput (input_dim() x n, feature-major, scaled by `scale`), held
  /// in `scratch` until its next use.
  const std::vector<double>& backward_batch(const Cache& cache, std::span<const double> dout,
                                            double scale, Scratch& scratch,
                                            bool param_grads = true);

  /// Size `cache` and `scratch` for batches of up to `n` samples, so passes
  /// of that size or smaller allocate nothing.
  void reserve(std::size_t n, Cache& cache, Scratch& scratch) const;

  /// One Adam step over the accumulated gradients, then zero them.
  void adam_step(double lr, double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  void zero_grad();

  /// Hard-copy parameters (target-network initialization).
  void copy_parameters_from(const Mlp& other);
  /// Polyak update: p = tau * other + (1 - tau) * p.
  void soft_update_from(const Mlp& other, double tau);

  int input_dim() const { return sizes_.front(); }
  int output_dim() const { return sizes_.back(); }
  std::size_t parameter_count() const { return params_.size(); }

  /// Raw parameter access for tests (weights then biases, layer by layer).
  std::vector<double>& parameters() { return params_; }
  const std::vector<double>& parameters() const { return params_; }
  const std::vector<double>& gradients() const { return grads_; }

 private:
  struct Layer {
    std::size_t w_off;  // into params_: out x in row-major weights
    std::size_t b_off;  // then out biases
    int in, out;
  };

  std::vector<int> sizes_;
  std::vector<Layer> layers_;
  std::vector<double> params_;
  std::vector<double> grads_;
  std::vector<double> adam_m_, adam_v_;
  std::uint64_t adam_t_ = 0;
};

}  // namespace mtat
