// Walker alias method: O(1) sampling from an arbitrary discrete distribution.
//
// Used by the BE workload engine to draw telemetry samples from a kernel's
// page-access profile at simulation time (hundreds of thousands of draws per
// simulated second, so O(log n) inversion sampling would dominate the run).
//
// Draws come in blocks (draw()): a block's random numbers are drawn first,
// in exactly the per-sample order, while its table columns are prefetched;
// the columns are then resolved in a second pass, so the table's cache
// misses overlap instead of stalling one draw at a time. The one-sample
// operator() is the n = 1 case of the same code.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.h"

namespace mtat {

class AliasSampler {
 public:
  /// Builds the alias table from (unnormalized, non-negative) weights.
  /// At least one weight must be positive.
  explicit AliasSampler(const std::vector<double>& weights) {
    const std::size_t n = weights.size();
    if (n == 0) throw std::invalid_argument("AliasSampler: empty weights");
    double total = 0.0;
    for (double w : weights) {
      if (w < 0.0) throw std::invalid_argument("AliasSampler: negative weight");
      total += w;
    }
    if (total <= 0.0) throw std::invalid_argument("AliasSampler: all weights zero");
    prob_.resize(n);
    alias_.resize(n);
    // Scale to mean 1 and split into under/over-full columns.
    std::vector<double> scaled(n);
    std::vector<std::uint32_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s = small.back();
      small.pop_back();
      const std::uint32_t l = large.back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::uint32_t i : large) prob_[i] = 1.0;
    for (std::uint32_t i : small) prob_[i] = 1.0;  // numerical leftovers
    for (std::size_t i = 0; i < n; ++i)
      if (prob_[i] >= 1.0) alias_[i] = static_cast<std::uint32_t>(i);
  }

  /// Draws per block of draw(): the random numbers and prefetches of up to
  /// this many samples are in flight before the first column is resolved.
  static constexpr std::size_t kBlock = 64;

  /// Draw one index distributed according to the weights.
  std::uint32_t operator()(Rng& rng) const {
    std::uint32_t out;
    draw(rng, &out, 1);
    return out;
  }

  /// Fill out[0, n) with n draws, bit-identical to n calls of operator() and
  /// leaving `rng` at the same position: each sample takes next_below (its
  /// column), then next_double (the coin against the column's probability).
  void draw(Rng& rng, std::uint32_t* out, std::size_t n) const {
    double coin[kBlock] = {};
    while (n > 0) {
      const std::size_t m = n < kBlock ? n : kBlock;
      for (std::size_t i = 0; i < m; ++i) {
        const auto col = static_cast<std::uint32_t>(rng.next_below(prob_.size()));
        coin[i] = rng.next_double();
        out[i] = col;
        __builtin_prefetch(prob_.data() + col);
        __builtin_prefetch(alias_.data() + col);
      }
      for (std::size_t i = 0; i < m; ++i) {
        const std::uint32_t col = out[i];
        const std::uint32_t alias = alias_[col];
        // Branch-free select: the coin is unpredictable by construction, so a
        // branch here would mispredict on a large share of draws.
        const std::uint32_t keep = 0u - static_cast<std::uint32_t>(coin[i] < prob_[col]);
        out[i] = alias ^ ((col ^ alias) & keep);
      }
      out += m;
      n -= m;
    }
  }

  std::size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace mtat
