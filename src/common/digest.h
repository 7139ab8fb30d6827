// FNV-1a digests over the bit patterns of simulated outputs.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace mtat {

/// 64-bit FNV-1a, fed little-endian. Doubles are hashed by bit pattern, so
/// two digests agree only if every value they cover is bit-identical — the
/// check that catches a change a golden CSV printed to ten digits cannot.
class Fnv1a {
 public:
  void add_bits(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add_bits(bits);
  }
  /// Length first, so {a, b} and {a} followed by {b} digest differently.
  void add(const std::vector<double>& v) {
    add_bits(v.size());
    for (const double x : v) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

}  // namespace mtat
