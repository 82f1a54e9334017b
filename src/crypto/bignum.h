// Arbitrary-precision unsigned integers, sized for RSA-768..RSA-2048.
// Bignum stores little-endian 32-bit limbs, always normalized (no high
// zero limbs); Montgomery exponentiation runs on 64-bit limbs.
#ifndef SRC_CRYPTO_BIGNUM_H_
#define SRC_CRYPTO_BIGNUM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/prng.h"

namespace avm {

class Bignum {
 public:
  Bignum() = default;
  explicit Bignum(uint64_t v);

  // Big-endian byte import/export (the usual crypto wire order).
  static Bignum FromBytes(ByteView be);
  // Exports exactly `len` big-endian bytes (throws if the value is larger).
  Bytes ToBytes(size_t len) const;
  // Exports the minimal big-endian representation (empty for zero).
  Bytes ToBytes() const;

  static Bignum FromHex(std::string_view hex);
  std::string ToHex() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  size_t BitLength() const;
  bool Bit(size_t i) const;
  uint64_t LowU64() const;

  // Comparison: -1, 0, +1.
  static int Cmp(const Bignum& a, const Bignum& b);
  bool operator==(const Bignum& o) const { return Cmp(*this, o) == 0; }
  bool operator!=(const Bignum& o) const { return Cmp(*this, o) != 0; }
  bool operator<(const Bignum& o) const { return Cmp(*this, o) < 0; }
  bool operator<=(const Bignum& o) const { return Cmp(*this, o) <= 0; }
  bool operator>(const Bignum& o) const { return Cmp(*this, o) > 0; }
  bool operator>=(const Bignum& o) const { return Cmp(*this, o) >= 0; }

  static Bignum Add(const Bignum& a, const Bignum& b);
  // Requires a >= b.
  static Bignum Sub(const Bignum& a, const Bignum& b);
  static Bignum Mul(const Bignum& a, const Bignum& b);
  // Quotient and remainder; throws on division by zero.
  static void DivMod(const Bignum& a, const Bignum& b, Bignum* q, Bignum* r);
  static Bignum Mod(const Bignum& a, const Bignum& m);

  static Bignum Shl(const Bignum& a, size_t bits);
  static Bignum Shr(const Bignum& a, size_t bits);

  // (a * b) mod m.
  static Bignum MulMod(const Bignum& a, const Bignum& b, const Bignum& m);
  // (base ^ exp) mod m. m must be > 0.
  static Bignum PowMod(const Bignum& base, const Bignum& exp, const Bignum& m);
  // gcd(a, b).
  static Bignum Gcd(Bignum a, Bignum b);
  // Modular inverse of a mod m; throws if gcd(a, m) != 1.
  static Bignum InvMod(const Bignum& a, const Bignum& m);

  // Builds a value directly from little-endian 32-bit limbs.
  static Bignum FromLimbs(std::vector<uint32_t> limbs);

  // Uniform random value with exactly `bits` bits (MSB set).
  static Bignum RandomWithBits(Prng& rng, size_t bits);
  // Uniform random value in [2, limit-2] (for Miller-Rabin bases).
  static Bignum RandomBelow(Prng& rng, const Bignum& limit);

  // Miller-Rabin probabilistic primality test with `rounds` random bases.
  static bool IsProbablePrime(const Bignum& n, Prng& rng, int rounds = 24);
  // Generates a random prime with exactly `bits` bits.
  static Bignum GeneratePrime(Prng& rng, size_t bits);

  const std::vector<uint32_t>& limbs() const { return limbs_; }

 private:
  void Normalize();

  std::vector<uint32_t> limbs_;
};

// Montgomery arithmetic context for an odd multi-limb modulus.
// Exponentiation via REDC avoids one long division per modular
// multiplication, which is the difference between RSA signing being a
// per-packet cost the AVMM can afford and one it cannot (§6.8).
//
// The kernel works on 64-bit limbs with unsigned __int128 partial
// products, a quarter of the limb multiplies of the same work over
// Bignum's 32-bit limbs. It interleaves multiplication and reduction
// column by column (finely integrated product scanning), summing each
// column in a three-limb accumulator, and squarings compute each cross
// product once. Values cross between the two limb widths only at PowMod
// entry and exit.
//
// The kernel is one source instantiated at two compile-time widths,
// RSA-768's CRT halves (6 limbs) and its modulus (12 limbs), where the
// loops unroll fully and the exponentiation scratch (quotient digits,
// accumulator, power table) lives on the stack; every other width runs
// the same source at the runtime width, with one scratch allocation per
// PowMod. RSA-2048 stays on the runtime width: 16- and 32-limb
// instantiations measured no faster to sign or verify (within 2%) and
// only added code.
//
// Timing: the kernel makes no constant-time claim. The sliding window
// skips zero bits, so the number of multiplies depends on the exponent,
// as the fixed window's skipped zero windows did before it, and the
// final subtraction is data-dependent.
//
// Building a context costs one long division (for R^2 mod m), so hot
// paths construct it once per key and reuse it across PowMod calls
// (RsaPrivateKey/RsaPublicKey cache one per modulus). A constructed
// context is immutable: concurrent PowMod calls on the same context are
// safe, which is what lets the async signing pipeline share a key with
// the caller thread.
class Montgomery {
 public:
  // m must be odd and at least two 32-bit limbs (all RSA moduli qualify).
  explicit Montgomery(const Bignum& m);

  // (base ^ exp) mod m. The exponent's bit length picks the method:
  // below kWindowMinBits, left-to-right square-and-multiply; from there
  // on, a kWindowBits-bit sliding window over a table of the 16 odd
  // powers b^1..b^31 (about bits/6 multiplies instead of bits/2). An RSA
  // verify with e = 65537 thus costs 16 squarings and one multiply.
  Bignum PowMod(const Bignum& base, const Bignum& exp) const;

  static constexpr size_t kWindowBits = 5;
  // Break-even of the window table against square-and-multiply for an
  // exponent with random bits: 16 + b/6 products against b/2.
  static constexpr size_t kWindowMinBits = 48;

 private:
  using Limb = uint64_t;

  // out = a * b * R^-1 mod m, R = 2^(64 n), for a, b < m; with kSquare,
  // b is ignored and a * a is taken with each cross product computed
  // once. out may alias a or b; u is n limbs of scratch. kN is the width
  // n fixed at compile time, or 0 for the runtime n_.
  template <bool kSquare, size_t kN>
  void Product(const Limb* a, const Limb* b, Limb* out, Limb* u) const;

  // PowMod at width kN (0: the runtime n_).
  template <size_t kN>
  Bignum PowModN(const Bignum& base, const Bignum& exp) const;

  Bignum modulus_;
  std::vector<Limb> m_;
  size_t n_ = 0;
  Limb minv_ = 0;         // -m^-1 mod 2^64.
  std::vector<Limb> r2_;  // R^2 mod m.
};

}  // namespace avm

#endif  // SRC_CRYPTO_BIGNUM_H_
