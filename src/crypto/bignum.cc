#include "src/crypto/bignum.h"

#include <algorithm>
#include <stdexcept>

namespace avm {

namespace {
constexpr uint64_t kBase = 1ULL << 32;

// Small primes for trial division before Miller-Rabin.
constexpr uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,  59,  61,  67,
    71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157,
    163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257,
    263, 269, 271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367,
    373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467,
    479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599,
    601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701, 709};
}  // namespace

Bignum::Bignum(uint64_t v) {
  if (v != 0) {
    limbs_.push_back(static_cast<uint32_t>(v));
    if (v >> 32) {
      limbs_.push_back(static_cast<uint32_t>(v >> 32));
    }
  }
}

void Bignum::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

Bignum Bignum::FromBytes(ByteView be) {
  Bignum out;
  size_t n = be.size();
  out.limbs_.resize((n + 3) / 4, 0);
  for (size_t i = 0; i < n; i++) {
    // be[n-1] is the least significant byte.
    size_t byte_idx = n - 1 - i;
    out.limbs_[i / 4] |= static_cast<uint32_t>(be[byte_idx]) << (8 * (i % 4));
  }
  out.Normalize();
  return out;
}

Bytes Bignum::ToBytes() const {
  size_t bits = BitLength();
  return ToBytes((bits + 7) / 8);
}

Bytes Bignum::ToBytes(size_t len) const {
  size_t bits = BitLength();
  size_t need = (bits + 7) / 8;
  if (need > len) {
    throw std::invalid_argument("Bignum::ToBytes: value too large for length");
  }
  Bytes out(len, 0);
  for (size_t i = 0; i < need; i++) {
    uint8_t byte = static_cast<uint8_t>(limbs_[i / 4] >> (8 * (i % 4)));
    out[len - 1 - i] = byte;
  }
  return out;
}

Bignum Bignum::FromHex(std::string_view hex) {
  std::string h(hex);
  if (h.size() % 2 != 0) {
    h.insert(h.begin(), '0');
  }
  return FromBytes(HexDecode(h));
}

std::string Bignum::ToHex() const {
  if (IsZero()) {
    return "0";
  }
  std::string s = HexEncode(ToBytes());
  size_t first = s.find_first_not_of('0');
  return s.substr(first);
}

size_t Bignum::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    bits++;
    top >>= 1;
  }
  return bits;
}

bool Bignum::Bit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 32)) & 1;
}

uint64_t Bignum::LowU64() const {
  uint64_t v = 0;
  if (limbs_.size() > 1) {
    v = static_cast<uint64_t>(limbs_[1]) << 32;
  }
  if (!limbs_.empty()) {
    v |= limbs_[0];
  }
  return v;
}

int Bignum::Cmp(const Bignum& a, const Bignum& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) {
      return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

Bignum Bignum::Add(const Bignum& a, const Bignum& b) {
  Bignum out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; i++) {
    uint64_t s = carry;
    if (i < a.limbs_.size()) {
      s += a.limbs_[i];
    }
    if (i < b.limbs_.size()) {
      s += b.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint32_t>(s);
    carry = s >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Normalize();
  return out;
}

Bignum Bignum::Sub(const Bignum& a, const Bignum& b) {
  if (Cmp(a, b) < 0) {
    throw std::invalid_argument("Bignum::Sub: would be negative");
  }
  Bignum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); i++) {
    int64_t d = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) {
      d -= b.limbs_[i];
    }
    if (d < 0) {
      d += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(d);
  }
  out.Normalize();
  return out;
}

Bignum Bignum::Mul(const Bignum& a, const Bignum& b) {
  if (a.IsZero() || b.IsZero()) {
    return Bignum();
  }
  Bignum out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); i++) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); j++) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    size_t k = i + b.limbs_.size();
    while (carry != 0) {
      uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
      k++;
    }
  }
  out.Normalize();
  return out;
}

Bignum Bignum::Shl(const Bignum& a, size_t bits) {
  if (a.IsZero() || bits == 0) {
    Bignum copy = a;
    return copy;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  Bignum out;
  out.limbs_.assign(a.limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < a.limbs_.size(); i++) {
    uint64_t v = static_cast<uint64_t>(a.limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Normalize();
  return out;
}

Bignum Bignum::Shr(const Bignum& a, size_t bits) {
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= a.limbs_.size()) {
    return Bignum();
  }
  Bignum out;
  out.limbs_.assign(a.limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); i++) {
    uint64_t v = a.limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.limbs_.size()) {
      v |= static_cast<uint64_t>(a.limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Normalize();
  return out;
}

// Knuth Algorithm D (TAOCP 4.3.1) with 32-bit limbs.
void Bignum::DivMod(const Bignum& a, const Bignum& b, Bignum* q, Bignum* r) {
  if (b.IsZero()) {
    throw std::invalid_argument("Bignum::DivMod: division by zero");
  }
  if (Cmp(a, b) < 0) {
    if (q != nullptr) {
      *q = Bignum();
    }
    if (r != nullptr) {
      *r = a;
    }
    return;
  }
  if (b.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    uint64_t d = b.limbs_[0];
    Bignum quo;
    quo.limbs_.resize(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a.limbs_[i];
      quo.limbs_[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    quo.Normalize();
    if (q != nullptr) {
      *q = std::move(quo);
    }
    if (r != nullptr) {
      *r = Bignum(rem);
    }
    return;
  }

  // Normalize so the divisor's top limb has its high bit set.
  size_t shift = 0;
  uint32_t top = b.limbs_.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    shift++;
  }
  Bignum u = Shl(a, shift);
  Bignum v = Shl(b, shift);
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // u has m+n+1 limbs.

  Bignum quo;
  quo.limbs_.assign(m + 1, 0);

  uint64_t vn1 = v.limbs_[n - 1];
  uint64_t vn2 = v.limbs_[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    uint64_t num = (static_cast<uint64_t>(u.limbs_[j + n]) << 32) | u.limbs_[j + n - 1];
    uint64_t qhat = num / vn1;
    uint64_t rhat = num % vn1;
    while (qhat >= kBase || qhat * vn2 > ((rhat << 32) | u.limbs_[j + n - 2])) {
      qhat--;
      rhat += vn1;
      if (rhat >= kBase) {
        break;
      }
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; i++) {
      uint64_t p = qhat * v.limbs_[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u.limbs_[i + j]) - static_cast<int64_t>(p & 0xffffffffu) - borrow;
      if (t < 0) {
        t += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(u.limbs_[j + n]) - static_cast<int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large: add back.
      qhat--;
      uint64_t carry2 = 0;
      for (size_t i = 0; i < n; i++) {
        uint64_t s = static_cast<uint64_t>(u.limbs_[i + j]) + v.limbs_[i] + carry2;
        u.limbs_[i + j] = static_cast<uint32_t>(s);
        carry2 = s >> 32;
      }
      t += static_cast<int64_t>(carry2);
    }
    u.limbs_[j + n] = static_cast<uint32_t>(t);
    quo.limbs_[j] = static_cast<uint32_t>(qhat);
  }

  quo.Normalize();
  if (q != nullptr) {
    *q = std::move(quo);
  }
  if (r != nullptr) {
    u.limbs_.resize(n);
    u.Normalize();
    *r = Shr(u, shift);
  }
}

Bignum Bignum::Mod(const Bignum& a, const Bignum& m) {
  Bignum r;
  DivMod(a, m, nullptr, &r);
  return r;
}

Bignum Bignum::MulMod(const Bignum& a, const Bignum& b, const Bignum& m) {
  return Mod(Mul(a, b), m);
}

namespace {

__extension__ typedef unsigned __int128 u128;

// Zero-extends a value below the modulus into n 64-bit limbs.
void Widen(const Bignum& v, uint64_t* out, size_t n) {
  std::fill(out, out + n, 0);
  const auto& limbs = v.limbs();
  for (size_t i = 0; i < limbs.size(); i++) {
    out[i / 2] |= static_cast<uint64_t>(limbs[i]) << (32 * (i % 2));
  }
}

Bignum Narrow(const uint64_t* a, size_t n) {
  std::vector<uint32_t> limbs(2 * n);
  for (size_t i = 0; i < n; i++) {
    limbs[2 * i] = static_cast<uint32_t>(a[i]);
    limbs[2 * i + 1] = static_cast<uint32_t>(a[i] >> 32);
  }
  return Bignum::FromLimbs(std::move(limbs));
}

// Three-limb accumulator for one column of a product-scanned multiply.
struct Column {
  u128 low = 0;       // Limbs 0 and 1.
  uint64_t high = 0;  // Limb 2.

  void Add(uint64_t x, uint64_t y) { AddWide(static_cast<u128>(x) * y); }
  void AddWide(u128 v) { high += __builtin_add_overflow(low, v, &low); }
  // Emits limb 0 and shifts the accumulator down one limb.
  uint64_t Shift() {
    const auto out = static_cast<uint64_t>(low);
    low = (low >> 64) | (static_cast<u128>(high) << 64);
    high = 0;
    return out;
  }
};

}  // namespace

Montgomery::Montgomery(const Bignum& m) : modulus_(m), n_((m.limbs().size() + 1) / 2) {
  if (!m.IsOdd() || m.limbs().size() < 2) {
    throw std::invalid_argument("Montgomery: modulus must be odd and multi-limb");
  }
  m_.resize(n_);
  Widen(m, m_.data(), n_);
  // m' = -m^{-1} mod 2^64 via Newton iteration: each step doubles the
  // number of correct low bits, 1 -> 64 in six.
  uint64_t inv = 1;
  for (int i = 0; i < 6; i++) {
    inv *= 2 - m_[0] * inv;
  }
  minv_ = ~inv + 1;

  // R^2 = 2^(128 n) mod m, computed with one long division.
  r2_.resize(n_);
  Widen(Bignum::Mod(Bignum::Shl(Bignum(1), 128 * n_), m), r2_.data(), n_);
}

template <bool kSquare>
void Montgomery::Product(const Limb* a, const Limb* b, Limb* out, Limb* u) const {
  const size_t n = n_;
  const Limb* m = m_.data();
  // Column k of a*b + u*m, for k = 0 .. 2n-2. In the low n columns each
  // quotient digit u[k] is chosen to clear the column's low limb (the
  // division by R); the high n columns are the result.
  Column acc;
  for (size_t k = 0; k + 1 < 2 * n; k++) {
    const size_t lo = k < n ? 0 : k - n + 1;
    const size_t ab_end = std::min(k + 1, n);  // a[j] b[k-j] for j in [lo, ab_end).
    const size_t um_end = std::min(k, n);      // u[k] is not known yet.
    if constexpr (kSquare) {
      // Each cross product a[j] a[k-j], j < k-j, once, then doubled.
      Column cross;
      for (size_t j = lo; 2 * j < k; j++) {
        cross.Add(a[j], a[k - j]);
      }
      acc.AddWide(cross.low);
      acc.AddWide(cross.low);
      acc.high += 2 * cross.high;
      if (k % 2 == 0) {
        acc.Add(a[k / 2], a[k / 2]);
      }
    } else {
      for (size_t j = lo; j < ab_end; j++) {
        acc.Add(a[j], b[k - j]);
      }
    }
    for (size_t j = lo; j < um_end; j++) {
      acc.Add(u[j], m[k - j]);
    }
    if (k < n) {
      u[k] = static_cast<Limb>(acc.low) * minv_;
      acc.Add(u[k], m[0]);
      acc.Shift();  // Zero by the choice of u[k].
    } else {
      // a and b are not read at or below limb k - n any more, so out
      // may alias them.
      out[k - n] = acc.Shift();
    }
  }
  out[n - 1] = acc.Shift();
  const auto top = static_cast<Limb>(acc.low);

  // The result is below 2m, so one conditional subtraction lands in
  // [0, m): take the difference (built in u, free now) unless it borrows
  // past `top`, which means the result was already below m.
  Limb borrow = 0;
  for (size_t i = 0; i < n; i++) {
    u128 d = static_cast<u128>(out[i]) - m[i] - borrow;
    u[i] = static_cast<Limb>(d);
    borrow = static_cast<Limb>(d >> 127);
  }
  if (borrow <= top) {
    std::copy(u, u + n, out);
  }
}

Bignum Montgomery::PowMod(const Bignum& base, const Bignum& exp) const {
  const size_t bits = exp.BitLength();
  if (bits == 0) {
    return Bignum(1);  // m >= 2^32, so 1 is already reduced.
  }
  const size_t n = n_;
  const bool windowed = bits >= kWindowMinBits;
  // One allocation: Product's quotient digits, the accumulator, and the
  // powers b^1..b^15 in Montgomery form (just b^1 without the window).
  const size_t powers = windowed ? 15 : 1;
  std::vector<Limb> scratch(n + n + powers * n);
  Limb* u = scratch.data();
  Limb* acc = u + n;
  Limb* pow = acc + n;  // b^k at pow + (k - 1) * n.

  Widen(base < modulus_ ? base : Bignum::Mod(base, modulus_), acc, n);
  Product<false>(acc, r2_.data(), pow, u);  // b -> bR mod m.

  if (!windowed) {
    std::copy(pow, pow + n, acc);
    for (size_t i = bits - 1; i-- > 0;) {
      Product<true>(acc, acc, acc, u);
      if (exp.Bit(i)) {
        Product<false>(acc, pow, acc, u);
      }
    }
  } else {
    for (size_t k = 2; k <= 15; k++) {
      Product<false>(pow + (k - 2) * n, pow, pow + (k - 1) * n, u);
    }
    auto window = [&exp](size_t w) {
      uint32_t win = 0;
      for (size_t bit = 0; bit < 4; bit++) {
        win |= static_cast<uint32_t>(exp.Bit(4 * w + bit)) << bit;
      }
      return win;
    };
    // The top window holds the exponent's leading 1 bit.
    size_t w = (bits + 3) / 4 - 1;
    const Limb* top = pow + (window(w) - 1) * n;
    std::copy(top, top + n, acc);
    while (w-- > 0) {
      for (int sq = 0; sq < 4; sq++) {
        Product<true>(acc, acc, acc, u);
      }
      if (uint32_t win = window(w); win != 0) {
        Product<false>(acc, pow + (win - 1) * n, acc, u);
      }
    }
  }

  // Leave Montgomery form: one REDC against the plain value 1.
  std::fill(pow, pow + n, 0);
  pow[0] = 1;
  Product<false>(acc, pow, acc, u);
  return Narrow(acc, n);
}

Bignum Bignum::PowMod(const Bignum& base, const Bignum& exp, const Bignum& m) {
  if (m.IsZero()) {
    throw std::invalid_argument("Bignum::PowMod: zero modulus");
  }
  if (m.IsOdd() && m.limbs().size() >= 2) {
    // Montgomery fast path (all RSA moduli are odd).
    return Montgomery(m).PowMod(base, exp);
  }

  // Generic path: square-and-multiply with division-based reduction.
  size_t bits = exp.BitLength();
  Bignum result = Mod(Bignum(1), m);
  Bignum b = Mod(base, m);
  for (size_t i = bits; i-- > 0;) {
    result = MulMod(result, result, m);
    if (exp.Bit(i)) {
      result = MulMod(result, b, m);
    }
  }
  return result;
}

Bignum Bignum::Gcd(Bignum a, Bignum b) {
  while (!b.IsZero()) {
    Bignum r = Mod(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Bignum Bignum::InvMod(const Bignum& a, const Bignum& m) {
  // Extended Euclid without negative numbers: track coefficients of m
  // using the identity inv = m - t when t would be negative.
  // Standard iterative version over signed pairs, emulated with a sign flag.
  Bignum r0 = m, r1 = Mod(a, m);
  Bignum t0(0), t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.IsZero()) {
    Bignum q;
    Bignum r2;
    DivMod(r0, r1, &q, &r2);
    // t2 = t0 - q * t1 (signed arithmetic via flags).
    Bignum qt1 = Mul(q, t1);
    Bignum t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      // Same sign: t0 - q*t1 may flip sign.
      if (Cmp(t0, qt1) >= 0) {
        t2 = Sub(t0, qt1);
        t2_neg = t0_neg;
      } else {
        t2 = Sub(qt1, t0);
        t2_neg = !t0_neg;
      }
    } else {
      t2 = Add(t0, qt1);
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (Cmp(r0, Bignum(1)) != 0) {
    throw std::invalid_argument("Bignum::InvMod: not invertible");
  }
  Bignum inv = Mod(t0, m);
  if (t0_neg && !inv.IsZero()) {
    inv = Sub(m, inv);
  }
  return inv;
}

Bignum Bignum::FromLimbs(std::vector<uint32_t> limbs) {
  Bignum out;
  out.limbs_ = std::move(limbs);
  out.Normalize();
  return out;
}

Bignum Bignum::RandomWithBits(Prng& rng, size_t bits) {
  if (bits == 0) {
    return Bignum();
  }
  Bignum out;
  out.limbs_.resize((bits + 31) / 32, 0);
  for (auto& l : out.limbs_) {
    l = static_cast<uint32_t>(rng.Next());
  }
  size_t top_bit = (bits - 1) % 32;
  uint32_t mask = (top_bit == 31) ? 0xffffffffu : ((1u << (top_bit + 1)) - 1);
  out.limbs_.back() &= mask;
  out.limbs_.back() |= 1u << top_bit;  // Force exact bit length.
  out.Normalize();
  return out;
}

Bignum Bignum::RandomBelow(Prng& rng, const Bignum& limit) {
  size_t bits = limit.BitLength();
  for (;;) {
    Bignum c = RandomWithBits(rng, bits);
    c.limbs_.back() &= 0x7fffffffu;  // Cheap way to get below sometimes.
    c.Normalize();
    if (Cmp(c, Bignum(2)) >= 0 && Cmp(c, limit) < 0) {
      return c;
    }
  }
}

bool Bignum::IsProbablePrime(const Bignum& n, Prng& rng, int rounds) {
  if (Cmp(n, Bignum(2)) < 0) {
    return false;
  }
  if (Cmp(n, Bignum(3)) <= 0) {
    return true;
  }
  if (!n.IsOdd()) {
    return false;
  }
  for (uint32_t p : kSmallPrimes) {
    // n mod p limb by limb, without materializing a quotient.
    uint64_t rem = 0;
    for (size_t i = n.limbs_.size(); i-- > 0;) {
      rem = ((rem << 32) | n.limbs_[i]) % p;
    }
    if (rem == 0) {
      return n == Bignum(p);
    }
  }
  // Write n-1 = d * 2^s with d odd.
  Bignum n1 = Sub(n, Bignum(1));
  Bignum d = n1;
  size_t s = 0;
  while (!d.IsOdd()) {
    d = Shr(d, 1);
    s++;
  }
  for (int round = 0; round < rounds; round++) {
    Bignum a = RandomBelow(rng, n1);
    Bignum x = PowMod(a, d, n);
    if (Cmp(x, Bignum(1)) == 0 || Cmp(x, n1) == 0) {
      continue;
    }
    bool witness = true;
    for (size_t i = 1; i < s; i++) {
      x = MulMod(x, x, n);
      if (Cmp(x, n1) == 0) {
        witness = false;
        break;
      }
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

Bignum Bignum::GeneratePrime(Prng& rng, size_t bits) {
  for (;;) {
    Bignum c = RandomWithBits(rng, bits);
    if (!c.IsOdd()) {
      c = Add(c, Bignum(1));
    }
    if (IsProbablePrime(c, rng)) {
      return c;
    }
  }
}

}  // namespace avm
