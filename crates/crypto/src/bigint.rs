//! Arbitrary-precision unsigned integers.
//!
//! [`BigUint`] keeps little-endian `u32` limbs with `u64` intermediates and
//! implements the operations RSA needs: addition, subtraction, schoolbook
//! multiplication, Knuth Algorithm D division, left/right shifts, modular
//! exponentiation, GCD, and modular inverse via the extended Euclidean
//! algorithm. Values are always normalized: no trailing zero limbs, and
//! zero is the empty limb vector.
//!
//! Modular exponentiation by an odd modulus runs on `Montgomery`, one
//! kernel generic over a compile-time count of 64-bit limbs: a multiply
//! and a dedicated squaring, each a schoolbook product followed by one
//! Montgomery reduction, at widths of 1, 2, 4, 8, 16, 32, 48, 64, 128 and
//! 256 limbs. The modulus's limb count picks the width, so the 256- to
//! 4096-bit RSA sizes run unpadded and any other size up to
//! [`MONTGOMERY_MAX_BITS`] runs zero-padded to the next width. Even and
//! wider moduli take [`BigUint::modpow_legacy`], which is also the oracle
//! the kernel is tested against.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs, normalized (no trailing zeros).
    limbs: Vec<u32>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> BigUint {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> BigUint {
        BigUint { limbs: vec![1] }
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> BigUint {
        let mut n = BigUint {
            limbs: vec![v as u32, (v >> 32) as u32],
        };
        n.normalize();
        n
    }

    /// From big-endian bytes (leading zeros permitted).
    pub fn from_bytes_be(bytes: &[u8]) -> BigUint {
        let mut limbs = Vec::with_capacity(bytes.len().div_ceil(4));
        let mut iter = bytes.rchunks(4);
        for chunk in &mut iter {
            let mut v: u32 = 0;
            for &b in chunk {
                v = (v << 8) | u32::from(b);
            }
            limbs.push(v);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// To minimal big-endian bytes (empty for zero).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                let skip = bytes.iter().take_while(|&&b| b == 0).count();
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// To big-endian bytes left-padded to exactly `len` bytes.
    ///
    /// Panics if the value does not fit.
    pub fn to_bytes_be_padded(&self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.to_bytes_be_padded_into(len, &mut out);
        out
    }

    /// Like [`to_bytes_be_padded`](Self::to_bytes_be_padded) but reuses the
    /// allocation of `out` (cleared first). Panics if the value does not fit.
    pub fn to_bytes_be_padded_into(&self, len: usize, out: &mut Vec<u8>) {
        let raw_len = self.bit_len().div_ceil(8);
        assert!(raw_len <= len, "value does not fit in {len} bytes");
        out.clear();
        out.resize(len - raw_len, 0);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                out.extend_from_slice(&bytes[4 - (raw_len - i * 4)..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
    }

    /// Whether this is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Whether this is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|&l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&hi) => (self.limbs.len() - 1) * 32 + (32 - hi.leading_zeros() as usize),
        }
    }

    /// Test bit `i` (LSB = bit 0).
    pub fn bit(&self, i: usize) -> bool {
        self.limbs
            .get(i / 32)
            .is_some_and(|&l| l & (1 << (i % 32)) != 0)
    }

    /// Set bit `i`, growing as needed.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 32;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << (i % 32);
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry: u64 = 0;
        for (i, &limb) in long.iter().enumerate() {
            let sum = u64::from(limb) + u64::from(short.get(i).copied().unwrap_or(0)) + carry;
            out.push(sum as u32);
            carry = sum >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        BigUint { limbs: out }
    }

    /// `self - other`. Panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint subtraction underflow")
    }

    /// `self - other`, or `None` on underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let diff = i64::from(self.limbs[i])
                - i64::from(other.limbs.get(i).copied().unwrap_or(0))
                - borrow;
            if diff < 0 {
                out.push((diff + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(diff as u32);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        Some(n)
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = u64::from(a) * u64::from(b) + u64::from(out[i + j]) + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            out[i + other.limbs.len()] = carry as u32;
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self << bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 32;
        let bit_shift = bits % 32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self >> bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (32 - bit_shift)));
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `(self / divisor, self % divisor)` via Knuth Algorithm D.
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        match self.cmp(divisor) {
            Ordering::Less => return (BigUint::zero(), self.clone()),
            Ordering::Equal => return (BigUint::one(), BigUint::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            return self.div_rem_limb(divisor.limbs[0]);
        }

        // D1: normalize so the divisor's high limb has its MSB set.
        let shift = divisor.limbs.last().expect("nonzero").leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        let mut un = u.limbs.clone();
        un.push(0); // u has m+n+1 limbs including the extra high limb
        let vn = &v.limbs;
        let v_hi = u64::from(vn[n - 1]);
        let v_next = u64::from(vn[n - 2]);

        let mut q = vec![0u32; m + 1];
        // D2–D7: main loop.
        for j in (0..=m).rev() {
            // D3: estimate qhat.
            let numer = (u64::from(un[j + n]) << 32) | u64::from(un[j + n - 1]);
            let mut qhat = numer / v_hi;
            let mut rhat = numer % v_hi;
            while qhat >= (1u64 << 32) || qhat * v_next > ((rhat << 32) | u64::from(un[j + n - 2]))
            {
                qhat -= 1;
                rhat += v_hi;
                if rhat >= (1u64 << 32) {
                    break;
                }
            }
            // D4: multiply and subtract.
            let mut borrow: i64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = qhat * u64::from(vn[i]) + carry;
                carry = p >> 32;
                let t = i64::from(un[i + j]) - borrow - i64::from(p as u32);
                un[i + j] = t as u32; // wraps correctly (two's complement)
                borrow = i64::from(t < 0);
            }
            let t = i64::from(un[j + n]) - borrow - carry as i64;
            un[j + n] = t as u32;

            // D5/D6: if we subtracted too much, add back.
            if t < 0 {
                qhat -= 1;
                let mut carry: u64 = 0;
                for i in 0..n {
                    let sum = u64::from(un[i + j]) + u64::from(vn[i]) + carry;
                    un[i + j] = sum as u32;
                    carry = sum >> 32;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u32);
            }
            q[j] = qhat as u32;
        }

        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        let mut rem = BigUint {
            limbs: un[..n].to_vec(),
        };
        rem.normalize();
        (quotient, rem.shr(shift))
    }

    /// Division by a single limb.
    fn div_rem_limb(&self, d: u32) -> (BigUint, BigUint) {
        let d64 = u64::from(d);
        let mut q = vec![0u32; self.limbs.len()];
        let mut rem: u64 = 0;
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem << 32) | u64::from(self.limbs[i]);
            q[i] = (cur / d64) as u32;
            rem = cur % d64;
        }
        let mut quotient = BigUint { limbs: q };
        quotient.normalize();
        (quotient, BigUint::from_u64(rem))
    }

    /// `self % d` for a single-limb `d`. Panics if `d` is zero.
    pub(crate) fn rem_u32(&self, d: u32) -> u32 {
        let d = u64::from(d);
        let r = self
            .limbs
            .iter()
            .rev()
            .fold(0, |r, &l| ((r << 32) | u64::from(l)) % d);
        r as u32
    }

    /// `self % modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// `self^exp mod modulus`.
    ///
    /// Odd moduli up to [`MONTGOMERY_MAX_BITS`] run on the fixed-width
    /// Montgomery kernel; even moduli (where Montgomery reduction does not
    /// apply) and wider ones take [`modpow_legacy`](Self::modpow_legacy).
    /// Both paths return identical values for identical inputs.
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        if modulus.is_even() || modulus == &BigUint::one() {
            return self.modpow_legacy(exp, modulus);
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        with_width!(modulus.bit_len().div_ceil(64), N => {
            let ctx = Montgomery::<N>::new(modulus);
            let base = if self.limbs.len() > 2 * N {
                ctx.enter(&self.rem(modulus))
            } else {
                ctx.enter(self)
            };
            ctx.leave(&ctx.pow(&base, exp))
        })
        .unwrap_or_else(|| self.modpow_legacy(exp, modulus))
    }

    /// `self^exp mod modulus` by plain square-and-multiply (left-to-right)
    /// with a full `div_rem` reduction per step.
    ///
    /// Retained as the path for even moduli and for moduli wider than
    /// [`MONTGOMERY_MAX_BITS`], and as the oracle the Montgomery path is
    /// tested against.
    ///
    /// Panics if `modulus` is zero.
    pub fn modpow_legacy(&self, exp: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus == &BigUint::one() {
            return BigUint::zero();
        }
        let base = self.rem(modulus);
        if exp.is_zero() {
            return BigUint::one();
        }
        let mut acc = BigUint::one();
        for i in (0..exp.bit_len()).rev() {
            acc = acc.mul(&acc).rem(modulus);
            if exp.bit(i) {
                acc = acc.mul(&base).rem(modulus);
            }
        }
        acc
    }

    /// Greatest common divisor (binary-free Euclid via div_rem).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse of `self` mod `modulus`, or `None` if not coprime.
    ///
    /// Extended Euclid with signed coefficient tracking done in unsigned
    /// arithmetic (sign carried separately).
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() {
            return None;
        }
        // Track (old_r, r) and (old_s, s) with signs.
        let mut old_r = self.rem(modulus);
        let mut r = modulus.clone();
        let mut old_s = (BigUint::one(), false); // (magnitude, negative?)
        let mut s = (BigUint::zero(), false);

        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            let qs = q.mul(&s.0);
            // new_s = old_s - q * s  (signed)
            let new_s = signed_sub(&old_s, &(qs, s.1));
            old_s = std::mem::replace(&mut s, new_s);
        }

        if old_r != BigUint::one() {
            return None; // not coprime
        }
        let (mag, neg) = old_s;
        let inv = if neg {
            modulus.sub(&mag.rem(modulus)).rem(modulus)
        } else {
            mag.rem(modulus)
        };
        Some(inv)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }
}

/// Widest modulus, in bits, that [`BigUint::modpow`] runs on the Montgomery
/// kernel; wider odd moduli take [`BigUint::modpow_legacy`].
pub const MONTGOMERY_MAX_BITS: usize = 16_384;

/// Evaluate `$body` with the const `$n` set to the Montgomery kernel width,
/// in 64-bit limbs, for a modulus of `$limbs` 64-bit limbs: `Some` of the
/// body, or `None` above [`MONTGOMERY_MAX_BITS`].
///
/// 256-, 512-, 1024-, 2048-, 3072- and 4096-bit moduli fill their width
/// exactly; any other size runs zero-padded to the next width up, where the
/// same arithmetic holds because `R = 2^(64N)` only has to exceed the
/// modulus.
macro_rules! with_width {
    ($limbs:expr, $n:ident => $body:expr) => {
        $crate::bigint::with_width!(@match $limbs, $n, $body;
            1 => 0..=1, 2 => 2, 4 => 3..=4, 8 => 5..=8, 16 => 9..=16, 32 => 17..=32,
            48 => 33..=48, 64 => 49..=64, 128 => 65..=128, 256 => 129..=256)
    };
    (@match $limbs:expr, $n:ident, $body:expr; $($width:literal => $range:pat),*) => {
        match $limbs {
            $($range => {
                const $n: usize = $width;
                Some($body)
            })*
            _ => None,
        }
    };
}
pub(crate) use with_width;

/// Montgomery arithmetic modulo a fixed odd `n > 1`, at a compile-time
/// width of `N` 64-bit limbs (`R = 2^(64N)`); pick `N` with
/// [`with_width!`].
///
/// A residue is `[u64; N]`, little-endian, in Montgomery form (`xR mod n`)
/// and always fully reduced, so equal residues have equal limbs. Every
/// loop bound is `N`, so each width compiles to its own kernel with no
/// bounds checks in the inner loops.
pub(crate) struct Montgomery<const N: usize> {
    n: [u64; N],
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n`: multiplying by it enters Montgomery form.
    rr: [u64; N],
}

/// `a + b * c + carry` as (low, high) words; cannot overflow.
#[inline(always)]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = u128::from(a) + u128::from(b) * u128::from(c) + u128::from(carry);
    (t as u64, (t >> 64) as u64)
}

/// `a + b + carry` as (sum, carry out).
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = u128::from(a) + u128::from(b) + u128::from(carry);
    (t as u64, (t >> 64) as u64)
}

impl<const N: usize> Montgomery<N> {
    /// Context for an odd `modulus > 1` of at most `N` 64-bit limbs.
    pub(crate) fn new(modulus: &BigUint) -> Self {
        assert!(
            !modulus.is_even() && modulus.limbs.len() <= 2 * N,
            "Montgomery modulus must be odd and fit {N} limbs"
        );
        let n = pack(modulus);
        // Invert the low limb mod 2^64 by Newton's iteration (doubles the
        // number of correct low bits each round: 1 → 2 → 4 → … → 64).
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        let rr = pack(&BigUint::one().shl(128 * N).rem(modulus));
        Montgomery {
            n,
            n0inv: inv.wrapping_neg(),
            rr,
        }
    }

    /// `x` in Montgomery form. `x` must fit in `N` limbs; it need not be
    /// below `n`.
    pub(crate) fn enter(&self, x: &BigUint) -> [u64; N] {
        self.mul(&self.rr, &pack(x))
    }

    /// Leave Montgomery form.
    pub(crate) fn leave(&self, x: &[u64; N]) -> BigUint {
        let mut wide = [[0u64; N]; 2];
        wide[0] = *x;
        unpack(&self.redc(wide.as_flattened_mut()))
    }

    /// `a * b * R^{-1} mod n`. One operand must be below `n`, the other
    /// below `R`.
    fn mul(&self, a: &[u64; N], b: &[u64; N]) -> [u64; N] {
        let mut wide = [[0u64; N]; 2];
        let t = wide.as_flattened_mut();
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0;
            for (j, &bj) in b.iter().enumerate() {
                (t[i + j], carry) = mac(t[i + j], ai, bj, carry);
            }
            t[i + N] = carry;
        }
        self.redc(t)
    }

    /// `a * a * R^{-1} mod n` for `a` below `n`: each cross product
    /// `a[i] * a[j]` is formed once and doubled, so the product costs about
    /// half of [`mul`](Self::mul)'s.
    pub(crate) fn sqr(&self, a: &[u64; N]) -> [u64; N] {
        let mut wide = [[0u64; N]; 2];
        let t = wide.as_flattened_mut();
        for i in 0..N {
            let mut carry = 0;
            for j in i + 1..N {
                (t[i + j], carry) = mac(t[i + j], a[i], a[j], carry);
            }
            t[i + N] = carry;
        }
        // Double the cross products and add the squares on the diagonal.
        let (mut shifted_out, mut carry) = (0, 0);
        for (i, &ai) in a.iter().enumerate() {
            let (lo, hi) = (t[2 * i], t[2 * i + 1]);
            let (sq_lo, sq_hi) = mac(0, ai, ai, 0);
            (t[2 * i], carry) = adc(lo << 1 | shifted_out, sq_lo, carry);
            (t[2 * i + 1], carry) = adc(hi << 1 | lo >> 63, sq_hi, carry);
            shifted_out = hi >> 63;
        }
        self.redc(t)
    }

    /// Montgomery reduction of the `2N`-limb `t < nR`: `t * R^{-1} mod n`.
    fn redc(&self, t: &mut [u64]) -> [u64; N] {
        let t = &mut t[..2 * N];
        // Carry out of `t[i + N]` on the previous row, which lands on the
        // next row's top limb.
        let mut overflow = 0;
        for i in 0..N {
            let m = t[i].wrapping_mul(self.n0inv);
            let mut carry = 0;
            for (j, &nj) in self.n.iter().enumerate() {
                (t[i + j], carry) = mac(t[i + j], m, nj, carry);
            }
            (t[i + N], overflow) = adc(t[i + N], carry, overflow);
        }
        // The value `t[N..] + overflow * R` is below `2n`: subtract `n`
        // once if it is at least `n`.
        let mut diff = [0u64; N];
        let mut borrow = false;
        for (j, (d, &nj)) in diff.iter_mut().zip(&self.n).enumerate() {
            let (x, b1) = t[N + j].overflowing_sub(nj);
            let (x, b2) = x.overflowing_sub(u64::from(borrow));
            *d = x;
            borrow = b1 || b2;
        }
        if overflow != 0 || !borrow {
            diff
        } else {
            t[N..].try_into().expect("slice of N limbs")
        }
    }

    /// `base^exp` in Montgomery form, for `base` in Montgomery form and a
    /// nonzero `exp`. Long exponents use 4-bit fixed-window exponentiation;
    /// short ones (RSA's `e = 65537`) use plain square-and-multiply, where
    /// a 16-entry window table would cost more than it saves.
    pub(crate) fn pow(&self, base: &[u64; N], exp: &BigUint) -> [u64; N] {
        let bits = exp.bit_len();
        assert!(bits > 0, "Montgomery pow with a zero exponent");
        if bits <= 64 {
            let mut acc = *base;
            for i in (0..bits - 1).rev() {
                acc = self.sqr(&acc);
                if exp.bit(i) {
                    acc = self.mul(&acc, base);
                }
            }
            return acc;
        }
        // table[w] = base^w for window values 1..16 (entry 0 is unused:
        // a zero window multiplies by nothing).
        let mut table = [*base; 16];
        for w in 2..16 {
            table[w] = self.mul(&table[w - 1], base);
        }
        let window = |w: usize| (0..4).fold(0, |v, b| v | usize::from(exp.bit(4 * w + b)) << b);
        let windows = bits.div_ceil(4);
        let mut acc = table[window(windows - 1)];
        for w in (0..windows - 1).rev() {
            for _ in 0..4 {
                acc = self.sqr(&acc);
            }
            let wv = window(w);
            if wv != 0 {
                acc = self.mul(&acc, &table[wv]);
            }
        }
        acc
    }
}

/// Pack 32-bit `BigUint` limbs into `N` 64-bit limbs. Panics if the value
/// does not fit.
fn pack<const N: usize>(x: &BigUint) -> [u64; N] {
    let mut out = [0u64; N];
    for (i, &l) in x.limbs.iter().enumerate() {
        out[i / 2] |= u64::from(l) << (32 * (i % 2));
    }
    out
}

/// Unpack 64-bit limbs back into a normalized `BigUint`.
fn unpack(limbs: &[u64]) -> BigUint {
    let mut out = Vec::with_capacity(limbs.len() * 2);
    for &l in limbs {
        out.push(l as u32);
        out.push((l >> 32) as u32);
    }
    let mut r = BigUint { limbs: out };
    r.normalize();
    r
}

/// `a - b` on sign-magnitude pairs.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with equal signs: magnitude subtraction.
        (an, bn) if an == bn => match a.0.cmp(&b.0) {
            Ordering::Less => (b.0.sub(&a.0), !an),
            _ => (a.0.sub(&b.0), an),
        },
        // a - (-b) = a + b ; (-a) - b = -(a + b)
        (an, _) => (a.0.add(&b.0), an),
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => self.limbs.iter().rev().cmp(other.limbs.iter().rev()),
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x")?;
        if self.is_zero() {
            write!(f, "0")?;
        }
        for &limb in self.limbs.iter().rev() {
            write!(f, "{limb:08x}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn bytes_roundtrip() {
        let cases: &[&[u8]] = &[
            &[],
            &[1],
            &[0xff],
            &[1, 0, 0, 0, 0],
            &[0xde, 0xad, 0xbe, 0xef, 0x01],
        ];
        for &bytes in cases {
            let v = BigUint::from_bytes_be(bytes);
            let back = v.to_bytes_be();
            // Round trip strips leading zeros.
            let canonical: Vec<u8> = {
                let skip = bytes.iter().take_while(|&&b| b == 0).count();
                bytes[skip..].to_vec()
            };
            assert_eq!(back, canonical);
        }
        assert_eq!(
            BigUint::from_bytes_be(&[0, 0, 0]).to_bytes_be(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn padded_bytes() {
        assert_eq!(n(0x0102).to_bytes_be_padded(4), vec![0, 0, 1, 2]);
        assert_eq!(BigUint::zero().to_bytes_be_padded(2), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn padded_bytes_too_small() {
        n(0x01_0000).to_bytes_be_padded(2);
    }

    #[test]
    fn add_sub_basic() {
        assert_eq!(n(2).add(&n(3)), n(5));
        assert_eq!(
            n(u64::MAX).add(&n(1)).to_bytes_be(),
            vec![1, 0, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(n(5).sub(&n(3)), n(2));
        assert_eq!(n(5).checked_sub(&n(6)), None);
        // Borrow across limbs.
        let big = BigUint::from_bytes_be(&[1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(big.sub(&n(1)), n(u64::MAX));
    }

    #[test]
    fn mul_basic() {
        assert_eq!(n(0).mul(&n(123)), n(0));
        assert_eq!(n(7).mul(&n(6)), n(42));
        let a = n(u64::from(u32::MAX));
        assert_eq!(a.mul(&a), n(u64::from(u32::MAX) * u64::from(u32::MAX)));
    }

    #[test]
    fn shifts() {
        assert_eq!(n(1).shl(40).shr(40), n(1));
        assert_eq!(n(0b1011).shl(3), n(0b1011000));
        assert_eq!(n(0b1011).shr(2), n(0b10));
        assert_eq!(n(1).shr(1), n(0));
        assert_eq!(n(0).shl(100), n(0));
    }

    #[test]
    fn bit_ops() {
        let mut v = BigUint::zero();
        v.set_bit(100);
        assert!(v.bit(100));
        assert!(!v.bit(99));
        assert_eq!(v.bit_len(), 101);
        assert_eq!(n(0).bit_len(), 0);
        assert_eq!(n(1).bit_len(), 1);
        assert_eq!(n(0xffff_ffff).bit_len(), 32);
        assert_eq!(n(0x1_0000_0000).bit_len(), 33);
    }

    #[test]
    fn div_rem_small() {
        let (q, r) = n(100).div_rem(&n(7));
        assert_eq!((q, r), (n(14), n(2)));
        let (q, r) = n(5).div_rem(&n(7));
        assert_eq!((q, r), (n(0), n(5)));
        let (q, r) = n(7).div_rem(&n(7));
        assert_eq!((q, r), (n(1), n(0)));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = n(1).div_rem(&n(0));
    }

    #[test]
    fn div_rem_multi_limb() {
        // (a * b + r) / b == a with remainder r for wide values.
        let a =
            BigUint::from_bytes_be(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x11, 0x22]);
        let b = BigUint::from_bytes_be(&[0xfe, 0xdc, 0xba, 0x98, 0x76]);
        let r = BigUint::from_bytes_be(&[0x42, 0x42]);
        assert!(r < b);
        let v = a.mul(&b).add(&r);
        let (q, rem) = v.div_rem(&b);
        assert_eq!(q, a);
        assert_eq!(rem, r);
    }

    #[test]
    fn div_rem_triggers_addback() {
        // A classic Algorithm D add-back case: u = b^2/2, v = b/2 + 1 in base 2^32
        // engineered so qhat overestimates. Verified by reconstruction.
        let u = BigUint::from_bytes_be(&[
            0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ]);
        let v = BigUint::from_bytes_be(&[0x80, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01]);
        let (q, r) = u.div_rem(&v);
        assert_eq!(q.mul(&v).add(&r), u);
        assert!(r < v);
    }

    #[test]
    fn modpow_known_values() {
        assert_eq!(n(4).modpow(&n(13), &n(497)), n(445));
        assert_eq!(n(2).modpow(&n(10), &n(1000)), n(24));
        assert_eq!(n(7).modpow(&n(0), &n(13)), n(1));
        assert_eq!(n(7).modpow(&n(5), &n(1)), n(0));
        // Fermat: a^(p-1) = 1 mod p for prime p.
        let p = n(1_000_000_007);
        assert_eq!(n(123_456).modpow(&p.sub(&n(1)), &p), n(1));
    }

    #[test]
    fn modpow_montgomery_matches_legacy() {
        // Odd moduli exercise the Montgomery path; results must match the
        // legacy oracle bit for bit, including multi-limb operands.
        let mut m = BigUint::zero();
        m.set_bit(255);
        let m = m.sub(&n(19)); // 2^255 - 19, odd
        let base = BigUint::from_bytes_be(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89]);
        let exp = BigUint::from_bytes_be(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0]);
        assert_eq!(base.modpow(&exp, &m), base.modpow_legacy(&exp, &m));
        for (b, e, md) in [(4u64, 13u64, 497u64), (2, 10, 999), (7, 0, 13), (7, 5, 1)] {
            assert_eq!(
                n(b).modpow(&n(e), &n(md)),
                n(b).modpow_legacy(&n(e), &n(md)),
                "b={b} e={e} m={md}"
            );
        }
        // Base larger than the modulus, and base = 0.
        assert_eq!(
            m.add(&n(5)).modpow(&n(3), &m),
            m.add(&n(5)).modpow_legacy(&n(3), &m)
        );
        assert_eq!(n(0).modpow(&n(9), &m), n(0));
    }

    #[test]
    fn modpow_even_modulus_uses_legacy_path() {
        assert_eq!(
            n(3).modpow(&n(7), &n(100)),
            n(3).modpow_legacy(&n(7), &n(100))
        );
        assert_eq!(n(3).modpow(&n(7), &n(100)), n(87));
    }

    #[test]
    fn padded_into_reuses_buffer() {
        let mut buf = Vec::new();
        n(0x0102).to_bytes_be_padded_into(4, &mut buf);
        assert_eq!(buf, vec![0, 0, 1, 2]);
        n(0xffff_ffff_ffff).to_bytes_be_padded_into(8, &mut buf);
        assert_eq!(buf, vec![0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]);
        BigUint::zero().to_bytes_be_padded_into(3, &mut buf);
        assert_eq!(buf, vec![0, 0, 0]);
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(n(12).gcd(&n(18)), n(6));
        assert_eq!(n(17).gcd(&n(31)), n(1));
        assert_eq!(n(0).gcd(&n(5)), n(5));
        assert_eq!(n(5).gcd(&n(0)), n(5));
    }

    #[test]
    fn mod_inverse_basic() {
        let inv = n(3).mod_inverse(&n(11)).unwrap();
        assert_eq!(inv, n(4)); // 3*4 = 12 = 1 mod 11
        assert_eq!(n(4).mod_inverse(&n(8)), None); // not coprime
        let m = n(1_000_000_007);
        for a in [2u64, 7, 123_456, 999_999_999] {
            let inv = n(a).mod_inverse(&m).unwrap();
            assert_eq!(n(a).mul(&inv).rem(&m), n(1), "a = {a}");
        }
    }

    #[test]
    fn mod_inverse_multi_limb() {
        // 2^255 - 19 is prime; every small value has an inverse.
        let mut m = BigUint::zero();
        m.set_bit(255);
        let m = m.sub(&n(19));
        for a in [3u64, 65_537, 0xdead_beef] {
            let inv = n(a).mod_inverse(&m).unwrap();
            assert_eq!(n(a).mul(&inv).rem(&m), n(1), "a = {a}");
        }
    }

    #[test]
    fn ordering() {
        assert!(n(5) < n(6));
        assert!(BigUint::from_bytes_be(&[1, 0, 0, 0, 0]) > n(u64::from(u32::MAX)));
        assert_eq!(n(7).cmp(&n(7)), Ordering::Equal);
    }

    #[test]
    fn even_odd() {
        assert!(n(0).is_even());
        assert!(n(2).is_even());
        assert!(!n(3).is_even());
    }
}
