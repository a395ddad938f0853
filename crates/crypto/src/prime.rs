//! Probabilistic prime generation: trial division + Miller–Rabin.
//!
//! Trial division takes single-limb remainders; every candidate that
//! survives it gets one Montgomery context, and all its Miller–Rabin
//! rounds run in Montgomery form on that context.

use crate::bigint::{with_width, BigUint, Montgomery, MONTGOMERY_MAX_BITS};
use crate::entropy::EntropySource;

/// Every prime below 256, for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u32; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Number of Miller–Rabin rounds; 2^-80 error bound at these sizes.
const MR_ROUNDS: usize = 40;

/// Test `n` for probable primality.
///
/// Panics if `n` is wider than [`MONTGOMERY_MAX_BITS`] and has no factor
/// below 256.
pub fn is_probable_prime(n: &BigUint, rng: &mut dyn EntropySource) -> bool {
    if n.bit_len() <= 8 {
        return SMALL_PRIMES
            .iter()
            .any(|&p| n == &BigUint::from_u64(u64::from(p)));
    }
    if has_small_factor(n) {
        return false;
    }
    with_width!(n.bit_len().div_ceil(64), N => miller_rabin(&Montgomery::<N>::new(n), n, rng))
        .unwrap_or_else(|| panic!("primality test above {MONTGOMERY_MAX_BITS} bits"))
}

/// Whether a prime below 256 divides `n`. The primes go in runs whose
/// product fits a `u32`, so one single-limb remainder of `n` serves a run.
fn has_small_factor(n: &BigUint) -> bool {
    let mut rest = &SMALL_PRIMES[..];
    while !rest.is_empty() {
        let (mut product, mut len) = (1u32, 0);
        while let Some(next) = rest.get(len).and_then(|&p| product.checked_mul(p)) {
            product = next;
            len += 1;
        }
        let r = n.rem_u32(product);
        if rest[..len].iter().any(|&p| r.is_multiple_of(p)) {
            return true;
        }
        rest = &rest[len..];
    }
    false
}

/// Miller–Rabin with [`MR_ROUNDS`] random bases, in Montgomery form on
/// `ctx`, the context for the odd `n`.
fn miller_rabin<const N: usize>(
    ctx: &Montgomery<N>,
    n: &BigUint,
    rng: &mut dyn EntropySource,
) -> bool {
    let one = BigUint::one();
    let n_minus_1 = n.sub(&one);
    // n - 1 = 2^s * d with d odd.
    let mut s = 0usize;
    let mut d = n_minus_1.clone();
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    let (one_m, minus_one_m) = (ctx.enter(&one), ctx.enter(&n_minus_1));

    'witness: for _ in 0..MR_ROUNDS {
        let a = random_below(&n_minus_1, rng).add(&one); // uniform in [1, n-1]
        let mut x = ctx.pow(&ctx.enter(&a), &d);
        if x == one_m || x == minus_one_m {
            continue;
        }
        for _ in 0..s - 1 {
            x = ctx.sqr(&x);
            if x == minus_one_m {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Uniform random value in `[0, bound)` by rejection sampling.
///
/// Panics if `bound` is zero.
pub fn random_below(bound: &BigUint, rng: &mut dyn EntropySource) -> BigUint {
    assert!(!bound.is_zero(), "random_below with zero bound");
    let bytes = bound.bit_len().div_ceil(8);
    let top_bits = bound.bit_len() % 8;
    let mut buf = vec![0u8; bytes];
    loop {
        rng.fill_bytes(&mut buf);
        if top_bits != 0 {
            buf[0] &= (1u16 << top_bits).wrapping_sub(1) as u8;
        }
        let v = BigUint::from_bytes_be(&buf);
        if &v < bound {
            return v;
        }
    }
}

/// Generate a random probable prime of exactly `bits` bits.
///
/// The top two bits are forced to 1 (so RSA moduli get their full length)
/// and the low bit is forced to 1 (odd).
///
/// Panics if `bits` is below 8 or above [`MONTGOMERY_MAX_BITS`].
pub fn generate_prime(bits: usize, rng: &mut dyn EntropySource) -> BigUint {
    assert!(
        (8..=MONTGOMERY_MAX_BITS).contains(&bits),
        "unsupported prime size {bits}"
    );
    let mut buf = vec![0u8; bits.div_ceil(8)];
    loop {
        rng.fill_bytes(&mut buf);
        // Clear the bits above `bits`, then force size and oddness.
        buf[0] &= 0xff >> (8 * buf.len() - bits);
        let mut candidate = BigUint::from_bytes_be(&buf);
        candidate.set_bit(bits - 1);
        candidate.set_bit(bits - 2);
        candidate.set_bit(0);
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::XorShift64;

    #[test]
    fn small_primes_recognized() {
        let mut rng = XorShift64::new(1);
        for p in [2u64, 3, 5, 7, 11, 97, 251, 257, 65_537, 1_000_000_007] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), &mut rng),
                "{p} is prime"
            );
        }
    }

    #[test]
    fn composites_rejected() {
        let mut rng = XorShift64::new(2);
        for c in [0u64, 1, 4, 9, 15, 91, 561, 41_041, 825_265, 1_000_000_008] {
            // 561, 41041, 825265 are Carmichael numbers.
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut rng),
                "{c} is composite"
            );
        }
    }

    #[test]
    fn generated_prime_has_requested_size() {
        let mut rng = XorShift64::new(3);
        for bits in [64, 128, 256] {
            let p = generate_prime(bits, &mut rng);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = XorShift64::new(4);
        let bound = BigUint::from_u64(1000);
        for _ in 0..200 {
            assert!(random_below(&bound, &mut rng) < bound);
        }
        // Bound of one always yields zero.
        assert!(random_below(&BigUint::one(), &mut rng).is_zero());
    }

    #[test]
    fn mersenne_prime_127() {
        // 2^127 - 1 is prime.
        let mut rng = XorShift64::new(5);
        let mut m = BigUint::zero();
        m.set_bit(127);
        let m = m.sub(&BigUint::one());
        assert!(is_probable_prime(&m, &mut rng));
        // 2^128 - 1 is composite.
        let mut m = BigUint::zero();
        m.set_bit(128);
        let m = m.sub(&BigUint::one());
        assert!(!is_probable_prime(&m, &mut rng));
    }
}
