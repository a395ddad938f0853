//! The Montgomery kernel against the `modpow_legacy` oracle at every
//! kernel width, and the RSA-1024 key stream pinned byte for byte.

use silentcert_crypto::hex;
use silentcert_crypto::{sha256, BigUint, EntropySource, RsaKeyPair, XorShift64};

/// The kernel's widths in 64-bit limbs. One limb past the widest is past
/// `MONTGOMERY_MAX_BITS`, where both sides take the legacy path.
const WIDTHS: [usize; 10] = [1, 2, 4, 8, 16, 32, 48, 64, 128, 256];

fn random_limbs(limbs: usize, rng: &mut XorShift64) -> BigUint {
    let mut bytes = vec![0u8; 8 * limbs];
    rng.fill_bytes(&mut bytes);
    BigUint::from_bytes_be(&bytes)
}

/// An odd modulus of exactly `limbs` 64-bit limbs; with `all_ones_top`
/// its top limb is `u64::MAX`, otherwise just its top bit is forced.
fn modulus(limbs: usize, all_ones_top: bool, rng: &mut XorShift64) -> BigUint {
    let mut n = random_limbs(limbs, rng);
    for bit in 0..64 {
        if all_ones_top || bit == 63 {
            n.set_bit(64 * (limbs - 1) + bit);
        }
    }
    n.set_bit(0);
    n
}

fn check(base: &BigUint, exp: &BigUint, n: &BigUint, what: &str) {
    assert_eq!(
        base.modpow(exp, n),
        base.modpow_legacy(exp, n),
        "{what}: {}-bit modulus, {}-bit exponent",
        n.bit_len(),
        exp.bit_len()
    );
}

#[test]
fn montgomery_matches_legacy_at_every_width() {
    let mut rng = XorShift64::new(0x3e57);
    let mut sizes: Vec<usize> = WIDTHS.iter().flat_map(|&w| [w - 1, w, w + 1]).collect();
    sizes.retain(|&k| k > 0);
    sizes.sort_unstable();
    sizes.dedup();
    let (two, three) = (BigUint::from_u64(2), BigUint::from_u64(3));
    for k in sizes {
        for all_ones_top in [false, true] {
            let n = modulus(k, all_ones_top, &mut rng);
            let below = random_limbs(k, &mut rng).rem(&n);
            let top = n.sub(&BigUint::one());
            let above = n.add(&random_limbs(k, &mut rng));
            for (base, what) in [
                (&below, "base < n"),
                (&top, "base n-1"),
                (&above, "base > n"),
            ] {
                check(base, &three, &n, what);
                // Squaring alone (exponent 2) against the value times itself.
                assert_eq!(
                    base.modpow(&two, &n),
                    base.mul(base).rem(&n),
                    "square, {what}: {}-bit modulus",
                    n.bit_len()
                );
            }
            // The legacy oracle costs about k^2 limb products per exponent
            // bit, so longer exponents run only where it stays affordable
            // in a debug build: the windowed path (exponents above 64 bits)
            // up to 128 limbs.
            if k <= 65 {
                check(&top, &BigUint::from_u64(65_537), &n, "e = 65537");
                check(&above, &random_limbs(1, &mut rng), &n, "64-bit exponent");
            }
            if k <= 16 {
                check(
                    &below,
                    &random_limbs(k, &mut rng),
                    &n,
                    "full-width exponent",
                );
            }
            if WIDTHS.contains(&k) && (k <= 64 || k == 128 && all_ones_top) {
                let long = random_limbs(1, &mut rng).add(&BigUint::one().shl(64));
                check(&below, &long, &n, "65-bit exponent");
            }
        }
    }
}

/// SHA-256 of the moduli of the first two RSA-1024 keys drawn from
/// `XorShift64::new(1 ^ 0xca5e)`: the stream `CaEcosystem::generate` draws
/// for seed 1 when every CA is on RSA-1024. The digests were taken before
/// the prime search moved to the fixed-width kernel; the search must keep
/// consuming the stream exactly as it did, so the keys stay the same.
#[test]
fn rsa_1024_key_stream_is_pinned() {
    let mut rng = XorShift64::new(1 ^ 0xca5e);
    let expected = [
        "b0bdf509ce7ed7138a0b1a6ad199abbdca9a3cc81ae4eb1d09154589f8a0a85c",
        "2180c100ef39f64c633ffe8d5839e1bc544af3f411fab59daa8ee9b0b37d7af7",
    ];
    for (i, want) in expected.iter().enumerate() {
        let key = RsaKeyPair::generate(1024, &mut rng);
        assert_eq!(key.public.n.bit_len(), 1024);
        assert_eq!(
            hex::encode(&sha256(&key.public.n.to_bytes_be())),
            *want,
            "key {i}"
        );
    }
}
