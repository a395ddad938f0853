//! Property-based tests for the crypto substrate: big-integer algebra,
//! primality, RSA, and the unified signature layer.

use proptest::prelude::*;
use silentcert_crypto::entropy::XorShift64;
use silentcert_crypto::sig::{KeyPair, PublicKey, SimKeyPair};
use silentcert_crypto::{sha256, BigUint, RsaKeyPair};

fn big(bytes: &[u8]) -> BigUint {
    BigUint::from_bytes_be(bytes)
}

proptest! {
    #[test]
    fn bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let v = big(&bytes);
        let back = v.to_bytes_be();
        let skip = bytes.iter().take_while(|&&b| b == 0).count();
        prop_assert_eq!(back, bytes[skip..].to_vec());
    }

    #[test]
    fn addition_is_commutative_and_associative(
        a in proptest::collection::vec(any::<u8>(), 0..48),
        b in proptest::collection::vec(any::<u8>(), 0..48),
        c in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let (a, b, c) = (big(&a), big(&b), big(&c));
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn add_sub_inverse(
        a in proptest::collection::vec(any::<u8>(), 0..48),
        b in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let (a, b) = (big(&a), big(&b));
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn multiplication_distributes(
        a in proptest::collection::vec(any::<u8>(), 0..24),
        b in proptest::collection::vec(any::<u8>(), 0..24),
        c in proptest::collection::vec(any::<u8>(), 0..24),
    ) {
        let (a, b, c) = (big(&a), big(&b), big(&c));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn division_reconstructs(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        b in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let a = big(&a);
        let b = big(&b);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn shifts_are_mul_div_by_powers_of_two(
        a in proptest::collection::vec(any::<u8>(), 0..32),
        k in 0usize..100,
    ) {
        let a = big(&a);
        let two_k = BigUint::one().shl(k);
        prop_assert_eq!(a.shl(k), a.mul(&two_k));
        prop_assert_eq!(a.shr(k), a.div_rem(&two_k).0);
    }

    #[test]
    fn modpow_matches_naive(base in 0u64..1000, exp in 0u32..24, modulus in 2u64..10_000) {
        let m = BigUint::from_u64(modulus);
        let got = BigUint::from_u64(base).modpow(&BigUint::from_u64(u64::from(exp)), &m);
        // Naive computation in u128.
        let mut acc: u128 = 1;
        for _ in 0..exp {
            acc = acc * u128::from(base) % u128::from(modulus);
        }
        prop_assert_eq!(got, BigUint::from_u64(acc as u64));
    }

    #[test]
    fn modpow_respects_fermat(p_idx in 0usize..4, a in 2u64..1_000_000) {
        // a^(p-1) ≡ 1 (mod p) when gcd(a, p) = 1.
        const PRIMES: [u64; 4] = [1_000_000_007, 998_244_353, 2_147_483_647, 67_280_421_310_721];
        let p = PRIMES[p_idx];
        prop_assume!(a % p != 0);
        let pb = BigUint::from_u64(p);
        let exp = pb.sub(&BigUint::one());
        prop_assert_eq!(BigUint::from_u64(a).modpow(&exp, &pb), BigUint::one());
    }

    #[test]
    fn mod_inverse_is_inverse(a in 1u64..100_000) {
        let p = BigUint::from_u64(1_000_000_007);
        let a_big = BigUint::from_u64(a);
        let inv = a_big.mod_inverse(&p).unwrap();
        prop_assert_eq!(a_big.mul(&inv).rem(&p), BigUint::one());
    }

    #[test]
    fn gcd_divides_both(a in 1u64..1_000_000, b in 1u64..1_000_000) {
        let g = BigUint::from_u64(a).gcd(&BigUint::from_u64(b));
        let ga = BigUint::from_u64(a).div_rem(&g).1;
        let gb = BigUint::from_u64(b).div_rem(&g).1;
        prop_assert!(ga.is_zero() && gb.is_zero());
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..600),
        split in 0usize..600,
    ) {
        let split = split.min(data.len());
        let mut h = silentcert_crypto::sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn sim_signatures_bind_key_and_message(seed_a in any::<u64>(), seed_b in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assume!(seed_a != seed_b);
        let ka = KeyPair::Sim(SimKeyPair::from_seed(&seed_a.to_le_bytes()));
        let kb = KeyPair::Sim(SimKeyPair::from_seed(&seed_b.to_le_bytes()));
        let sig = ka.sign(&msg);
        prop_assert!(ka.public().verify(&msg, &sig).is_ok());
        prop_assert!(kb.public().verify(&msg, &sig).is_err());
        let mut tampered = msg.clone();
        tampered.push(0x77);
        prop_assert!(ka.public().verify(&tampered, &sig).is_err());
    }

    #[test]
    fn montgomery_modpow_matches_legacy_on_odd_moduli(
        base in proptest::collection::vec(any::<u8>(), 0..48),
        exp in proptest::collection::vec(any::<u8>(), 0..24),
        modulus in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        // Force the modulus odd (and nonzero) so the Montgomery path runs.
        let mut modulus = modulus;
        *modulus.last_mut().unwrap() |= 1;
        let (base, exp, modulus) = (big(&base), big(&exp), big(&modulus));
        prop_assert_eq!(
            base.modpow(&exp, &modulus),
            base.modpow_legacy(&exp, &modulus)
        );
    }

    #[test]
    fn montgomery_modpow_matches_legacy_on_even_moduli(
        base in any::<u64>(),
        exp in any::<u32>(),
        modulus in 2u64..1_000_000_000,
    ) {
        let (base, exp, modulus) = (
            BigUint::from_u64(base),
            BigUint::from_u64(u64::from(exp)),
            BigUint::from_u64(modulus),
        );
        prop_assert_eq!(
            base.modpow(&exp, &modulus),
            base.modpow_legacy(&exp, &modulus)
        );
    }

    #[test]
    fn spki_roundtrip_is_identity(seed in any::<u64>()) {
        let pk = KeyPair::Sim(SimKeyPair::from_seed(&seed.to_le_bytes())).public();
        let der = pk.to_spki_der();
        prop_assert_eq!(PublicKey::from_spki_der(&der).unwrap(), pk);
    }

    #[test]
    fn spki_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = PublicKey::from_spki_der(&bytes);
    }
}

/// RSA is too slow for hundreds of proptest cases, so run a focused set of
/// deterministic trials over one generated key.
#[test]
fn rsa_sign_verify_randomized_messages() {
    let mut rng = XorShift64::new(0xfeed);
    let kp = RsaKeyPair::generate(512, &mut rng);
    for i in 0..32u32 {
        let msg: Vec<u8> = (0..i * 7).map(|j| (j * 31 + i) as u8).collect();
        let sig = kp.sign(&msg);
        kp.public
            .verify(&msg, &sig)
            .expect("own signature verifies");
        // Any single-byte corruption must break it.
        let mut bad = sig.clone();
        let idx = (i as usize * 13) % bad.len();
        bad[idx] ^= 0x40;
        assert!(
            kp.public.verify(&msg, &bad).is_err(),
            "corrupted byte accepted"
        );
    }
}

/// The CRT fast path, the plain Montgomery path, and the fully legacy
/// baseline must all emit byte-identical PKCS#1 v1.5 signatures.
#[test]
fn rsa_crt_signatures_byte_identical_to_baseline() {
    let mut rng = XorShift64::new(0xc127);
    let kp = RsaKeyPair::generate(512, &mut rng);
    let plain = RsaKeyPair::from_parts(kp.public.n.clone(), kp.public.e.clone(), kp.d().clone());
    for i in 0..16u32 {
        let msg: Vec<u8> = (0..i * 11).map(|j| (j * 17 + i) as u8).collect();
        let fast = kp.sign(&msg);
        assert_eq!(fast, plain.sign(&msg), "CRT vs plain, msg {i}");
        assert_eq!(fast, kp.sign_baseline(&msg), "CRT vs legacy, msg {i}");
    }
}

#[test]
fn miller_rabin_agrees_with_trial_division_below_10000() {
    let mut rng = XorShift64::new(0x1234);
    let is_prime_naive = |n: u64| {
        if n < 2 {
            return false;
        }
        let mut d = 2;
        while d * d <= n {
            if n.is_multiple_of(d) {
                return false;
            }
            d += 1;
        }
        true
    };
    for n in 0..10_000u64 {
        let got = silentcert_crypto::prime::is_probable_prime(&BigUint::from_u64(n), &mut rng);
        assert_eq!(got, is_prime_naive(n), "disagreement at {n}");
    }
}
