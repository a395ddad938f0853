//! RSA key generation and PKCS#1 v1.5 signatures, from scratch.
//!
//! Textbook-correct but not hardened (no constant-time guarantees, no
//! blinding): this substrate exists so the certificate pipeline exercises
//! real modular arithmetic, not to protect production traffic.

use crate::bigint::BigUint;
use crate::entropy::EntropySource;
use crate::prime::generate_prime;
use crate::sha256::sha256;

/// DER prefix of `DigestInfo` for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// Shortest modulus, in bytes, that holds an EMSA-PKCS1-v1_5 SHA-256
/// encoding: the `DigestInfo`, the digest and 11 bytes of padding.
const MIN_MODULUS_LEN: usize = SHA256_DIGEST_INFO_PREFIX.len() + 32 + 11;

/// The conventional RSA public exponent.
pub fn default_exponent() -> BigUint {
    BigUint::from_u64(65_537)
}

/// An RSA public key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    /// Modulus.
    pub n: BigUint,
    /// Public exponent.
    pub e: BigUint,
}

/// An RSA key pair.
#[derive(Debug, Clone)]
pub struct RsaKeyPair {
    /// The public half.
    pub public: RsaPublicKey,
    /// Private exponent.
    d: BigUint,
    /// CRT acceleration parameters; present when the prime factors were
    /// retained (fresh generation or a key file carrying `p`/`q`).
    crt: Option<CrtParams>,
}

/// Chinese-remainder-theorem private-key parameters (RFC 8017 §3.2).
#[derive(Debug, Clone)]
struct CrtParams {
    p: BigUint,
    q: BigUint,
    /// `d mod (p - 1)`.
    d_p: BigUint,
    /// `d mod (q - 1)`.
    d_q: BigUint,
    /// `q^{-1} mod p`.
    q_inv: BigUint,
}

impl CrtParams {
    /// Derive the CRT exponents from `d` and the prime factors.
    ///
    /// Returns `None` if `p`/`q` are not a valid factorization witness
    /// (`q` not invertible mod `p`, e.g. `p == q`).
    fn derive(d: &BigUint, p: BigUint, q: BigUint) -> Option<CrtParams> {
        let one = BigUint::one();
        let q_inv = q.mod_inverse(&p)?;
        Some(CrtParams {
            d_p: d.rem(&p.sub(&one)),
            d_q: d.rem(&q.sub(&one)),
            p,
            q,
            q_inv,
        })
    }

    /// `m^d mod n` via the two half-size exponentiations + recombination.
    fn private_op(&self, m: &BigUint) -> BigUint {
        let m1 = m.modpow(&self.d_p, &self.p);
        let m2 = m.modpow(&self.d_q, &self.q);
        // h = q_inv * (m1 - m2) mod p, with the subtraction lifted into
        // non-negative territory first.
        let m2p = m2.rem(&self.p);
        let diff = if m1 >= m2p {
            m1.sub(&m2p)
        } else {
            m1.add(&self.p).sub(&m2p)
        };
        let h = self.q_inv.mul(&diff).rem(&self.p);
        m2.add(&self.q.mul(&h))
    }
}

/// Widest modulus [`RsaPublicKey::verify`] works on, in bits (OpenSSL's
/// `OPENSSL_RSA_MAX_MODULUS_BITS`).
pub const MAX_MODULUS_BITS: usize = 16_384;

/// Above this many modulus bits, [`RsaPublicKey::verify`] takes public
/// exponents of at most [`MAX_PUBEXP_BITS`] (OpenSSL's
/// `OPENSSL_RSA_SMALL_MODULUS_BITS`).
pub const SMALL_MODULUS_BITS: usize = 3_072;

/// Longest public exponent, in bits, on a modulus over
/// [`SMALL_MODULUS_BITS`] (OpenSSL's `OPENSSL_RSA_MAX_PUBEXP_BITS`).
pub const MAX_PUBEXP_BITS: usize = 64;

/// Errors from RSA operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsaError {
    /// The message representative was out of range for the modulus.
    MessageTooLong,
    /// Signature verification failed.
    BadSignature,
    /// The modulus is wider than [`MAX_MODULUS_BITS`].
    ModulusTooLarge,
    /// The public exponent is not below the modulus, or is longer than
    /// [`MAX_PUBEXP_BITS`] on a modulus over [`SMALL_MODULUS_BITS`].
    ExponentTooLarge,
}

impl std::fmt::Display for RsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsaError::MessageTooLong => write!(f, "message representative out of range"),
            RsaError::BadSignature => write!(f, "RSA signature verification failed"),
            RsaError::ModulusTooLarge => {
                write!(f, "RSA modulus wider than {MAX_MODULUS_BITS} bits")
            }
            RsaError::ExponentTooLarge => write!(
                f,
                "RSA public exponent not below the modulus, or over {MAX_PUBEXP_BITS} bits on a modulus over {SMALL_MODULUS_BITS} bits"
            ),
        }
    }
}

impl std::error::Error for RsaError {}

impl RsaKeyPair {
    /// Generate a key pair with a modulus of `bits` bits.
    ///
    /// `bits` must be even and at least 128 (tests use small sizes; real
    /// deployments would use ≥ 2048 — the arithmetic is identical).
    pub fn generate(bits: usize, rng: &mut dyn EntropySource) -> RsaKeyPair {
        assert!(
            bits >= 128 && bits.is_multiple_of(2),
            "unsupported RSA modulus size {bits}"
        );
        let e = default_exponent();
        loop {
            let p = generate_prime(bits / 2, rng);
            let q = generate_prime(bits / 2, rng);
            if p == q {
                continue;
            }
            let one = BigUint::one();
            let phi = p.sub(&one).mul(&q.sub(&one));
            let Some(d) = e.mod_inverse(&phi) else {
                continue; // gcd(e, phi) != 1; re-draw primes
            };
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let crt = CrtParams::derive(&d, p, q);
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                d,
                crt,
            };
        }
    }

    /// Reassemble a key pair from raw parts (e.g. a cached key file).
    ///
    /// Without the prime factors, signing uses a single full-width
    /// exponentiation; see [`from_parts_with_primes`](Self::from_parts_with_primes).
    pub fn from_parts(n: BigUint, e: BigUint, d: BigUint) -> RsaKeyPair {
        RsaKeyPair {
            public: RsaPublicKey { n, e },
            d,
            crt: None,
        }
    }

    /// Reassemble a key pair including its prime factors, enabling the CRT
    /// signing fast path. Falls back to the plain path if `p * q != n`.
    pub fn from_parts_with_primes(
        n: BigUint,
        e: BigUint,
        d: BigUint,
        p: BigUint,
        q: BigUint,
    ) -> RsaKeyPair {
        let crt = if p.mul(&q) == n {
            CrtParams::derive(&d, p, q)
        } else {
            None
        };
        RsaKeyPair {
            public: RsaPublicKey { n, e },
            d,
            crt,
        }
    }

    /// Private exponent, for serialization.
    pub fn d(&self) -> &BigUint {
        &self.d
    }

    /// Prime factors `(p, q)`, when retained — for serialization.
    pub fn primes(&self) -> Option<(&BigUint, &BigUint)> {
        self.crt.as_ref().map(|c| (&c.p, &c.q))
    }

    /// Sign `msg` with RSASSA-PKCS1-v1_5 over SHA-256.
    ///
    /// Uses the CRT fast path when the prime factors are available
    /// (two half-size exponentiations instead of one full-size one);
    /// signatures are byte-identical either way.
    pub fn sign(&self, msg: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15(msg, k);
        let m = BigUint::from_bytes_be(&em);
        let s = match &self.crt {
            Some(crt) => crt.private_op(&m),
            None => m.modpow(&self.d, &self.public.n),
        };
        s.to_bytes_be_padded(k)
    }

    /// Sign `msg` via the pre-optimization path: no CRT, legacy
    /// square-and-multiply `modpow`. Retained as the oracle the fast path
    /// is property-tested against.
    pub fn sign_baseline(&self, msg: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_v15(msg, k);
        let m = BigUint::from_bytes_be(&em);
        let s = m.modpow_legacy(&self.d, &self.public.n);
        s.to_bytes_be_padded(k)
    }
}

impl RsaPublicKey {
    /// Modulus length in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Verify an RSASSA-PKCS1-v1_5 / SHA-256 signature over `msg`.
    ///
    /// A key outside OpenSSL's bounds is refused before any arithmetic, so
    /// a hostile certificate cannot make one check run for seconds: a
    /// modulus over [`MAX_MODULUS_BITS`], an exponent not below the
    /// modulus, or an exponent over [`MAX_PUBEXP_BITS`] on a modulus over
    /// [`SMALL_MODULUS_BITS`].
    pub fn verify(&self, msg: &[u8], signature: &[u8]) -> Result<(), RsaError> {
        let bits = self.n.bit_len();
        if bits > MAX_MODULUS_BITS {
            return Err(RsaError::ModulusTooLarge);
        }
        if self.e >= self.n || bits > SMALL_MODULUS_BITS && self.e.bit_len() > MAX_PUBEXP_BITS {
            return Err(RsaError::ExponentTooLarge);
        }
        let k = self.modulus_len();
        // A modulus too short for the SHA-256 encoding verifies nothing.
        if signature.len() != k || k < MIN_MODULUS_LEN {
            return Err(RsaError::BadSignature);
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return Err(RsaError::MessageTooLong);
        }
        let m = s.modpow(&self.e, &self.n);
        VERIFY_SCRATCH.with(|cell| {
            let (em, expected) = &mut *cell.borrow_mut();
            m.to_bytes_be_padded_into(k, em);
            emsa_pkcs1_v15_into(msg, k, expected);
            if em == expected {
                Ok(())
            } else {
                Err(RsaError::BadSignature)
            }
        })
    }
}

thread_local! {
    /// Scratch buffers for the decoded message representative and expected
    /// encoding in `verify`, reused across calls so chain walks (which
    /// verify many candidate signatures) do not churn the allocator.
    static VERIFY_SCRATCH: std::cell::RefCell<(Vec<u8>, Vec<u8>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// EMSA-PKCS1-v1_5 encoding of SHA-256(msg) into `k` bytes.
fn emsa_pkcs1_v15(msg: &[u8], k: usize) -> Vec<u8> {
    let mut em = Vec::with_capacity(k);
    emsa_pkcs1_v15_into(msg, k, &mut em);
    em
}

/// EMSA-PKCS1-v1_5 encoding into a reusable buffer (cleared first).
fn emsa_pkcs1_v15_into(msg: &[u8], k: usize, em: &mut Vec<u8>) {
    let digest = sha256(msg);
    let t_len = SHA256_DIGEST_INFO_PREFIX.len() + digest.len();
    assert!(
        k >= MIN_MODULUS_LEN,
        "modulus too small for PKCS#1 v1.5 SHA-256"
    );
    em.clear();
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xff);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO_PREFIX);
    em.extend_from_slice(&digest);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::XorShift64;

    fn test_key() -> RsaKeyPair {
        let mut rng = XorShift64::new(0x5117);
        RsaKeyPair::generate(512, &mut rng)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = test_key();
        let msg = b"to be signed";
        let sig = kp.sign(msg);
        assert_eq!(sig.len(), kp.public.modulus_len());
        kp.public.verify(msg, &sig).unwrap();
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = test_key();
        let sig = kp.sign(b"message A");
        assert_eq!(
            kp.public.verify(b"message B", &sig),
            Err(RsaError::BadSignature)
        );
    }

    #[test]
    fn corrupted_signature_rejected() {
        let kp = test_key();
        let mut sig = kp.sign(b"msg");
        sig[10] ^= 0x01;
        assert!(kp.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = test_key();
        let mut rng = XorShift64::new(0xbeef);
        let kp2 = RsaKeyPair::generate(512, &mut rng);
        assert_ne!(kp1.public, kp2.public);
        let sig = kp1.sign(b"msg");
        assert!(kp2.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn wrong_length_signature_rejected() {
        let kp = test_key();
        let sig = kp.sign(b"msg");
        assert!(kp.public.verify(b"msg", &sig[..sig.len() - 1]).is_err());
        let mut long = sig.clone();
        long.push(0);
        assert!(kp.public.verify(b"msg", &long).is_err());
    }

    #[test]
    fn deterministic_signatures() {
        // PKCS#1 v1.5 signing is deterministic.
        let kp = test_key();
        assert_eq!(kp.sign(b"x"), kp.sign(b"x"));
    }

    #[test]
    fn from_parts_roundtrip() {
        let kp = test_key();
        let rebuilt =
            RsaKeyPair::from_parts(kp.public.n.clone(), kp.public.e.clone(), kp.d().clone());
        let sig = rebuilt.sign(b"rebuilt");
        kp.public.verify(b"rebuilt", &sig).unwrap();
    }

    #[test]
    fn crt_sign_matches_plain_and_baseline() {
        let kp = test_key();
        assert!(kp.primes().is_some(), "generate retains the factors");
        let plain =
            RsaKeyPair::from_parts(kp.public.n.clone(), kp.public.e.clone(), kp.d().clone());
        for msg in [
            b"a".as_slice(),
            b"".as_slice(),
            b"longer message body".as_slice(),
        ] {
            let fast = kp.sign(msg);
            assert_eq!(fast, plain.sign(msg));
            assert_eq!(fast, kp.sign_baseline(msg));
            kp.public.verify(msg, &fast).unwrap();
        }
    }

    #[test]
    fn from_parts_with_primes_enables_crt() {
        let kp = test_key();
        let (p, q) = kp.primes().unwrap();
        let rebuilt = RsaKeyPair::from_parts_with_primes(
            kp.public.n.clone(),
            kp.public.e.clone(),
            kp.d().clone(),
            p.clone(),
            q.clone(),
        );
        assert!(rebuilt.primes().is_some());
        assert_eq!(rebuilt.sign(b"msg"), kp.sign(b"msg"));
        // Bogus factors are rejected rather than producing bad signatures.
        let bogus = RsaKeyPair::from_parts_with_primes(
            kp.public.n.clone(),
            kp.public.e.clone(),
            kp.d().clone(),
            BigUint::from_u64(17),
            BigUint::from_u64(19),
        );
        assert!(bogus.primes().is_none());
        assert_eq!(bogus.sign(b"msg"), kp.sign(b"msg"));
    }

    /// `2^(bits-1) + 1`: odd, exactly `bits` bits.
    fn odd_modulus(bits: usize) -> BigUint {
        let mut n = BigUint::one();
        n.set_bit(bits - 1);
        n
    }

    /// A key with public and private exponent 1, so its signature over a
    /// message is the message's encoding and verifies under any modulus
    /// the arithmetic accepts.
    fn identity_key(bits: usize) -> RsaKeyPair {
        RsaKeyPair::from_parts(odd_modulus(bits), BigUint::one(), BigUint::one())
    }

    #[test]
    fn verify_refuses_moduli_over_the_limit() {
        let at = identity_key(MAX_MODULUS_BITS);
        at.public.verify(b"m", &at.sign(b"m")).unwrap();
        let over = identity_key(MAX_MODULUS_BITS + 1);
        assert_eq!(
            over.public.verify(b"m", &over.sign(b"m")),
            Err(RsaError::ModulusTooLarge)
        );
    }

    #[test]
    fn verify_refuses_long_exponents_on_wide_moduli() {
        let key = |bits: usize, e_bits: usize| RsaPublicKey {
            n: odd_modulus(bits),
            e: odd_modulus(e_bits),
        };
        let verify = |pk: RsaPublicKey| {
            // Below the modulus, so only the arithmetic can reject it.
            let mut sig = vec![0x01; pk.modulus_len()];
            sig[0] = 0;
            pk.verify(b"m", &sig)
        };
        let over = MAX_PUBEXP_BITS + 1;
        assert_eq!(
            verify(key(SMALL_MODULUS_BITS + 1, over)),
            Err(RsaError::ExponentTooLarge)
        );
        // At either limit the arithmetic runs, and the arbitrary signature
        // fails as a signature.
        assert_eq!(
            verify(key(SMALL_MODULUS_BITS + 1, MAX_PUBEXP_BITS)),
            Err(RsaError::BadSignature)
        );
        assert_eq!(
            verify(key(SMALL_MODULUS_BITS, over)),
            Err(RsaError::BadSignature)
        );
    }

    #[test]
    fn verify_refuses_exponents_not_below_the_modulus() {
        let kp = test_key();
        let sig = kp.sign(b"m");
        let n = &kp.public.n;
        let with_e = |e: BigUint| RsaPublicKey { n: n.clone(), e }.verify(b"m", &sig);
        assert_eq!(with_e(n.clone()), Err(RsaError::ExponentTooLarge));
        assert_eq!(
            with_e(n.sub(&BigUint::from_u64(2))),
            Err(RsaError::BadSignature)
        );
    }

    #[test]
    fn verify_rejects_moduli_too_short_for_the_encoding() {
        for len in [MIN_MODULUS_LEN - 1, 32, 1] {
            let pk = RsaPublicKey {
                n: odd_modulus(8 * len),
                e: BigUint::from_u64(3),
            };
            assert_eq!(
                pk.verify(b"m", &vec![0x01; len]),
                Err(RsaError::BadSignature),
                "{len}-byte modulus"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut r1 = XorShift64::new(99);
        let mut r2 = XorShift64::new(99);
        let k1 = RsaKeyPair::generate(256, &mut r1);
        let k2 = RsaKeyPair::generate(256, &mut r2);
        assert_eq!(k1.public, k2.public);
    }
}
