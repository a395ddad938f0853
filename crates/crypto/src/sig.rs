//! Unified signature layer: real RSA and the simulated scheme.
//!
//! # The `Sim` scheme
//!
//! The simulator populates millions of devices, each of which needs a stable
//! key identity, and each certificate needs a signature that (a) verifies
//! under the signer's public key, (b) fails under any other key or after
//! corruption, and (c) verifies under the certificate's *own* public key
//! exactly when it is self-signed. `SimKeyPair` provides these properties
//! with two SHA-256 evaluations:
//!
//! ```text
//! public    = SHA256("silentcert/sim/public-key" || secret)
//! signature = SHA256("silentcert/sim/signature"  || public || message)
//! ```
//!
//! Because `signature` is computable from public data the scheme is
//! **trivially forgeable** — acceptable here because the threat model of a
//! measurement simulation contains no adversary. Every property the paper's
//! pipeline measures (key sharing, self-signature detection, chain
//! verification, corrupted-signature classification) is preserved. Real RSA
//! is used everywhere performance permits (root/intermediate CAs, tests,
//! examples).

use crate::rsa::{RsaError, RsaKeyPair, RsaPublicKey};
use crate::sha256::sha256_concat;
use silentcert_asn1::{oid, Decoder, Encoder};

const SIM_PUB_DOMAIN: &[u8] = b"silentcert/sim/public-key";
const SIM_SIG_DOMAIN: &[u8] = b"silentcert/sim/signature";

/// Signature algorithm identifiers (subset of `AlgorithmIdentifier`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigAlgorithm {
    /// sha256WithRSAEncryption.
    RsaSha256,
    /// The silentcert simulated scheme (private-arc OID).
    Sim,
}

/// A signature value with its algorithm.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    pub algorithm: SigAlgorithm,
    pub bytes: Vec<u8>,
}

/// A public key of either scheme.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PublicKey {
    Rsa(RsaPublicKey),
    Sim([u8; 32]),
}

/// A key pair of either scheme.
#[derive(Debug, Clone)]
pub enum KeyPair {
    Rsa(RsaKeyPair),
    Sim(SimKeyPair),
}

/// The deterministic simulated key pair (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimKeyPair {
    secret: [u8; 32],
    public: [u8; 32],
}

impl SimKeyPair {
    /// Derive a key pair from secret bytes.
    pub fn from_secret(secret: [u8; 32]) -> SimKeyPair {
        let public = sha256_concat(&[SIM_PUB_DOMAIN, &secret]);
        SimKeyPair { secret, public }
    }

    /// Derive a key pair deterministically from an arbitrary seed string.
    pub fn from_seed(seed: &[u8]) -> SimKeyPair {
        SimKeyPair::from_secret(crate::sha256::sha256(seed))
    }

    /// The public half.
    pub fn public(&self) -> [u8; 32] {
        self.public
    }

    /// The secret bytes, for key-file serialization.
    pub fn secret_bytes(&self) -> [u8; 32] {
        self.secret
    }

    /// Sign a message.
    pub fn sign(&self, msg: &[u8]) -> Vec<u8> {
        sim_signature_value(&self.public, msg).to_vec()
    }
}

/// The signature value the sim scheme assigns to `(public, msg)`.
fn sim_signature_value(public: &[u8; 32], msg: &[u8]) -> [u8; 32] {
    sha256_concat(&[SIM_SIG_DOMAIN, public, msg])
}

/// Verify a sim signature.
pub fn sim_verify(public: &[u8; 32], msg: &[u8], sig: &[u8]) -> bool {
    sig == sim_signature_value(public, msg)
}

/// Errors from the unified signature layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigError {
    /// Verification failed.
    BadSignature,
    /// The SPKI or signature DER structure was malformed.
    Malformed(&'static str),
    /// Key algorithm and signature algorithm do not match.
    AlgorithmMismatch,
}

impl std::fmt::Display for SigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SigError::BadSignature => write!(f, "signature verification failed"),
            SigError::Malformed(what) => write!(f, "malformed key material: {what}"),
            SigError::AlgorithmMismatch => write!(f, "key/signature algorithm mismatch"),
        }
    }
}

impl std::error::Error for SigError {}

impl KeyPair {
    /// The public half.
    pub fn public(&self) -> PublicKey {
        match self {
            KeyPair::Rsa(kp) => PublicKey::Rsa(kp.public.clone()),
            KeyPair::Sim(kp) => PublicKey::Sim(kp.public()),
        }
    }

    /// The signature algorithm this key produces.
    pub fn algorithm(&self) -> SigAlgorithm {
        match self {
            KeyPair::Rsa(_) => SigAlgorithm::RsaSha256,
            KeyPair::Sim(_) => SigAlgorithm::Sim,
        }
    }

    /// Sign a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        match self {
            KeyPair::Rsa(kp) => Signature {
                algorithm: SigAlgorithm::RsaSha256,
                bytes: kp.sign(msg),
            },
            KeyPair::Sim(kp) => Signature {
                algorithm: SigAlgorithm::Sim,
                bytes: kp.sign(msg),
            },
        }
    }
}

impl PublicKey {
    /// Verify `sig` over `msg`.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), SigError> {
        match (self, sig.algorithm) {
            (PublicKey::Rsa(pk), SigAlgorithm::RsaSha256) => {
                // A key refused for its size gets the verdict of a signature
                // that does not verify.
                pk.verify(msg, &sig.bytes).map_err(|e: RsaError| match e {
                    RsaError::BadSignature
                    | RsaError::MessageTooLong
                    | RsaError::ModulusTooLarge
                    | RsaError::ExponentTooLarge => SigError::BadSignature,
                })
            }
            (PublicKey::Sim(pk), SigAlgorithm::Sim) => {
                if sim_verify(pk, msg, &sig.bytes) {
                    Ok(())
                } else {
                    Err(SigError::BadSignature)
                }
            }
            _ => Err(SigError::AlgorithmMismatch),
        }
    }

    /// DER-encode as a `SubjectPublicKeyInfo`.
    pub fn to_spki_der(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.sequence(|enc| match self {
            PublicKey::Rsa(pk) => {
                enc.sequence(|enc| {
                    enc.oid(&oid::known::rsa_encryption());
                    enc.null();
                });
                let mut key = Encoder::new();
                key.sequence(|k| {
                    k.integer_unsigned(&pk.n.to_bytes_be());
                    k.integer_unsigned(&pk.e.to_bytes_be());
                });
                enc.bit_string(&key.finish());
            }
            PublicKey::Sim(pk) => {
                enc.sequence(|enc| {
                    enc.oid(&oid::known::sim_public_key());
                });
                enc.bit_string(pk);
            }
        });
        enc.finish()
    }

    /// Parse a `SubjectPublicKeyInfo`.
    pub fn from_spki_der(der: &[u8]) -> Result<PublicKey, SigError> {
        let mut dec = Decoder::new(der);
        let mut spki = dec
            .sequence()
            .map_err(|_| SigError::Malformed("SPKI outer"))?;
        let mut alg = spki
            .sequence()
            .map_err(|_| SigError::Malformed("SPKI algorithm"))?;
        let alg_oid = alg
            .oid()
            .map_err(|_| SigError::Malformed("SPKI algorithm OID"))?;
        let (_, key_bits) = spki
            .bit_string()
            .map_err(|_| SigError::Malformed("SPKI key bits"))?;
        if alg_oid == oid::known::rsa_encryption() {
            let mut key = Decoder::new(key_bits);
            let mut seq = key
                .sequence()
                .map_err(|_| SigError::Malformed("RSA key sequence"))?;
            let n = seq
                .integer_unsigned()
                .map_err(|_| SigError::Malformed("RSA modulus"))?;
            let e = seq
                .integer_unsigned()
                .map_err(|_| SigError::Malformed("RSA exponent"))?;
            Ok(PublicKey::Rsa(RsaPublicKey {
                n: crate::bigint::BigUint::from_bytes_be(n),
                e: crate::bigint::BigUint::from_bytes_be(e),
            }))
        } else if alg_oid == oid::known::sim_public_key() {
            let key: [u8; 32] = key_bits
                .try_into()
                .map_err(|_| SigError::Malformed("sim key length"))?;
            Ok(PublicKey::Sim(key))
        } else {
            Err(SigError::Malformed("unknown key algorithm"))
        }
    }

    /// SHA-256 over the SPKI encoding: the key identity used throughout the
    /// analysis pipeline ("public key" in the paper's feature tables).
    pub fn fingerprint(&self) -> [u8; 32] {
        crate::sha256::sha256(&self.to_spki_der())
    }
}

impl SigAlgorithm {
    /// The `AlgorithmIdentifier` OID.
    pub fn oid(&self) -> silentcert_asn1::Oid {
        match self {
            SigAlgorithm::RsaSha256 => oid::known::sha256_with_rsa(),
            SigAlgorithm::Sim => oid::known::sim_signature(),
        }
    }

    /// Encode as an `AlgorithmIdentifier` SEQUENCE.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|enc| {
            enc.oid(&self.oid());
            if matches!(self, SigAlgorithm::RsaSha256) {
                enc.null();
            }
        });
    }

    /// Decode from an `AlgorithmIdentifier` SEQUENCE.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<SigAlgorithm, SigError> {
        let mut seq = dec
            .sequence()
            .map_err(|_| SigError::Malformed("AlgorithmIdentifier"))?;
        let o = seq
            .oid()
            .map_err(|_| SigError::Malformed("AlgorithmIdentifier OID"))?;
        if o == oid::known::sha256_with_rsa() || o == oid::known::sha1_with_rsa() {
            Ok(SigAlgorithm::RsaSha256)
        } else if o == oid::known::sim_signature() {
            Ok(SigAlgorithm::Sim)
        } else {
            Err(SigError::Malformed("unknown signature algorithm"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::XorShift64;

    #[test]
    fn sim_sign_verify() {
        let kp = SimKeyPair::from_seed(b"device-1");
        let sig = kp.sign(b"tbs bytes");
        assert!(sim_verify(&kp.public(), b"tbs bytes", &sig));
        assert!(!sim_verify(&kp.public(), b"other bytes", &sig));
        let other = SimKeyPair::from_seed(b"device-2");
        assert!(!sim_verify(&other.public(), b"tbs bytes", &sig));
    }

    #[test]
    fn sim_deterministic() {
        assert_eq!(SimKeyPair::from_seed(b"x"), SimKeyPair::from_seed(b"x"));
        assert_ne!(
            SimKeyPair::from_seed(b"x").public(),
            SimKeyPair::from_seed(b"y").public()
        );
    }

    #[test]
    fn unified_sign_verify_sim() {
        let kp = KeyPair::Sim(SimKeyPair::from_seed(b"dev"));
        let sig = kp.sign(b"m");
        kp.public().verify(b"m", &sig).unwrap();
        assert_eq!(kp.public().verify(b"n", &sig), Err(SigError::BadSignature));
    }

    #[test]
    fn unified_sign_verify_rsa() {
        let mut rng = XorShift64::new(77);
        let kp = KeyPair::Rsa(RsaKeyPair::generate(512, &mut rng));
        let sig = kp.sign(b"m");
        kp.public().verify(b"m", &sig).unwrap();
        assert!(kp.public().verify(b"n", &sig).is_err());
    }

    #[test]
    fn algorithm_mismatch_detected() {
        let sim = KeyPair::Sim(SimKeyPair::from_seed(b"dev"));
        let mut rng = XorShift64::new(78);
        let rsa = KeyPair::Rsa(RsaKeyPair::generate(512, &mut rng));
        let sim_sig = sim.sign(b"m");
        assert_eq!(
            rsa.public().verify(b"m", &sim_sig),
            Err(SigError::AlgorithmMismatch)
        );
    }

    #[test]
    fn spki_roundtrip_sim() {
        let pk = KeyPair::Sim(SimKeyPair::from_seed(b"dev")).public();
        let der = pk.to_spki_der();
        assert_eq!(PublicKey::from_spki_der(&der).unwrap(), pk);
    }

    #[test]
    fn spki_roundtrip_rsa() {
        let mut rng = XorShift64::new(79);
        let pk = KeyPair::Rsa(RsaKeyPair::generate(512, &mut rng)).public();
        let der = pk.to_spki_der();
        assert_eq!(PublicKey::from_spki_der(&der).unwrap(), pk);
    }

    #[test]
    fn fingerprints_are_stable_key_identities() {
        let a = KeyPair::Sim(SimKeyPair::from_seed(b"a")).public();
        let a2 = KeyPair::Sim(SimKeyPair::from_seed(b"a")).public();
        let b = KeyPair::Sim(SimKeyPair::from_seed(b"b")).public();
        assert_eq!(a.fingerprint(), a2.fingerprint());
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn malformed_spki_rejected() {
        assert!(PublicKey::from_spki_der(&[]).is_err());
        assert!(PublicKey::from_spki_der(&[0x30, 0x00]).is_err());
        // Valid structure, unknown OID.
        let mut enc = Encoder::new();
        enc.sequence(|enc| {
            enc.sequence(|e| e.oid(&silentcert_asn1::oid::known::common_name()));
            enc.bit_string(&[0; 32]);
        });
        assert!(PublicKey::from_spki_der(&enc.finish()).is_err());
    }

    #[test]
    fn algorithm_identifier_roundtrip() {
        for alg in [SigAlgorithm::RsaSha256, SigAlgorithm::Sim] {
            let mut enc = Encoder::new();
            alg.encode(&mut enc);
            let der = enc.finish();
            let mut dec = Decoder::new(&der);
            assert_eq!(SigAlgorithm::decode(&mut dec).unwrap(), alg);
        }
    }
}
