//! Cryptographic substrate for silentcert, implemented from scratch.
//!
//! The paper's measurement pipeline needs exactly three cryptographic
//! capabilities:
//!
//! 1. **Hashing** — certificate fingerprints (SHA-256), subject key
//!    identifiers (SHA-1), and deterministic derivation in the simulator.
//!    SHA-256 compresses on the CPU's SHA extensions when a run-time check
//!    finds them; the instructions come through `std::arch`, so this adds
//!    no dependency.
//! 2. **Real signatures** — RSA with PKCS#1 v1.5 padding, so that chain
//!    signatures, self-signature checks (the paper's "manually verify the
//!    certificate's signature with its own public key" step), and
//!    bad-signature classification exercise real arithmetic.
//! 3. **Bulk key material** — millions of simulated devices each need a
//!    distinct, stable key identity. Generating millions of real RSA keys is
//!    compute-prohibitive, so the [`sig::SimKeyPair`] scheme provides
//!    deterministic hash-based keys that preserve everything the measurement
//!    pipeline consumes: key identity/sharing, verifiability of chain and
//!    self signatures, and detection of corrupted signatures. It is **not**
//!    unforgeable and must never be used outside simulation.
//!
//! Hex text for fingerprints, DER and digests goes through the one codec
//! in [`hex`].
//!
//! All big-integer arithmetic ([`bigint::BigUint`]) is implemented here:
//! schoolbook multiplication, Knuth Algorithm D division, modular
//! exponentiation on a fixed-width Montgomery kernel, extended-Euclid
//! inverses, and Miller–Rabin primality.

pub mod bigint;
pub mod entropy;
pub mod hex;
pub mod hmac;
pub mod keyfile;
pub mod prime;
pub mod rsa;
pub mod sha1;
pub mod sha256;
pub mod sig;

pub use bigint::BigUint;
pub use entropy::{EntropySource, XorShift64};
pub use rsa::{RsaKeyPair, RsaPublicKey};
pub use sha1::sha1;
pub use sha256::sha256;
pub use sig::{KeyPair, PublicKey, SigAlgorithm, Signature, SimKeyPair};
