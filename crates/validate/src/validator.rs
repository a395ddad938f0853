//! Chain building and classification.

use crate::classify::{Classification, InvalidityReason};
use crate::memo::ClockMap;
use crate::store::TrustStore;
use silentcert_crypto::PublicKey;
use silentcert_x509::{Certificate, Fingerprint, Name};
use std::collections::{HashMap, HashSet};

/// Process-global metric handles (`silentcert_validate_*`), registered
/// once and then atomics-only on the classify/verify hot paths.
mod obs {
    use silentcert_obs::metrics::{global, Counter};
    use std::sync::{Arc, OnceLock};

    pub fn memo_hits() -> &'static Arc<Counter> {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| global().counter("silentcert_validate_memo_hits_total"))
    }

    pub fn memo_misses() -> &'static Arc<Counter> {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| global().counter("silentcert_validate_memo_misses_total"))
    }

    /// One counter per classification outcome, labelled to match the
    /// paper's invalidity breakdown.
    pub fn outcome(label: &'static str) -> Arc<Counter> {
        static MAP: OnceLock<[(&str, Arc<Counter>); 5]> = OnceLock::new();
        let map = MAP.get_or_init(|| {
            let c = |l| {
                (
                    l,
                    global().counter_with(
                        "silentcert_validate_classifications_total",
                        &[("outcome", l)],
                    ),
                )
            };
            [
                c("valid"),
                c("self_signed"),
                c("untrusted_issuer"),
                c("bad_signature"),
                c("parse_failure"),
            ]
        });
        map.iter()
            .find(|(l, _)| *l == label)
            .map(|(_, c)| Arc::clone(c))
            .expect("known outcome label")
    }
}

/// Maximum chain length (leaf to root inclusive) the builder explores.
const MAX_CHAIN: usize = 8;

/// Candidate edges one chain search may try, memo hits included. Parents
/// that share a name can be tried along every simple path through them,
/// and keys that verify every signature (RSA exponent 1) make that
/// exponential in the parents presented; past this bound the search ends
/// with no chain.
const MAX_CHAIN_EDGES: usize = 256;

/// Default cap on the verify memo. An entry is ~80 bytes, so the default
/// bounds the memo at a few megabytes — enough to cover every chain edge
/// of a full corpus run while keeping a long-lived daemon's memory flat.
pub const DEFAULT_VERIFY_MEMO_CAPACITY: usize = 65_536;

/// The metric label for a classification outcome.
fn outcome_label(c: &Classification) -> &'static str {
    match c {
        Classification::Valid { .. } => "valid",
        Classification::Invalid(InvalidityReason::SelfSigned) => "self_signed",
        Classification::Invalid(InvalidityReason::UntrustedIssuer) => "untrusted_issuer",
        Classification::Invalid(InvalidityReason::BadSignature) => "bad_signature",
        Classification::Invalid(InvalidityReason::ParseFailure) => "parse_failure",
    }
}

/// Whether a certificate is allowed to sign other certificates: Basic
/// Constraints must mark it a CA, and if a KeyUsage extension is present
/// it must include `keyCertSign` (RFC 5280 §4.2.1.3).
fn can_sign_certs(cert: &Certificate) -> bool {
    if !cert.is_ca() {
        return false;
    }
    for ext in &cert.extensions {
        if let silentcert_x509::Extension::KeyUsage(flags) = ext {
            return flags & silentcert_x509::extensions::key_usage::KEY_CERT_SIGN != 0;
        }
    }
    true
}

/// A certificate and its fingerprint, hashed once: per classification for
/// the leaf, per chain edge for a candidate parent.
#[derive(Clone, Copy)]
struct Hashed<'a> {
    cert: &'a Certificate,
    fp: Fingerprint,
}

impl<'a> From<&'a Certificate> for Hashed<'a> {
    fn from(cert: &'a Certificate) -> Hashed<'a> {
        Hashed {
            cert,
            fp: cert.fingerprint(),
        }
    }
}

/// The certificate validator.
///
/// Holds the trusted roots plus a pool of intermediates collected from the
/// whole dataset, enabling "transvalid" repair: a leaf whose server
/// presented an incomplete chain still validates if the missing
/// intermediates were observed elsewhere (§4.2).
#[derive(Debug, Clone)]
pub struct Validator {
    trust: TrustStore,
    /// Intermediate pool, indexed by subject name.
    intermediates: HashMap<Name, Vec<Certificate>>,
    /// Fingerprints already pooled (dedup).
    pooled: HashSet<Fingerprint>,
    /// `(parent cert fingerprint, cert fingerprint) → verified?` memo, so
    /// repeated chain walks never re-run an RSA verification for an edge
    /// they have already tested. Interior mutability keeps `classify`
    /// `&self` (and the validator shareable across classification
    /// workers); the cached outcome is deterministic, so the memo never
    /// changes results, only speed. Bounded with clock eviction so a
    /// long-lived daemon's memory stays flat under an endless stream of
    /// distinct certificates.
    verify_memo: ClockMap<(Fingerprint, Fingerprint), bool>,
}

impl Default for Validator {
    fn default() -> Validator {
        Validator::new(TrustStore::default())
    }
}

impl Validator {
    /// A validator trusting the given store, with an empty intermediate
    /// pool.
    pub fn new(trust: TrustStore) -> Validator {
        Validator {
            trust,
            intermediates: HashMap::new(),
            pooled: HashSet::new(),
            verify_memo: ClockMap::new(DEFAULT_VERIFY_MEMO_CAPACITY),
        }
    }

    /// Re-cap the verify memo (entries beyond the new capacity are
    /// dropped). The memo only affects speed, never results.
    pub fn set_memo_capacity(&mut self, capacity: usize) {
        self.verify_memo = self.verify_memo.clone_with_capacity(capacity);
    }

    /// Verified-edge entries currently memoized.
    pub fn memo_len(&self) -> usize {
        self.verify_memo.len()
    }

    /// Memo entries evicted so far (bounded-memory pressure indicator).
    pub fn memo_evictions(&self) -> u64 {
        self.verify_memo.evictions()
    }

    /// Whether `parent`'s key signed `cert`, through the fingerprint-keyed
    /// memo. The parent certificate's fingerprint names its key, and
    /// hashing its DER costs less than re-encoding the key's SPKI;
    /// `parent_fp` is that fingerprint if the caller has it already.
    ///
    /// Only RSA parents are memoized: the hash-based sim scheme verifies in
    /// about the time it takes to key the map, so caching it would be pure
    /// overhead.
    fn verify_cached(
        &self,
        cert: Hashed<'_>,
        parent: &Certificate,
        parent_fp: Option<Fingerprint>,
    ) -> bool {
        let parent_key = &parent.public_key;
        if !matches!(parent_key, PublicKey::Rsa(_)) {
            return cert.cert.verify_signed_by(parent_key).is_ok();
        }
        let key = (parent_fp.unwrap_or_else(|| parent.fingerprint()), cert.fp);
        if let Some(hit) = self.verify_memo.get(&key) {
            obs::memo_hits().inc();
            return hit;
        }
        obs::memo_misses().inc();
        let ok = cert.cert.verify_signed_by(parent_key).is_ok();
        self.verify_memo.insert(key, ok);
        ok
    }

    /// The trust store.
    pub fn trust_store(&self) -> &TrustStore {
        &self.trust
    }

    /// Add a CA certificate to the intermediate pool. Non-CA certificates,
    /// CAs whose KeyUsage denies certificate signing, and duplicates are
    /// ignored. Returns whether the pool grew.
    pub fn add_intermediate(&mut self, cert: &Certificate) -> bool {
        if !can_sign_certs(cert) {
            return false;
        }
        let fp = cert.fingerprint();
        if !self.pooled.insert(fp) {
            return false;
        }
        self.intermediates
            .entry(cert.subject.clone())
            .or_default()
            .push(cert.clone());
        true
    }

    /// Number of pooled intermediates.
    pub fn intermediate_count(&self) -> usize {
        self.pooled.len()
    }

    /// Classify a certificate, ignoring expiry (§4.2 semantics). `presented`
    /// is the extra chain the server sent alongside the leaf (possibly
    /// empty).
    pub fn classify(&self, cert: &Certificate, presented: &[Certificate]) -> Classification {
        let outcome = self.classify_inner(cert, presented);
        obs::outcome(outcome_label(&outcome)).inc();
        outcome
    }

    fn classify_inner(&self, cert: &Certificate, presented: &[Certificate]) -> Classification {
        let leaf = Hashed::from(cert);
        // Trusted roots are trivially valid.
        if self.trust.contains_fingerprint(&leaf.fp) {
            return Classification::Valid {
                chain_len: 1,
                transvalid: false,
            };
        }

        // Chain search: depth-first over candidate parents.
        let mut visited = HashSet::from([leaf.fp]);
        if let Some((chain_len, transvalid)) =
            self.build_chain(leaf, presented, &mut visited, &mut 0, 1)
        {
            return Classification::Valid {
                chain_len,
                transvalid,
            };
        }

        // No trusted chain. Reproduce the paper's invalidity breakdown:
        // error 19 / manual self-signature check first, then untrusted
        // issuer, then signature errors.
        if self.verify_cached(leaf, cert, Some(leaf.fp)) {
            return Classification::Invalid(InvalidityReason::SelfSigned);
        }
        // If *some* candidate issuer key verifies the signature the chain
        // merely fails to reach a root → untrusted issuer. If a candidate
        // with the right name exists but none verifies → bad signature.
        // If no candidate exists at all, the issuer is unknown, which the
        // paper folds into "signed by a different, untrusted certificate".
        let mut saw_candidate = false;
        let trusted_candidates = self.trust.roots_named(&cert.issuer);
        for parent in self
            .candidate_parents(cert, presented)
            .chain(trusted_candidates)
        {
            saw_candidate = true;
            if self.verify_cached(leaf, parent, None) {
                return Classification::Invalid(InvalidityReason::UntrustedIssuer);
            }
        }
        if saw_candidate {
            Classification::Invalid(InvalidityReason::BadSignature)
        } else {
            Classification::Invalid(InvalidityReason::UntrustedIssuer)
        }
    }

    /// Classify raw DER (parse failures become
    /// [`InvalidityReason::ParseFailure`]).
    pub fn classify_der(&self, der: &[u8], presented: &[Certificate]) -> Classification {
        match Certificate::from_der(der) {
            Ok(cert) => self.classify(&cert, presented),
            Err(_) => {
                obs::outcome("parse_failure").inc();
                Classification::Invalid(InvalidityReason::ParseFailure)
            }
        }
    }

    /// Classify at a specific day, additionally enforcing the validity
    /// window over the **whole chain** (strict mode — not the paper's
    /// headline semantics, provided for completeness and ablations).
    pub fn classify_at(
        &self,
        cert: &Certificate,
        presented: &[Certificate],
        day: i64,
    ) -> Result<Classification, &'static str> {
        let outcome = self.classify(cert, presented);
        if outcome.is_valid() {
            let nb = cert.not_before.unix_days();
            let na = cert.not_after.unix_days();
            if day < nb {
                return Err("certificate is not yet valid");
            }
            if day > na {
                return Err("certificate has expired");
            }
        }
        Ok(outcome)
    }

    /// Depth-first chain construction. Returns `(chain_len, transvalid)` on
    /// reaching a trusted root. `edges` counts the candidate edges tried;
    /// once it reaches [`MAX_CHAIN_EDGES`] the whole search returns `None`.
    fn build_chain<'c>(
        &self,
        cert: impl Into<Hashed<'c>>,
        presented: &[Certificate],
        visited: &mut HashSet<Fingerprint>,
        edges: &mut usize,
        depth: usize,
    ) -> Option<(u8, bool)> {
        let cert = cert.into();
        if depth >= MAX_CHAIN {
            return None;
        }
        // Terminal: a trusted root signed this certificate.
        for root in self.trust.roots_named(&cert.cert.issuer) {
            if self.try_edge(cert, root, None, edges)? {
                return Some((depth as u8 + 1, false));
            }
        }
        // Recurse through intermediates: presented chain first (a complete
        // presented chain is the non-transvalid path), then the pool.
        for (from_pool, parent) in self.candidate_parents_tagged(cert.cert, presented) {
            let parent = Hashed::from(parent);
            if parent.fp == cert.fp || !visited.insert(parent.fp) {
                continue;
            }
            if self.try_edge(cert, parent.cert, Some(parent.fp), edges)? {
                if let Some((len, trans)) =
                    self.build_chain(parent, presented, visited, edges, depth + 1)
                {
                    return Some((len, trans || from_pool));
                }
            }
            visited.remove(&parent.fp);
        }
        None
    }

    /// One candidate edge of the chain search, counted against
    /// [`MAX_CHAIN_EDGES`]: whether `parent` signed `cert`, or `None` once
    /// the search has tried as many edges as it may.
    fn try_edge(
        &self,
        cert: Hashed<'_>,
        parent: &Certificate,
        parent_fp: Option<Fingerprint>,
        edges: &mut usize,
    ) -> Option<bool> {
        if *edges == MAX_CHAIN_EDGES {
            return None;
        }
        *edges += 1;
        Some(self.verify_cached(cert, parent, parent_fp))
    }

    /// Candidate parents by issuer-name match: presented chain then pool.
    fn candidate_parents<'a>(
        &'a self,
        cert: &'a Certificate,
        presented: &'a [Certificate],
    ) -> impl Iterator<Item = &'a Certificate> {
        self.candidate_parents_tagged(cert, presented)
            .map(|(_, c)| c)
    }

    fn candidate_parents_tagged<'a>(
        &'a self,
        cert: &'a Certificate,
        presented: &'a [Certificate],
    ) -> impl Iterator<Item = (bool, &'a Certificate)> {
        let from_presented = presented
            .iter()
            .filter(move |p| p.subject == cert.issuer && can_sign_certs(p))
            .map(|p| (false, p));
        let from_pool = self
            .intermediates
            .get(&cert.issuer)
            .into_iter()
            .flatten()
            .map(|p| (true, p));
        from_presented.chain(from_pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silentcert_asn1::Time;
    use silentcert_crypto::sig::{KeyPair, SimKeyPair};
    use silentcert_crypto::{BigUint, RsaKeyPair};
    use silentcert_x509::CertificateBuilder;

    fn key(seed: &str) -> KeyPair {
        KeyPair::Sim(SimKeyPair::from_seed(seed.as_bytes()))
    }

    fn years(from: i32, to: i32) -> (Time, Time) {
        (
            Time::from_ymd(from, 1, 1).unwrap(),
            Time::from_ymd(to, 1, 1).unwrap(),
        )
    }

    struct Pki {
        root: Certificate,
        root_key: KeyPair,
        intermediate: Certificate,
        intermediate_key: KeyPair,
    }

    fn pki() -> Pki {
        let root_key = key("root");
        let (nb, na) = years(2000, 2040);
        let root = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("Sim Root CA"))
            .validity(nb, na)
            .ca(None)
            .self_signed(&root_key);
        let intermediate_key = key("intermediate");
        let intermediate = CertificateBuilder::new()
            .serial_u64(2)
            .subject(Name::with_common_name("Sim Intermediate CA"))
            .issuer(root.subject.clone())
            .public_key(intermediate_key.public())
            .validity(nb, na)
            .ca(Some(0))
            .sign_with(&root_key);
        Pki {
            root,
            root_key,
            intermediate,
            intermediate_key,
        }
    }

    fn leaf(p: &Pki, cn: &str) -> Certificate {
        let leaf_key = key(cn);
        let (nb, na) = years(2013, 2014);
        CertificateBuilder::new()
            .serial_u64(77)
            .subject(Name::with_common_name(cn))
            .issuer(p.intermediate.subject.clone())
            .public_key(leaf_key.public())
            .validity(nb, na)
            .sign_with(&p.intermediate_key)
    }

    #[test]
    fn complete_presented_chain_is_valid_not_transvalid() {
        let p = pki();
        let v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        let l = leaf(&p, "example.com");
        let out = v.classify(&l, std::slice::from_ref(&p.intermediate));
        assert_eq!(
            out,
            Classification::Valid {
                chain_len: 3,
                transvalid: false
            }
        );
    }

    #[test]
    fn missing_intermediate_without_pool_is_untrusted() {
        let p = pki();
        let v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        let l = leaf(&p, "example.com");
        assert_eq!(
            v.classify(&l, &[]),
            Classification::Invalid(InvalidityReason::UntrustedIssuer)
        );
    }

    #[test]
    fn transvalid_repair_from_pool() {
        let p = pki();
        let mut v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        assert!(v.add_intermediate(&p.intermediate));
        assert!(!v.add_intermediate(&p.intermediate)); // dedup
        let l = leaf(&p, "example.com");
        assert_eq!(
            v.classify(&l, &[]),
            Classification::Valid {
                chain_len: 3,
                transvalid: true
            }
        );
    }

    #[test]
    fn direct_root_signature_valid() {
        let p = pki();
        let v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        let leaf_key = key("direct");
        let (nb, na) = years(2013, 2015);
        let l = CertificateBuilder::new()
            .serial_u64(9)
            .subject(Name::with_common_name("direct.example"))
            .issuer(p.root.subject.clone())
            .public_key(leaf_key.public())
            .validity(nb, na)
            .sign_with(&p.root_key);
        assert_eq!(
            v.classify(&l, &[]),
            Classification::Valid {
                chain_len: 2,
                transvalid: false
            }
        );
    }

    #[test]
    fn trusted_root_itself_is_valid() {
        let p = pki();
        let v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        assert_eq!(
            v.classify(&p.root, &[]),
            Classification::Valid {
                chain_len: 1,
                transvalid: false
            }
        );
    }

    #[test]
    fn self_signed_device_cert() {
        let p = pki();
        let v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        let dev = key("router");
        let (nb, na) = years(2013, 2033);
        let c = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("192.168.1.1"))
            .validity(nb, na)
            .self_signed(&dev);
        assert_eq!(
            v.classify(&c, &[]),
            Classification::Invalid(InvalidityReason::SelfSigned)
        );
    }

    #[test]
    fn self_signed_detected_even_with_different_names() {
        // openssl's error-19 quirk: subject != issuer, but the signature
        // verifies under the cert's own key. The paper manually re-checks;
        // so do we.
        let dev = key("nas");
        let (nb, na) = years(2013, 2033);
        let c = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("WDMyCloud"))
            .issuer(Name::with_common_name("remotewd.com"))
            .public_key(dev.public())
            .validity(nb, na)
            .sign_with(&dev);
        assert!(!c.is_self_issued());
        let v = Validator::new(TrustStore::new());
        assert_eq!(
            v.classify(&c, &[]),
            Classification::Invalid(InvalidityReason::SelfSigned)
        );
    }

    #[test]
    fn untrusted_private_ca() {
        // A device cert signed by a vendor CA that is not in the store.
        let vendor_key = key("vendor-ca");
        let (nb, na) = years(2010, 2035);
        let vendor_ca = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("www.lancom-systems.de"))
            .validity(nb, na)
            .ca(None)
            .self_signed(&vendor_key);
        let dev_key = key("dev");
        let dev = CertificateBuilder::new()
            .serial_u64(2)
            .subject(Name::with_common_name("LANCOM Router"))
            .issuer(vendor_ca.subject.clone())
            .public_key(dev_key.public())
            .validity(nb, na)
            .sign_with(&vendor_key);
        let mut v = Validator::new(TrustStore::new());
        v.add_intermediate(&vendor_ca);
        assert_eq!(
            v.classify(&dev, &[]),
            Classification::Invalid(InvalidityReason::UntrustedIssuer)
        );
    }

    #[test]
    fn bad_signature_classified() {
        let p = pki();
        let v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        // A cert claiming the root as issuer but signed by a different key.
        let imposter = key("imposter");
        let victim = key("victim");
        let (nb, na) = years(2013, 2015);
        let c = CertificateBuilder::new()
            .serial_u64(3)
            .subject(Name::with_common_name("forged.example"))
            .issuer(p.root.subject.clone())
            .public_key(victim.public())
            .validity(nb, na)
            .sign_with(&imposter);
        // Candidate parent (the root) exists but its key does not verify.
        assert_eq!(
            v.classify(&c, &[]),
            Classification::Invalid(InvalidityReason::BadSignature)
        );
    }

    #[test]
    fn parse_error_classified() {
        let v = Validator::new(TrustStore::new());
        assert_eq!(
            v.classify_der(&[0xde, 0xad, 0xbe, 0xef], &[]),
            Classification::Invalid(InvalidityReason::ParseFailure)
        );
    }

    #[test]
    fn expiry_ignored_by_default_but_strict_mode_flags_it() {
        let p = pki();
        let mut v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        v.add_intermediate(&p.intermediate);
        let l = leaf(&p, "expired.example"); // valid 2013..2014
        let during = Time::from_ymd(2013, 6, 1).unwrap().unix_days();
        let after = Time::from_ymd(2020, 1, 1).unwrap().unix_days();
        // Default semantics: valid regardless of when we ask.
        assert!(v.classify(&l, &[]).is_valid());
        // Strict mode: flagged after expiry, fine during the window.
        assert!(v.classify_at(&l, &[], during).is_ok());
        assert_eq!(
            v.classify_at(&l, &[], after),
            Err("certificate has expired")
        );
    }

    #[test]
    fn non_ca_certificates_rejected_from_pool_and_chains() {
        let p = pki();
        let mut v = Validator::new(TrustStore::from_roots([p.root.clone()]));
        let l = leaf(&p, "example.com");
        assert!(!v.add_intermediate(&l)); // leaf is not a CA
                                          // A leaf "signing" another cert must not create a chain.
        let evil_key = key("example.com"); // the leaf's actual key
        let (nb, na) = years(2013, 2014);
        let child_key = key("child");
        let child = CertificateBuilder::new()
            .serial_u64(10)
            .subject(Name::with_common_name("child.example"))
            .issuer(l.subject.clone())
            .public_key(child_key.public())
            .validity(nb, na)
            .sign_with(&evil_key);
        // Presented chain includes the (non-CA) leaf; candidate filter
        // must reject it.
        assert!(!v.classify(&child, std::slice::from_ref(&l)).is_valid());
    }

    #[test]
    fn key_usage_must_permit_cert_signing() {
        // A "CA" whose KeyUsage only allows digitalSignature must not be
        // accepted as a chain parent (RFC 5280 §4.2.1.3).
        use silentcert_x509::extensions::key_usage;
        let crippled_key = key("crippled-ca");
        let (nb, na) = years(2010, 2030);
        let crippled = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("Crippled CA"))
            .validity(nb, na)
            .ca(None)
            .extension(silentcert_x509::Extension::KeyUsage(
                key_usage::DIGITAL_SIGNATURE,
            ))
            .self_signed(&crippled_key);
        let mut v = Validator::new(TrustStore::new());
        assert!(!v.add_intermediate(&crippled));
        // With keyCertSign the same CA pools fine.
        let proper = CertificateBuilder::new()
            .serial_u64(2)
            .subject(Name::with_common_name("Proper CA"))
            .validity(nb, na)
            .ca(None)
            .extension(silentcert_x509::Extension::KeyUsage(
                key_usage::KEY_CERT_SIGN | key_usage::CRL_SIGN,
            ))
            .self_signed(&key("proper-ca"));
        assert!(v.add_intermediate(&proper));
        // And absent KeyUsage remains permitted (v3 CA without KU).
        let bare = CertificateBuilder::new()
            .serial_u64(3)
            .subject(Name::with_common_name("Bare CA"))
            .validity(nb, na)
            .ca(None)
            .self_signed(&key("bare-ca"));
        assert!(v.add_intermediate(&bare));
    }

    #[test]
    fn rsa_verify_memo_caches_chain_edges() {
        use silentcert_crypto::{RsaKeyPair, XorShift64};
        let mut rng = XorShift64::new(0x3e30);
        let root_key = KeyPair::Rsa(RsaKeyPair::generate(512, &mut rng));
        let (nb, na) = years(2000, 2040);
        let root = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("RSA Root"))
            .validity(nb, na)
            .ca(None)
            .self_signed(&root_key);
        let leaf_key = KeyPair::Rsa(RsaKeyPair::generate(512, &mut rng));
        let l = CertificateBuilder::new()
            .serial_u64(2)
            .subject(Name::with_common_name("rsa-leaf.example"))
            .issuer(root.subject.clone())
            .public_key(leaf_key.public())
            .validity(nb, na)
            .sign_with(&root_key);
        let v = Validator::new(TrustStore::from_roots([root]));
        let first = v.classify(&l, &[]);
        assert!(first.is_valid());
        assert!(!v.verify_memo.is_empty(), "RSA edge was memoized");
        // Second walk hits the memo and must agree; a clone carries it.
        assert_eq!(v.classify(&l, &[]), first);
        assert_eq!(v.clone().classify(&l, &[]), first);
    }

    #[test]
    fn oversized_rsa_key_is_not_self_signed() {
        use silentcert_crypto::rsa::MAX_MODULUS_BITS;
        use silentcert_crypto::{BigUint, RsaKeyPair};
        // Exponents of 1 make the signature the message encoding itself,
        // so it verifies under its own key whenever verify does the
        // arithmetic at all.
        let self_signed = |bits: usize| {
            let mut n = BigUint::one();
            n.set_bit(bits - 1);
            let key = KeyPair::Rsa(RsaKeyPair::from_parts(n, BigUint::one(), BigUint::one()));
            let (nb, na) = years(2013, 2033);
            CertificateBuilder::new()
                .serial_u64(1)
                .subject(Name::with_common_name(&format!("rsa-{bits}.example")))
                .validity(nb, na)
                .self_signed(&key)
        };
        let v = Validator::new(TrustStore::new());
        assert_eq!(
            v.classify(&self_signed(MAX_MODULUS_BITS), &[]),
            Classification::Invalid(InvalidityReason::SelfSigned)
        );
        let oversized = self_signed(MAX_MODULUS_BITS + 1);
        assert!(!oversized.is_self_signed());
        assert_eq!(
            v.classify(&oversized, &[]),
            Classification::Invalid(InvalidityReason::UntrustedIssuer)
        );
    }

    #[test]
    fn verify_memo_is_bounded_with_eviction() {
        use silentcert_crypto::{RsaKeyPair, XorShift64};
        let mut rng = XorShift64::new(0xb0bb);
        let root_key = KeyPair::Rsa(RsaKeyPair::generate(512, &mut rng));
        let (nb, na) = years(2000, 2040);
        let root = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("Bounded RSA Root"))
            .validity(nb, na)
            .ca(None)
            .self_signed(&root_key);
        let mut v = Validator::new(TrustStore::from_roots([root.clone()]));
        v.set_memo_capacity(4);
        // Nine distinct RSA-signed leaves: each chain walk memoizes one
        // edge, so the cap must evict rather than grow.
        let mut classifications = Vec::new();
        for i in 0..9u64 {
            let leaf_key = KeyPair::Rsa(RsaKeyPair::generate(512, &mut rng));
            let l = CertificateBuilder::new()
                .serial_u64(10 + i)
                .subject(Name::with_common_name(&format!("bounded{i}.example")))
                .issuer(root.subject.clone())
                .public_key(leaf_key.public())
                .validity(nb, na)
                .sign_with(&root_key);
            classifications.push((l.clone(), v.classify(&l, &[])));
        }
        assert!(v.memo_len() <= 4, "memo stayed within its cap");
        assert!(v.memo_evictions() > 0, "cap forced evictions");
        // Evicted edges re-verify to the same classification.
        for (l, first) in &classifications {
            assert_eq!(v.classify(l, &[]), *first);
            assert!(first.is_valid());
        }
    }

    #[test]
    fn chain_length_cap_stops_runaway() {
        // A loop of two CAs signing each other never reaches a root and
        // must terminate.
        let k1 = key("loop1");
        let k2 = key("loop2");
        let (nb, na) = years(2010, 2030);
        let c1 = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("Loop CA 1"))
            .issuer(Name::with_common_name("Loop CA 2"))
            .public_key(k1.public())
            .validity(nb, na)
            .ca(None)
            .sign_with(&k2);
        let c2 = CertificateBuilder::new()
            .serial_u64(2)
            .subject(Name::with_common_name("Loop CA 2"))
            .issuer(Name::with_common_name("Loop CA 1"))
            .public_key(k2.public())
            .validity(nb, na)
            .ca(None)
            .sign_with(&k1);
        let mut v = Validator::new(TrustStore::new());
        v.add_intermediate(&c1);
        v.add_intermediate(&c2);
        assert_eq!(
            v.classify(&c1, &[]),
            Classification::Invalid(InvalidityReason::UntrustedIssuer)
        );
    }

    /// An RSA-1024 key of exponent 1: its signature over anything is the
    /// padded digest itself, which every such key verifies.
    fn exponent_one_key(k: u8) -> KeyPair {
        let mut n = [0u8; 128];
        n[0] = 0xc0;
        n[127] = 2 * k + 1;
        let one = BigUint::from_u64(1);
        KeyPair::Rsa(RsaKeyPair::from_parts(
            BigUint::from_bytes_be(&n),
            one.clone(),
            one,
        ))
    }

    /// A leaf and `parents` same-name CAs with exponent-1 keys: every CA
    /// is a verifying candidate issuer of the leaf and of every other CA.
    fn exponent_one_mesh(parents: u8) -> (Certificate, Vec<Certificate>) {
        let name = Name::with_common_name("Mesh CA");
        let (nb, na) = years(2000, 2040);
        let cas = (0..parents)
            .map(|k| {
                let ca_key = exponent_one_key(k);
                CertificateBuilder::new()
                    .serial_u64(100 + u64::from(k))
                    .subject(name.clone())
                    .issuer(name.clone())
                    .public_key(ca_key.public())
                    .validity(nb, na)
                    .ca(None)
                    .sign_with(&ca_key)
            })
            .collect();
        let leaf = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("mesh.example"))
            .issuer(name)
            .public_key(key("mesh.example").public())
            .validity(nb, na)
            .sign_with(&exponent_one_key(0));
        (leaf, cas)
    }

    #[test]
    fn chain_search_through_a_parent_mesh_is_bounded() {
        let v = Validator::new(TrustStore::from_roots([pki().root]));
        let (leaf, four) = exponent_one_mesh(4);
        let (_, sixteen) = exponent_one_mesh(16);
        let verdict = v.classify(&leaf, &four);
        assert_eq!(
            verdict,
            Classification::Invalid(InvalidityReason::UntrustedIssuer)
        );
        assert_eq!(v.classify(&leaf, &sixteen), verdict);

        let edges_tried = |presented: &[Certificate]| {
            let mut visited = HashSet::from([leaf.fingerprint()]);
            let mut edges = 0;
            let chain = v.build_chain(&leaf, presented, &mut visited, &mut edges, 1);
            assert_eq!(chain, None);
            edges
        };
        // Four parents: all 64 simple paths fit in the bound.
        assert_eq!(edges_tried(&four), 4 + 4 * 3 + 4 * 3 * 2 + 4 * 3 * 2);
        // Sixteen: about 10^8 simple paths, cut off at the bound.
        assert_eq!(edges_tried(&sixteen), MAX_CHAIN_EDGES);
    }
}
