//! The trusted root store.

use silentcert_x509::{Certificate, Fingerprint, Name};
use std::collections::HashMap;

/// A set of trusted root certificates, indexed by subject name.
///
/// Stands in for the OS X 10.9.2 root store the paper configured openssl
/// with (222 roots); the simulator populates it with its generated root
/// CAs.
#[derive(Debug, Clone, Default)]
pub struct TrustStore {
    by_fingerprint: HashMap<Fingerprint, Certificate>,
    by_subject: HashMap<Name, Vec<Fingerprint>>,
}

impl TrustStore {
    /// Empty store.
    pub fn new() -> TrustStore {
        TrustStore::default()
    }

    /// Build from a set of root certificates.
    pub fn from_roots(roots: impl IntoIterator<Item = Certificate>) -> TrustStore {
        let mut store = TrustStore::new();
        for root in roots {
            store.add_root(root);
        }
        store
    }

    /// Add a trusted root. Duplicate fingerprints are ignored.
    pub fn add_root(&mut self, root: Certificate) {
        let fp = root.fingerprint();
        if self.by_fingerprint.contains_key(&fp) {
            return;
        }
        self.by_subject
            .entry(root.subject.clone())
            .or_default()
            .push(fp);
        self.by_fingerprint.insert(fp, root);
    }

    /// Whether this exact certificate is a trusted root.
    pub fn contains(&self, cert: &Certificate) -> bool {
        self.contains_fingerprint(&cert.fingerprint())
    }

    /// Whether the certificate with this fingerprint is a trusted root.
    pub fn contains_fingerprint(&self, fp: &Fingerprint) -> bool {
        self.by_fingerprint.contains_key(fp)
    }

    /// Trusted roots whose subject matches `name`.
    pub fn roots_named(&self, name: &Name) -> impl Iterator<Item = &Certificate> {
        self.by_subject
            .get(name)
            .into_iter()
            .flatten()
            .filter_map(move |fp| self.by_fingerprint.get(fp))
    }

    /// Number of roots.
    pub fn len(&self) -> usize {
        self.by_fingerprint.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.by_fingerprint.is_empty()
    }

    /// Iterate over all roots.
    pub fn iter(&self) -> impl Iterator<Item = &Certificate> {
        self.by_fingerprint.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silentcert_crypto::sig::{KeyPair, SimKeyPair};
    use silentcert_x509::{CertificateBuilder, Time};

    fn root(name: &str, seed: &[u8]) -> Certificate {
        let key = KeyPair::Sim(SimKeyPair::from_seed(seed));
        CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name(name))
            .validity(
                Time::from_ymd(2000, 1, 1).unwrap(),
                Time::from_ymd(2040, 1, 1).unwrap(),
            )
            .ca(None)
            .self_signed(&key)
    }

    #[test]
    fn add_and_lookup() {
        let r1 = root("Root A", b"a");
        let r2 = root("Root B", b"b");
        let store = TrustStore::from_roots([r1.clone(), r2.clone()]);
        assert_eq!(store.len(), 2);
        assert!(store.contains(&r1));
        assert_eq!(
            store.roots_named(&Name::with_common_name("Root A")).count(),
            1
        );
        assert_eq!(
            store.roots_named(&Name::with_common_name("Root Z")).count(),
            0
        );
    }

    #[test]
    fn duplicate_roots_ignored() {
        let r = root("Root A", b"a");
        let store = TrustStore::from_roots([r.clone(), r.clone()]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn same_name_different_keys_both_kept() {
        // Real root stores contain multiple roots with the same CN
        // generation (e.g. "Go Daddy ... - G2"); disambiguate by key.
        let r1 = root("Shared Name", b"k1");
        let r2 = root("Shared Name", b"k2");
        let store = TrustStore::from_roots([r1, r2]);
        assert_eq!(store.len(), 2);
        assert_eq!(
            store
                .roots_named(&Name::with_common_name("Shared Name"))
                .count(),
            2
        );
    }
}
