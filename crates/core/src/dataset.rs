//! The dataset model: scans, certificate metadata, and observations.
//!
//! A dataset is the in-memory analogue of the paper's input: 222 full-IPv4
//! scan snapshots, each a set of `(ip, certificate)` pairs, plus the
//! historic RouteViews routing tables and CAIDA AS metadata needed to map
//! IPs to prefixes/ASes. Certificates are interned once by fingerprint;
//! observations reference them by dense [`CertId`].

use silentcert_net::{AsDatabase, Ipv4, RoutingHistory};
use silentcert_validate::Classification;
use silentcert_x509::{Certificate, Fingerprint};
use std::collections::HashMap;

/// Dense index of a scan within [`Dataset::scans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScanId(pub u16);

/// Dense index of a certificate within [`Dataset::certs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CertId(pub u32);

/// Which organization ran a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Operator {
    /// University of Michigan (156 scans, June 2012 – January 2014).
    UMich,
    /// Rapid7 (74 scans, October 2013 – March 2015).
    Rapid7,
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operator::UMich => write!(f, "U. Michigan"),
            Operator::Rapid7 => write!(f, "Rapid7"),
        }
    }
}

/// One scan snapshot's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanInfo {
    /// Day number (days since the Unix epoch).
    pub day: i64,
    /// Who ran it.
    pub operator: Operator,
}

/// How completely a scan covered its target population (the
/// `completeness.csv` sidecar written by the probe-level scan runtime).
///
/// Real scans are lossy: hosts time out, reset the connection, get
/// rate-limited, or the scan itself is truncated by its deadline. This
/// record preserves what the scanner *tried* to do, so analyses can
/// distinguish "this host was absent" from "this scan never asked".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCompleteness {
    /// Hosts the scanner sent at least one probe to.
    pub probed: u64,
    /// Hosts that completed a handshake and yielded observations.
    pub answered: u64,
    /// Retry probes sent beyond each host's first attempt.
    pub retried: u64,
    /// Hosts that exhausted every retry without answering.
    pub gave_up: u64,
    /// Hosts never probed because the per-scan deadline expired.
    pub truncated: u64,
}

impl ScanCompleteness {
    /// Live targets that produced nothing: retry-exhausted plus
    /// deadline-truncated hosts.
    pub fn lost_hosts(&self) -> u64 {
        self.gave_up + self.truncated
    }

    /// Whether any part of the target population was lost.
    pub fn is_partial(&self) -> bool {
        self.lost_hosts() > 0
    }

    /// Fraction of the target population that answered
    /// (`answered / (probed + truncated)`); 1.0 for an empty scan.
    pub fn coverage(&self) -> f64 {
        let targets = self.probed + self.truncated;
        if targets == 0 {
            return 1.0;
        }
        self.answered as f64 / targets as f64
    }
}

/// One `(scan, ip, certificate)` observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Observation {
    pub scan: ScanId,
    pub ip: Ipv4,
    pub cert: CertId,
}

/// Interned metadata for one unique certificate.
///
/// Holds exactly the fields the analysis pipeline consumes; the full DER is
/// parsed, classified, and reduced to this record at ingest so that
/// multi-million-certificate datasets stay memory-friendly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertMeta {
    /// SHA-256 of the DER encoding.
    pub fingerprint: Fingerprint,
    /// SHA-256 of the SubjectPublicKeyInfo: the key identity.
    pub key: [u8; 32],
    /// Subject Common Name, if present.
    pub subject_cn: Option<String>,
    /// Issuer Common Name, if present.
    pub issuer_cn: Option<String>,
    /// One-line issuer rendering (for the Table 1 issuer breakdown).
    pub issuer_display: String,
    /// Serial number in hex.
    pub serial_hex: String,
    /// `Not Before`, seconds since the Unix epoch.
    pub not_before: i64,
    /// `Not After`, seconds since the Unix epoch (may precede
    /// `not_before`).
    pub not_after: i64,
    /// Subject Alternative Name values, sorted.
    pub san: Vec<String>,
    /// CRL distribution point URIs.
    pub crl: Vec<String>,
    /// OCSP responder URIs.
    pub ocsp: Vec<String>,
    /// AIA caIssuers URIs.
    pub aia: Vec<String>,
    /// Certificate policy OIDs, rendered.
    pub oids: Vec<String>,
    /// Authority Key Identifier, hex, if present.
    pub aki_hex: Option<String>,
    /// Validation outcome.
    pub classification: Classification,
    /// Raw version field value (0 = v1, 2 = v3).
    pub version: i64,
    /// Whether Basic Constraints marks it as a CA.
    pub is_ca: bool,
}

impl CertMeta {
    /// Reduce a parsed certificate plus its validation outcome to metadata.
    pub fn from_certificate(cert: &Certificate, classification: Classification) -> CertMeta {
        let mut san: Vec<String> = cert
            .subject_alt_names()
            .unwrap_or(&[])
            .iter()
            .map(|gn| gn.value_string())
            .collect();
        san.sort();
        CertMeta {
            fingerprint: cert.fingerprint(),
            key: cert.public_key.fingerprint(),
            subject_cn: cert.subject.common_name().map(str::to_string),
            issuer_cn: cert.issuer.common_name().map(str::to_string),
            issuer_display: cert.issuer.to_string(),
            serial_hex: cert.serial_hex(),
            not_before: cert.not_before.unix_seconds(),
            not_after: cert.not_after.unix_seconds(),
            san,
            crl: cert.crl_uris().to_vec(),
            ocsp: cert.ocsp_uris().to_vec(),
            aia: cert.aia_ca_issuer_uris().to_vec(),
            oids: cert.policy_oids().iter().map(|o| o.to_string()).collect(),
            aki_hex: cert.authority_key_id().map(silentcert_crypto::hex::encode),
            classification,
            version: cert.version,
            is_ca: cert.is_ca(),
        }
    }

    /// Whether validation succeeded (expiry ignored).
    pub fn is_valid(&self) -> bool {
        self.classification.is_valid()
    }

    /// Validity period in days (floor; negative when `Not After` precedes
    /// `Not Before`).
    pub fn validity_period_days(&self) -> i64 {
        (self.not_after - self.not_before).div_euclid(86_400)
    }
}

/// A certificate's observed lifetime (paper §5.1): the inclusive span
/// between the first and last scan where it appeared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// First scan that saw the certificate.
    pub first_scan: ScanId,
    /// Last scan that saw it.
    pub last_scan: ScanId,
    /// Day of the first sighting.
    pub first_day: i64,
    /// Day of the last sighting.
    pub last_day: i64,
    /// Number of distinct scans that saw it.
    pub scans_seen: u32,
}

impl Lifetime {
    /// Inclusive lifetime in days: 1 for a single sighting; `last − first
    /// + 1` otherwise (two scans a week apart → 8 days, matching §5.1).
    pub fn days(&self) -> i64 {
        self.last_day - self.first_day + 1
    }

    /// Whether the certificate appeared in exactly one scan ("ephemeral").
    pub fn is_single_scan(&self) -> bool {
        self.scans_seen == 1
    }
}

/// The full dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// Scans ordered by day (ties broken UMich first); `ScanId` indexes
    /// this vector.
    pub scans: Vec<ScanInfo>,
    /// Interned certificates; `CertId` indexes this vector.
    pub certs: Vec<CertMeta>,
    /// All observations, sorted by `(scan, ip, cert)`.
    pub observations: Vec<Observation>,
    /// Historic prefix-to-AS mappings.
    pub routing: RoutingHistory,
    /// AS metadata.
    pub asdb: AsDatabase,
    /// Per-scan completeness records, aligned with `scans`. Empty when the
    /// corpus carried no `completeness.csv` (legacy corpora): completeness
    /// is then *unknown*, which analyses must treat differently from
    /// *known-complete*.
    pub completeness: Vec<Option<ScanCompleteness>>,
    /// `scan_ranges[s] = (start, end)` slice bounds of scan `s`'s
    /// observations within `observations`.
    scan_ranges: Vec<(usize, usize)>,
}

impl Dataset {
    /// Metadata for a certificate.
    pub fn cert(&self, id: CertId) -> &CertMeta {
        &self.certs[id.0 as usize]
    }

    /// Metadata for a scan.
    pub fn scan(&self, id: ScanId) -> &ScanInfo {
        &self.scans[id.0 as usize]
    }

    /// Day number of a scan.
    pub fn scan_day(&self, id: ScanId) -> i64 {
        self.scan(id).day
    }

    /// All scan ids in order.
    pub fn scan_ids(&self) -> impl Iterator<Item = ScanId> {
        (0..self.scans.len() as u16).map(ScanId)
    }

    /// All cert ids.
    pub fn cert_ids(&self) -> impl Iterator<Item = CertId> {
        (0..self.certs.len() as u32).map(CertId)
    }

    /// The observations of one scan (sorted by ip).
    pub fn scan_observations(&self, id: ScanId) -> &[Observation] {
        let (start, end) = self.scan_ranges[id.0 as usize];
        &self.observations[start..end]
    }

    /// The completeness record of one scan, if known.
    pub fn scan_completeness(&self, id: ScanId) -> Option<&ScanCompleteness> {
        self.completeness
            .get(id.0 as usize)
            .and_then(Option::as_ref)
    }

    /// Whether any scan carries a completeness record.
    pub fn has_completeness(&self) -> bool {
        self.completeness.iter().any(Option::is_some)
    }

    /// Per-certificate lifetimes. `None` for certificates never observed.
    pub fn lifetimes(&self) -> Vec<Option<Lifetime>> {
        let mut out: Vec<Option<Lifetime>> = vec![None; self.certs.len()];
        for obs in &self.observations {
            let day = self.scan_day(obs.scan);
            let slot = &mut out[obs.cert.0 as usize];
            match slot {
                None => {
                    *slot = Some(Lifetime {
                        first_scan: obs.scan,
                        last_scan: obs.scan,
                        first_day: day,
                        last_day: day,
                        scans_seen: 1,
                    })
                }
                Some(lt) => {
                    if obs.scan < lt.first_scan {
                        lt.first_scan = obs.scan;
                        lt.first_day = day;
                        lt.scans_seen += 1;
                    } else if obs.scan > lt.last_scan {
                        lt.last_scan = obs.scan;
                        lt.last_day = day;
                        lt.scans_seen += 1;
                    }
                    // Same scan twice (two IPs): not a new scan sighting.
                }
            }
        }
        out
    }

    /// Total number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the dataset has no observations.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }
}

/// Incremental dataset construction with certificate interning.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    scans: Vec<ScanInfo>,
    certs: Vec<CertMeta>,
    by_fingerprint: HashMap<Fingerprint, CertId>,
    observations: Vec<Observation>,
    routing: RoutingHistory,
    asdb: AsDatabase,
    completeness: HashMap<ScanId, ScanCompleteness>,
}

impl DatasetBuilder {
    /// Start an empty dataset.
    pub fn new() -> DatasetBuilder {
        DatasetBuilder::default()
    }

    /// Set the routing history.
    pub fn routing(&mut self, routing: RoutingHistory) -> &mut Self {
        self.routing = routing;
        self
    }

    /// Set the AS database.
    pub fn asdb(&mut self, asdb: AsDatabase) -> &mut Self {
        self.asdb = asdb;
        self
    }

    /// Attach a completeness record to an already-registered scan.
    pub fn set_completeness(&mut self, scan: ScanId, record: ScanCompleteness) -> &mut Self {
        debug_assert!((scan.0 as usize) < self.scans.len());
        self.completeness.insert(scan, record);
        self
    }

    /// Register a scan. Scans must be added in chronological order.
    ///
    /// # Panics
    ///
    /// Panics if scans are added out of day order or the 65,536-scan
    /// capacity of `ScanId` is exceeded.
    pub fn add_scan(&mut self, day: i64, operator: Operator) -> ScanId {
        if let Some(last) = self.scans.last() {
            assert!(
                day >= last.day,
                "scans must be added in chronological order"
            );
        }
        let id = ScanId(u16::try_from(self.scans.len()).expect("too many scans"));
        self.scans.push(ScanInfo { day, operator });
        id
    }

    /// Intern a certificate by fingerprint, returning its id.
    pub fn intern_cert(&mut self, meta: CertMeta) -> CertId {
        if let Some(&id) = self.by_fingerprint.get(&meta.fingerprint) {
            return id;
        }
        let id = CertId(u32::try_from(self.certs.len()).expect("too many certificates"));
        self.by_fingerprint.insert(meta.fingerprint, id);
        self.certs.push(meta);
        id
    }

    /// Look up an already-interned certificate.
    pub fn cert_id(&self, fp: &Fingerprint) -> Option<CertId> {
        self.by_fingerprint.get(fp).copied()
    }

    /// Record an observation. `scan` is a registered scan, or a
    /// provisional id that [`register_scans`](Self::register_scans)
    /// rewrites.
    pub fn add_observation(&mut self, scan: ScanId, ip: Ipv4, cert: CertId) {
        debug_assert!((cert.0 as usize) < self.certs.len());
        self.observations.push(Observation { scan, ip, cert });
    }

    /// Register the scans that observations were recorded under as
    /// provisional ids: `ScanId(p)` stood for `provisional[p]`, which
    /// holds distinct scans in any order. They are registered in (day,
    /// UMich-first) order, at most the first 65,535 of them, and every
    /// observation's scan id is rewritten in place; observations of a
    /// scan past that cap are dropped. Returns each provisional scan's
    /// registered id, `None` past the cap.
    ///
    /// # Panics
    ///
    /// Panics if a scan was already registered with
    /// [`add_scan`](Self::add_scan).
    pub fn register_scans(&mut self, provisional: &[ScanInfo]) -> Vec<Option<ScanId>> {
        assert!(self.scans.is_empty(), "scans are already registered");
        let mut order: Vec<usize> = (0..provisional.len()).collect();
        order.sort_by_key(|&p| (provisional[p].day, provisional[p].operator));
        let mut ids = vec![None; provisional.len()];
        for &p in order.iter().take(usize::from(u16::MAX)) {
            ids[p] = Some(self.add_scan(provisional[p].day, provisional[p].operator));
        }
        self.observations
            .retain_mut(|o| match ids[usize::from(o.scan.0)] {
                Some(id) => {
                    o.scan = id;
                    true
                }
                None => false,
            });
        ids
    }

    /// Finish: sort observations and build scan ranges.
    pub fn finish(mut self) -> Dataset {
        self.observations
            .sort_unstable_by_key(|o| (o.scan, o.ip, o.cert));
        self.observations.dedup();
        debug_assert!(self
            .observations
            .last()
            .is_none_or(|o| usize::from(o.scan.0) < self.scans.len()));
        let mut ranges = vec![(0usize, 0usize); self.scans.len()];
        let mut start = 0;
        for (s, range) in ranges.iter_mut().enumerate() {
            let end = start
                + self.observations[start..]
                    .iter()
                    .take_while(|o| o.scan.0 as usize == s)
                    .count();
            *range = (start, end);
            start = end;
        }
        let completeness = if self.completeness.is_empty() {
            Vec::new()
        } else {
            (0..self.scans.len() as u16)
                .map(|s| self.completeness.get(&ScanId(s)).copied())
                .collect()
        };
        Dataset {
            scans: self.scans,
            certs: self.certs,
            observations: self.observations,
            routing: self.routing,
            asdb: self.asdb,
            completeness,
            scan_ranges: ranges,
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use silentcert_validate::{Classification, InvalidityReason};

    /// A minimal CertMeta for pipeline tests, keyed by a label.
    pub fn meta(label: &str, valid: bool) -> CertMeta {
        let mut fp = [0u8; 32];
        let bytes = label.as_bytes();
        fp[..bytes.len().min(32)].copy_from_slice(&bytes[..bytes.len().min(32)]);
        let mut key = fp;
        key[31] ^= 0xff;
        CertMeta {
            fingerprint: silentcert_x509::Fingerprint(fp),
            key,
            subject_cn: Some(label.to_string()),
            issuer_cn: Some(label.to_string()),
            issuer_display: format!("CN={label}"),
            serial_hex: "01".into(),
            not_before: 0,
            not_after: 86_400 * 365,
            san: vec![],
            crl: vec![],
            ocsp: vec![],
            aia: vec![],
            oids: vec![],
            aki_hex: None,
            classification: if valid {
                Classification::Valid {
                    chain_len: 3,
                    transvalid: false,
                }
            } else {
                Classification::Invalid(InvalidityReason::SelfSigned)
            },
            version: 2,
            is_ca: false,
        }
    }

    pub fn ip(s: &str) -> Ipv4 {
        s.parse().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{ip, meta};
    use super::*;

    fn small_dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        let s0 = b.add_scan(100, Operator::UMich);
        let s1 = b.add_scan(107, Operator::UMich);
        let s2 = b.add_scan(107, Operator::Rapid7);
        let s3 = b.add_scan(121, Operator::Rapid7);
        let c0 = b.intern_cert(meta("stable", false));
        let c1 = b.intern_cert(meta("ephemeral", false));
        let c2 = b.intern_cert(meta("site", true));
        b.add_observation(s0, ip("1.0.0.1"), c0);
        b.add_observation(s1, ip("1.0.0.1"), c0);
        b.add_observation(s3, ip("1.0.0.2"), c0);
        b.add_observation(s1, ip("2.0.0.1"), c1);
        b.add_observation(s0, ip("9.0.0.1"), c2);
        b.add_observation(s2, ip("9.0.0.1"), c2);
        b.add_observation(s2, ip("9.0.0.2"), c2);
        b.finish()
    }

    #[test]
    fn interning_dedups_by_fingerprint() {
        let mut b = DatasetBuilder::new();
        let a = b.intern_cert(meta("x", false));
        let b2 = b.intern_cert(meta("x", false));
        let c = b.intern_cert(meta("y", false));
        assert_eq!(a, b2);
        assert_ne!(a, c);
        assert_eq!(b.cert_id(&meta("x", false).fingerprint), Some(a));
        assert_eq!(b.cert_id(&meta("z", false).fingerprint), None);
    }

    #[test]
    fn scan_ranges_partition_observations() {
        let d = small_dataset();
        let total: usize = d.scan_ids().map(|s| d.scan_observations(s).len()).sum();
        assert_eq!(total, d.len());
        assert_eq!(d.scan_observations(ScanId(0)).len(), 2);
        assert_eq!(d.scan_observations(ScanId(2)).len(), 2);
        for s in d.scan_ids() {
            for o in d.scan_observations(s) {
                assert_eq!(o.scan, s);
            }
        }
    }

    #[test]
    fn lifetimes_match_paper_definition() {
        let d = small_dataset();
        let lts = d.lifetimes();
        let stable = lts[0].unwrap();
        // Seen on days 100, 107, 121 → lifetime 22 days inclusive.
        assert_eq!(stable.days(), 22);
        assert_eq!(stable.scans_seen, 3);
        assert!(!stable.is_single_scan());
        let ephemeral = lts[1].unwrap();
        assert_eq!(ephemeral.days(), 1);
        assert!(ephemeral.is_single_scan());
        // Site seen on day 100 and twice on day 107 (two IPs, one scan).
        let site = lts[2].unwrap();
        assert_eq!(site.days(), 8); // matches §5.1's "a week apart → 8 days"
        assert_eq!(site.scans_seen, 2);
    }

    #[test]
    fn duplicate_observations_removed() {
        let mut b = DatasetBuilder::new();
        let s = b.add_scan(1, Operator::UMich);
        let c = b.intern_cert(meta("x", false));
        b.add_observation(s, ip("1.1.1.1"), c);
        b.add_observation(s, ip("1.1.1.1"), c);
        let d = b.finish();
        assert_eq!(d.len(), 1);
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn out_of_order_scans_rejected() {
        let mut b = DatasetBuilder::new();
        b.add_scan(10, Operator::UMich);
        b.add_scan(9, Operator::UMich);
    }

    #[test]
    fn empty_dataset() {
        let d = DatasetBuilder::new().finish();
        assert!(d.is_empty());
        assert_eq!(d.lifetimes().len(), 0);
    }

    #[test]
    fn completeness_aligns_with_scans() {
        let mut b = DatasetBuilder::new();
        let s0 = b.add_scan(1, Operator::UMich);
        let s1 = b.add_scan(2, Operator::Rapid7);
        let c = b.intern_cert(meta("x", false));
        b.add_observation(s0, ip("1.1.1.1"), c);
        b.add_observation(s1, ip("1.1.1.2"), c);
        let rec = ScanCompleteness {
            probed: 10,
            answered: 8,
            retried: 3,
            gave_up: 2,
            truncated: 5,
        };
        b.set_completeness(s1, rec);
        let d = b.finish();
        assert!(d.has_completeness());
        assert_eq!(d.scan_completeness(s0), None);
        assert_eq!(d.scan_completeness(s1), Some(&rec));
        assert_eq!(rec.lost_hosts(), 7);
        assert!(rec.is_partial());
        assert!((rec.coverage() - 8.0 / 15.0).abs() < 1e-12);
        // Legacy datasets carry no records at all.
        let legacy = DatasetBuilder::new().finish();
        assert!(!legacy.has_completeness());
        assert_eq!(ScanCompleteness::default().coverage(), 1.0);
        assert!(!ScanCompleteness::default().is_partial());
    }

    #[test]
    fn meta_validity_period() {
        let mut m = meta("x", false);
        m.not_before = 86_400 * 10;
        m.not_after = 86_400 * 3;
        assert_eq!(m.validity_period_days(), -7);
        assert!(!m.is_valid());
        assert!(meta("y", true).is_valid());
    }
}
