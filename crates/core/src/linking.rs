//! Certificate linking (§6.3): feature extraction and the lifetime-overlap
//! rule.
//!
//! Two invalid certificates are *linked* — attributed to the same device —
//! when they share a feature value (public key, Common Name, SAN list, …)
//! and their observed lifetimes do not overlap by more than a single scan
//! (a device that reissues mid-scan can legitimately be seen with both its
//! old and new certificate once).

use crate::dataset::{CertId, Dataset, Lifetime};
use silentcert_net::ip::looks_like_ipv4;
use std::collections::HashMap;
use std::fmt;

/// The certificate fields considered for linking (Table 5 / Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkField {
    PublicKey,
    NotBefore,
    CommonName,
    NotAfter,
    /// Issuer Name & Serial Number ("IN + SN").
    IssuerSerial,
    /// Subject Alternative Name list.
    San,
    Crl,
    Aia,
    Ocsp,
    Oid,
}

impl LinkField {
    /// All fields, in the paper's Table 6 column order.
    pub const ALL: [LinkField; 10] = [
        LinkField::PublicKey,
        LinkField::NotBefore,
        LinkField::CommonName,
        LinkField::NotAfter,
        LinkField::IssuerSerial,
        LinkField::San,
        LinkField::Crl,
        LinkField::Aia,
        LinkField::Ocsp,
        LinkField::Oid,
    ];

    /// The fields the paper accepts for final linking (§6.4.3), in
    /// decreasing AS-level-consistency order per Table 6: `Not Before`,
    /// `Not After`, and Issuer+Serial are excluded for insufficient
    /// consistency (< 90% AS-level).
    ///
    /// (The paper's prose applies SAN after Common Name despite SAN's
    /// higher tabulated consistency; [`crate::evaluate::iterative_link`]
    /// takes the order as a parameter so both variants — and the reversed
    /// ablation — are expressible.)
    pub const ACCEPTED: [LinkField; 7] = [
        LinkField::PublicKey,
        LinkField::San,
        LinkField::Ocsp,
        LinkField::CommonName,
        LinkField::Crl,
        LinkField::Aia,
        LinkField::Oid,
    ];
}

impl fmt::Display for LinkField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkField::PublicKey => "Public Key",
            LinkField::NotBefore => "Not Before",
            LinkField::CommonName => "Common Name",
            LinkField::NotAfter => "Not After",
            LinkField::IssuerSerial => "IN + SN",
            LinkField::San => "SAN",
            LinkField::Crl => "CRL",
            LinkField::Aia => "AIA",
            LinkField::Ocsp => "OCSP",
            LinkField::Oid => "OID",
        };
        write!(f, "{s}")
    }
}

/// Extract the linking key of `field` for a certificate, or `None` when the
/// field is absent (or excluded, for IP-formatted Common Names — §6.4.1
/// intentionally disregards CNs that look like IPv4 addresses, since the
/// goal is to link across IP changes).
pub fn feature_key(dataset: &Dataset, cert: CertId, field: LinkField) -> Option<String> {
    let meta = dataset.cert(cert);
    match field {
        LinkField::PublicKey => Some(silentcert_crypto::hex::encode(&meta.key)),
        LinkField::NotBefore => Some(meta.not_before.to_string()),
        LinkField::NotAfter => Some(meta.not_after.to_string()),
        LinkField::CommonName => match &meta.subject_cn {
            Some(cn) if !cn.is_empty() && !looks_like_ipv4(cn) => Some(cn.clone()),
            _ => None,
        },
        LinkField::IssuerSerial => Some(format!("{}#{}", meta.issuer_display, meta.serial_hex)),
        LinkField::San => join_nonempty(&meta.san),
        LinkField::Crl => join_nonempty(&meta.crl),
        LinkField::Aia => join_nonempty(&meta.aia),
        LinkField::Ocsp => join_nonempty(&meta.ocsp),
        LinkField::Oid => join_nonempty(&meta.oids),
    }
}

fn join_nonempty(values: &[String]) -> Option<String> {
    if values.is_empty() {
        None
    } else {
        Some(values.join("\n"))
    }
}

/// A set of certificates linked by one shared feature value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkedGroup {
    pub field: LinkField,
    /// The shared feature value.
    pub value: String,
    /// Member certificates, sorted by first-scan.
    pub certs: Vec<CertId>,
}

/// Per-field uniqueness statistics (Table 5).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureUniqueness {
    pub field: LinkField,
    /// Certificates carrying the field at all.
    pub present: usize,
    /// Certificates whose value is shared with at least one other.
    pub non_unique: usize,
    /// Candidate population size (certificates examined).
    pub population: usize,
}

impl FeatureUniqueness {
    /// Fraction of the population with a non-unique value (Table 5's
    /// "% Non-unique" column).
    pub fn non_unique_fraction(&self) -> f64 {
        if self.population == 0 {
            return 0.0;
        }
        self.non_unique as f64 / self.population as f64
    }
}

/// Compute Table 5: for each field, the share of `certs` whose value for
/// that field is shared with at least one other certificate in `certs`.
pub fn feature_uniqueness(
    dataset: &Dataset,
    certs: &[CertId],
    fields: &[LinkField],
) -> Vec<FeatureUniqueness> {
    fields
        .iter()
        .map(|&field| {
            let mut by_value: HashMap<String, u32> = HashMap::new();
            let mut present = 0usize;
            for &c in certs {
                if let Some(key) = feature_key(dataset, c, field) {
                    present += 1;
                    *by_value.entry(key).or_insert(0) += 1;
                }
            }
            let non_unique = by_value
                .values()
                .filter(|&&n| n >= 2)
                .map(|&n| n as usize)
                .sum();
            FeatureUniqueness {
                field,
                present,
                non_unique,
                population: certs.len(),
            }
        })
        .collect()
}

/// Configuration of the lifetime-overlap rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Maximum number of scans on which any pair of lifetimes in a group
    /// may overlap. The paper allows 1 (a reissue can straddle one scan).
    pub max_overlap_scans: u32,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            max_overlap_scans: 1,
        }
    }
}

/// Link `certs` on a single `field` (§6.3.2).
///
/// Certificates are grouped by shared feature value; a group is kept only
/// if **no pair** of member lifetimes overlaps on more than
/// `config.max_overlap_scans` scans. Groups of one are dropped (nothing is
/// linked). `lifetimes` must come from [`Dataset::lifetimes`].
pub fn link_on_field(
    dataset: &Dataset,
    lifetimes: &[Option<Lifetime>],
    certs: &[CertId],
    field: LinkField,
    config: LinkConfig,
) -> Vec<LinkedGroup> {
    let mut by_value: HashMap<String, Vec<CertId>> = HashMap::new();
    for &c in certs {
        if lifetimes[c.0 as usize].is_none() {
            continue; // never observed; no lifetime to reason about
        }
        if let Some(key) = feature_key(dataset, c, field) {
            by_value.entry(key).or_default().push(c);
        }
    }

    let mut groups = Vec::new();
    for (value, mut members) in by_value {
        if members.len() < 2 {
            continue;
        }
        // Sort by (first_scan, last_scan) for the max-overlap sweep.
        members.sort_by_key(|c| {
            let lt = lifetimes[c.0 as usize].expect("filtered above");
            (lt.first_scan, lt.last_scan, *c)
        });
        if group_linkable(lifetimes, &members, config) {
            groups.push(LinkedGroup {
                field,
                value,
                certs: members,
            });
        }
    }
    // Deterministic output order.
    groups.sort_by(|a, b| a.value.cmp(&b.value));
    groups
}

/// Check the pairwise-overlap condition for members sorted by first scan.
///
/// For each certificate `j` (in first-scan order), the pair with maximal
/// overlap among earlier members is the one with the largest last-scan, so
/// a single sweep tracking `max(last_scan)` decides the whole group in
/// O(k).
fn group_linkable(lifetimes: &[Option<Lifetime>], members: &[CertId], config: LinkConfig) -> bool {
    let mut max_last: Option<u16> = None;
    for &c in members {
        let lt = lifetimes[c.0 as usize].expect("members have lifetimes");
        if let Some(prev_last) = max_last {
            let overlap = i64::from(prev_last.min(lt.last_scan.0)) - i64::from(lt.first_scan.0) + 1;
            if overlap > i64::from(config.max_overlap_scans) {
                return false;
            }
        }
        max_last = Some(max_last.map_or(lt.last_scan.0, |m| m.max(lt.last_scan.0)));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::testutil::{ip, meta};
    use crate::dataset::{CertMeta, DatasetBuilder, Operator};

    /// Dataset with scans on days 0,7,14,21 and certificates placed at
    /// scan ranges; `customize` tweaks each CertMeta.
    #[allow(clippy::type_complexity)]
    fn build(specs: &[(&str, &[usize], fn(&mut CertMeta))]) -> (Dataset, Vec<CertId>) {
        let mut b = DatasetBuilder::new();
        let mut ids = Vec::new();
        for (i, (label, scans, customize)) in specs.iter().enumerate() {
            let mut m = meta(label, false);
            customize(&mut m);
            let id = b.intern_cert(m);
            ids.push((id, i, scans));
        }
        for s in 0..4 {
            let sid = b.add_scan(s as i64 * 7, Operator::UMich);
            for (id, i, scans) in &ids {
                if scans.contains(&s) {
                    b.add_observation(sid, ip(&format!("10.0.{i}.1")), *id);
                }
            }
        }
        let out_ids = ids.iter().map(|(id, _, _)| *id).collect();
        (b.finish(), out_ids)
    }

    fn same_key(m: &mut CertMeta) {
        m.key = [7u8; 32];
    }

    #[test]
    fn figure9_pk1_no_overlap_links() {
        // PK1: cert1 on scans 0–1, cert2 on scans 2–3 (no overlap).
        let (d, ids) = build(&[("c1", &[0, 1], same_key), ("c2", &[2, 3], same_key)]);
        let lts = d.lifetimes();
        let groups = link_on_field(&d, &lts, &ids, LinkField::PublicKey, LinkConfig::default());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].certs, ids);
    }

    #[test]
    fn figure9_pk2_single_scan_overlap_links() {
        // Overlap on exactly one scan (scan 1) is allowed.
        let (d, ids) = build(&[("c3", &[0, 1], same_key), ("c4", &[1, 2, 3], same_key)]);
        let lts = d.lifetimes();
        let groups = link_on_field(&d, &lts, &ids, LinkField::PublicKey, LinkConfig::default());
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn figure9_pk3_multi_scan_overlap_rejected() {
        // Overlap on two scans breaks the whole value-group.
        let (d, ids) = build(&[("c5", &[0, 1, 2], same_key), ("c6", &[1, 2, 3], same_key)]);
        let lts = d.lifetimes();
        let groups = link_on_field(&d, &lts, &ids, LinkField::PublicKey, LinkConfig::default());
        assert!(groups.is_empty());
        // Ablation: allowing 2-scan overlaps links them.
        let loose = LinkConfig {
            max_overlap_scans: 2,
        };
        assert_eq!(
            link_on_field(&d, &lts, &ids, LinkField::PublicKey, loose).len(),
            1
        );
    }

    #[test]
    fn one_bad_pair_poisons_the_value_group() {
        // Three certs share a key; two of them overlap heavily (the Lancom
        // case) → none are linked on this field.
        let (d, ids) = build(&[
            ("a", &[0, 1, 2, 3], same_key),
            ("b", &[0, 1, 2, 3], same_key),
            ("c", &[3], same_key),
        ]);
        let lts = d.lifetimes();
        assert!(
            link_on_field(&d, &lts, &ids, LinkField::PublicKey, LinkConfig::default()).is_empty()
        );
    }

    #[test]
    fn distinct_values_do_not_link() {
        fn distinct_dates_x(m: &mut CertMeta) {
            m.not_before = 1_000;
            m.not_after = 2_000;
        }
        fn distinct_dates_y(m: &mut CertMeta) {
            m.not_before = 3_000;
            m.not_after = 4_000;
        }
        let (d, ids) = build(&[("x", &[0], distinct_dates_x), ("y", &[1], distinct_dates_y)]);
        let lts = d.lifetimes();
        // Every field differs (or is absent) → nothing links.
        for field in LinkField::ALL {
            assert!(
                link_on_field(&d, &lts, &ids, field, LinkConfig::default()).is_empty(),
                "{field}"
            );
        }
    }

    #[test]
    fn ip_formatted_common_names_excluded() {
        fn ip_cn(m: &mut CertMeta) {
            m.subject_cn = Some("192.168.1.1".into());
        }
        let (d, ids) = build(&[("a", &[0], ip_cn), ("b", &[2], ip_cn)]);
        let lts = d.lifetimes();
        assert!(feature_key(&d, ids[0], LinkField::CommonName).is_none());
        assert!(
            link_on_field(&d, &lts, &ids, LinkField::CommonName, LinkConfig::default()).is_empty()
        );
    }

    #[test]
    fn empty_common_name_excluded() {
        fn empty_cn(m: &mut CertMeta) {
            m.subject_cn = Some(String::new());
        }
        let (d, ids) = build(&[("a", &[0], empty_cn), ("b", &[2], empty_cn)]);
        assert!(feature_key(&d, ids[0], LinkField::CommonName).is_none());
    }

    #[test]
    fn san_linking() {
        fn fritz_san(m: &mut CertMeta) {
            m.san = vec!["fritz.fonwlan.box".into()];
            m.key = m.fingerprint.0; // distinct keys
        }
        let (d, ids) = build(&[("a", &[0], fritz_san), ("b", &[2, 3], fritz_san)]);
        let lts = d.lifetimes();
        let groups = link_on_field(&d, &lts, &ids, LinkField::San, LinkConfig::default());
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].value, "fritz.fonwlan.box");
    }

    #[test]
    fn issuer_serial_feature_combines_both() {
        let (d, ids) = build(&[("a", &[0], |_| {}), ("b", &[1], |_| {})]);
        let ka = feature_key(&d, ids[0], LinkField::IssuerSerial).unwrap();
        let kb = feature_key(&d, ids[1], LinkField::IssuerSerial).unwrap();
        assert_ne!(ka, kb);
        assert!(ka.contains("CN=a") && ka.contains('#'));
    }

    #[test]
    fn table5_feature_uniqueness() {
        fn shared_nb(m: &mut CertMeta) {
            m.not_before = 1_000_000;
        }
        let (d, ids) = build(&[
            ("a", &[0], shared_nb),
            ("b", &[1], shared_nb),
            ("c", &[2], |m| {
                m.not_before = 2_000_000;
            }),
        ]);
        let stats = feature_uniqueness(&d, &ids, &[LinkField::NotBefore, LinkField::CommonName]);
        let nb = &stats[0];
        assert_eq!(nb.present, 3);
        assert_eq!(nb.non_unique, 2);
        assert!((nb.non_unique_fraction() - 2.0 / 3.0).abs() < 1e-9);
        let cn = &stats[1];
        assert_eq!(cn.non_unique, 0); // all CNs distinct
    }

    #[test]
    fn unobserved_certs_skipped() {
        let mut b = DatasetBuilder::new();
        let mut m1 = meta("ghost1", false);
        same_key(&mut m1);
        let mut m2 = meta("ghost2", false);
        same_key(&mut m2);
        let c1 = b.intern_cert(m1);
        let c2 = b.intern_cert(m2);
        let d = b.finish();
        let lts = d.lifetimes();
        assert!(link_on_field(
            &d,
            &lts,
            &[c1, c2],
            LinkField::PublicKey,
            LinkConfig::default()
        )
        .is_empty());
    }
}
