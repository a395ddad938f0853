//! X.509 v3 extensions.
//!
//! Implements the extensions the paper's linking methodology consumes
//! (§6.3.1): Subject Alternative Name, Authority Key Identifier, Subject
//! Key Identifier, CRL distribution points, Authority Information Access
//! (OCSP responders and caIssuers), and certificate policies (OIDs) — plus
//! Basic Constraints and Key Usage for chain validation. Unknown extensions
//! round-trip as raw bytes.

use silentcert_asn1::{oid, Decoder, Encoder, Error as DerError, Oid, Tag};

/// A `GeneralName` (the subset appearing in SANs and distribution points).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GeneralName {
    /// `dNSName` — context tag [2].
    Dns(String),
    /// `rfc822Name` — context tag [1].
    Email(String),
    /// `uniformResourceIdentifier` — context tag [6].
    Uri(String),
    /// `iPAddress` (IPv4 only) — context tag [7].
    Ip([u8; 4]),
    /// Anything else, kept raw: `(tag number, contents)`.
    Other(u8, Vec<u8>),
}

impl GeneralName {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            GeneralName::Email(s) => enc.implicit_primitive(1, s.as_bytes()),
            GeneralName::Dns(s) => enc.implicit_primitive(2, s.as_bytes()),
            GeneralName::Uri(s) => enc.implicit_primitive(6, s.as_bytes()),
            GeneralName::Ip(octets) => enc.implicit_primitive(7, octets),
            GeneralName::Other(n, data) => enc.implicit_primitive(*n, data),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<GeneralName, DerError> {
        let (tag, body) = dec.read_tlv()?;
        let n = tag.number();
        let text = || {
            String::from_utf8(body.to_vec())
                .map_err(|_| DerError::BadValue("GeneralName is not UTF-8"))
        };
        Ok(match n {
            1 => GeneralName::Email(text()?),
            2 => GeneralName::Dns(text()?),
            6 => GeneralName::Uri(text()?),
            7 => {
                let octets: [u8; 4] = body
                    .try_into()
                    .map_err(|_| DerError::BadValue("iPAddress is not 4 octets"))?;
                GeneralName::Ip(octets)
            }
            _ => GeneralName::Other(n, body.to_vec()),
        })
    }

    /// Human-readable value (for issuer tables and linking keys).
    pub fn value_string(&self) -> String {
        match self {
            GeneralName::Dns(s) | GeneralName::Email(s) | GeneralName::Uri(s) => s.clone(),
            GeneralName::Ip(o) => format!("{}.{}.{}.{}", o[0], o[1], o[2], o[3]),
            GeneralName::Other(n, data) => {
                format!("[{n}]{}", silentcert_crypto::hex::encode(data))
            }
        }
    }
}

/// KeyUsage named bits (RFC 5280 §4.2.1.3), LSB-first flags.
pub mod key_usage {
    pub const DIGITAL_SIGNATURE: u16 = 1 << 0;
    pub const KEY_ENCIPHERMENT: u16 = 1 << 2;
    pub const KEY_CERT_SIGN: u16 = 1 << 5;
    pub const CRL_SIGN: u16 = 1 << 6;
}

/// A decoded X.509 v3 extension.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Extension {
    /// Basic Constraints: `(is CA, optional path length)`.
    BasicConstraints { ca: bool, path_len: Option<i64> },
    /// Key Usage named-bit flags (see [`key_usage`]).
    KeyUsage(u16),
    /// Subject Key Identifier.
    SubjectKeyId(Vec<u8>),
    /// Authority Key Identifier (keyIdentifier form only).
    AuthorityKeyId(Vec<u8>),
    /// Subject Alternative Name.
    SubjectAltName(Vec<GeneralName>),
    /// CRL distribution point URIs.
    CrlDistributionPoints(Vec<String>),
    /// Authority Information Access: OCSP responder and caIssuers URIs.
    AuthorityInfoAccess {
        ocsp: Vec<String>,
        ca_issuers: Vec<String>,
    },
    /// Certificate policy OIDs.
    CertificatePolicies(Vec<Oid>),
    /// Any other extension, kept raw.
    Unknown {
        oid: Oid,
        critical: bool,
        value: Vec<u8>,
    },
}

impl Extension {
    /// The extension's OID.
    pub fn oid(&self) -> Oid {
        match self {
            Extension::BasicConstraints { .. } => oid::known::basic_constraints(),
            Extension::KeyUsage(_) => oid::known::key_usage(),
            Extension::SubjectKeyId(_) => oid::known::subject_key_identifier(),
            Extension::AuthorityKeyId(_) => oid::known::authority_key_identifier(),
            Extension::SubjectAltName(_) => oid::known::subject_alt_name(),
            Extension::CrlDistributionPoints(_) => oid::known::crl_distribution_points(),
            Extension::AuthorityInfoAccess { .. } => oid::known::authority_info_access(),
            Extension::CertificatePolicies(_) => oid::known::certificate_policies(),
            Extension::Unknown { oid, .. } => oid.clone(),
        }
    }

    fn is_critical(&self) -> bool {
        match self {
            Extension::BasicConstraints { ca, .. } => *ca,
            Extension::KeyUsage(_) => true,
            Extension::Unknown { critical, .. } => *critical,
            _ => false,
        }
    }

    /// Encode the extnValue contents (the DER inside the OCTET STRING).
    fn encode_value(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Extension::BasicConstraints { ca, path_len } => {
                enc.sequence(|e| {
                    if *ca {
                        e.boolean(true);
                    }
                    if let Some(n) = path_len {
                        e.integer_i64(*n);
                    }
                });
            }
            Extension::KeyUsage(flags) => enc.bit_string_named(*flags),
            Extension::SubjectKeyId(id) => enc.octet_string(id),
            Extension::AuthorityKeyId(id) => {
                enc.sequence(|e| e.implicit_primitive(0, id));
            }
            Extension::SubjectAltName(names) => {
                enc.sequence(|e| {
                    for gn in names {
                        gn.encode(e);
                    }
                });
            }
            Extension::CrlDistributionPoints(uris) => {
                enc.sequence(|e| {
                    for uri in uris {
                        // DistributionPoint { [0] { fullName [0] { URI } } }
                        e.sequence(|e| {
                            e.explicit(0, |e| {
                                e.constructed(Tag::context(0, true), |e| {
                                    GeneralName::Uri(uri.clone()).encode(e);
                                });
                            });
                        });
                    }
                });
            }
            Extension::AuthorityInfoAccess { ocsp, ca_issuers } => {
                enc.sequence(|e| {
                    for uri in ocsp {
                        e.sequence(|e| {
                            e.oid(&oid::known::ad_ocsp());
                            GeneralName::Uri(uri.clone()).encode(e);
                        });
                    }
                    for uri in ca_issuers {
                        e.sequence(|e| {
                            e.oid(&oid::known::ad_ca_issuers());
                            GeneralName::Uri(uri.clone()).encode(e);
                        });
                    }
                });
            }
            Extension::CertificatePolicies(oids) => {
                enc.sequence(|e| {
                    for policy in oids {
                        e.sequence(|e| e.oid(policy));
                    }
                });
            }
            Extension::Unknown { value, .. } => return value.clone(),
        }
        enc.finish()
    }

    /// Encode the full `Extension` SEQUENCE.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|enc| {
            enc.oid(&self.oid());
            if self.is_critical() {
                enc.boolean(true);
            }
            enc.octet_string(&self.encode_value());
        });
    }

    /// Decode one `Extension` SEQUENCE.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Extension, DerError> {
        let mut ext = dec.sequence()?;
        let ext_oid = ext.oid()?;
        let critical = if ext.peek_tag().ok() == Some(Tag::BOOLEAN) {
            ext.boolean()?
        } else {
            false
        };
        let value = ext.octet_string()?;
        ext.finish()?;

        let parsed = Self::decode_value(&ext_oid, value);
        match parsed {
            Ok(Some(e)) => Ok(e),
            // Unknown OID, or a known OID whose contents use a form we do
            // not model: preserve raw bytes rather than failing the parse.
            Ok(None) | Err(_) => Ok(Extension::Unknown {
                oid: ext_oid,
                critical,
                value: value.to_vec(),
            }),
        }
    }

    fn decode_value(ext_oid: &Oid, value: &[u8]) -> Result<Option<Extension>, DerError> {
        let mut dec = Decoder::new(value);
        let out = if *ext_oid == oid::known::basic_constraints() {
            let mut seq = dec.sequence()?;
            let ca = if seq.peek_tag().ok() == Some(Tag::BOOLEAN) {
                seq.boolean()?
            } else {
                false
            };
            let path_len = if !seq.is_empty() {
                Some(seq.integer_i64()?)
            } else {
                None
            };
            Extension::BasicConstraints { ca, path_len }
        } else if *ext_oid == oid::known::key_usage() {
            let (unused, bits) = dec.bit_string()?;
            let mut flags: u16 = 0;
            let total_bits = bits.len() * 8 - usize::from(unused);
            for i in 0..total_bits.min(16) {
                if bits[i / 8] & (0x80 >> (i % 8)) != 0 {
                    flags |= 1 << i;
                }
            }
            Extension::KeyUsage(flags)
        } else if *ext_oid == oid::known::subject_key_identifier() {
            Extension::SubjectKeyId(dec.octet_string()?.to_vec())
        } else if *ext_oid == oid::known::authority_key_identifier() {
            let mut seq = dec.sequence()?;
            match seq.take_context_primitive(0)? {
                Some(id) => Extension::AuthorityKeyId(id.to_vec()),
                None => return Ok(None), // issuer+serial form: keep raw
            }
        } else if *ext_oid == oid::known::subject_alt_name() {
            let mut seq = dec.sequence()?;
            let mut names = Vec::new();
            while !seq.is_empty() {
                names.push(GeneralName::decode(&mut seq)?);
            }
            Extension::SubjectAltName(names)
        } else if *ext_oid == oid::known::crl_distribution_points() {
            let mut seq = dec.sequence()?;
            let mut uris = Vec::new();
            while !seq.is_empty() {
                let mut dp = seq.sequence()?;
                if let Some(mut dp_name) = dp.take_context_constructed(0)? {
                    if let Some(mut full) = dp_name.take_context_constructed(0)? {
                        while !full.is_empty() {
                            if let GeneralName::Uri(u) = GeneralName::decode(&mut full)? {
                                uris.push(u);
                            }
                        }
                    }
                }
            }
            Extension::CrlDistributionPoints(uris)
        } else if *ext_oid == oid::known::authority_info_access() {
            let mut seq = dec.sequence()?;
            let mut ocsp = Vec::new();
            let mut ca_issuers = Vec::new();
            while !seq.is_empty() {
                let mut ad = seq.sequence()?;
                let method = ad.oid()?;
                let name = GeneralName::decode(&mut ad)?;
                if let GeneralName::Uri(u) = name {
                    if method == oid::known::ad_ocsp() {
                        ocsp.push(u);
                    } else if method == oid::known::ad_ca_issuers() {
                        ca_issuers.push(u);
                    }
                }
            }
            Extension::AuthorityInfoAccess { ocsp, ca_issuers }
        } else if *ext_oid == oid::known::certificate_policies() {
            let mut seq = dec.sequence()?;
            let mut oids = Vec::new();
            while !seq.is_empty() {
                let mut pi = seq.sequence()?;
                oids.push(pi.oid()?);
            }
            Extension::CertificatePolicies(oids)
        } else {
            return Ok(None);
        };
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ext: Extension) -> Extension {
        let mut enc = Encoder::new();
        ext.encode(&mut enc);
        let der = enc.finish();
        let mut dec = Decoder::new(&der);
        let out = Extension::decode(&mut dec).unwrap();
        assert!(dec.is_empty());
        out
    }

    #[test]
    fn basic_constraints_roundtrip() {
        for ext in [
            Extension::BasicConstraints {
                ca: true,
                path_len: Some(0),
            },
            Extension::BasicConstraints {
                ca: true,
                path_len: None,
            },
            Extension::BasicConstraints {
                ca: false,
                path_len: None,
            },
        ] {
            assert_eq!(roundtrip(ext.clone()), ext);
        }
    }

    #[test]
    fn key_usage_roundtrip() {
        for flags in [
            key_usage::DIGITAL_SIGNATURE,
            key_usage::KEY_CERT_SIGN | key_usage::CRL_SIGN,
            key_usage::DIGITAL_SIGNATURE | key_usage::KEY_ENCIPHERMENT,
        ] {
            assert_eq!(
                roundtrip(Extension::KeyUsage(flags)),
                Extension::KeyUsage(flags)
            );
        }
    }

    #[test]
    fn san_roundtrip() {
        let ext = Extension::SubjectAltName(vec![
            GeneralName::Dns("fritz.fonwlan.box".into()),
            GeneralName::Dns("fritz.box".into()),
            GeneralName::Ip([192, 168, 178, 1]),
            GeneralName::Uri("https://myfritz.net/x".into()),
            GeneralName::Email("admin@device.local".into()),
        ]);
        assert_eq!(roundtrip(ext.clone()), ext);
    }

    #[test]
    fn key_id_roundtrips() {
        let ski = Extension::SubjectKeyId(vec![1, 2, 3, 4, 5]);
        assert_eq!(roundtrip(ski.clone()), ski);
        let aki = Extension::AuthorityKeyId(vec![9; 20]);
        assert_eq!(roundtrip(aki.clone()), aki);
    }

    #[test]
    fn crl_dp_roundtrip() {
        let ext = Extension::CrlDistributionPoints(vec![
            "http://crl.example-ca.com/root.crl".into(),
            "http://backup.example-ca.com/root.crl".into(),
        ]);
        assert_eq!(roundtrip(ext.clone()), ext);
    }

    #[test]
    fn aia_roundtrip() {
        let ext = Extension::AuthorityInfoAccess {
            ocsp: vec!["http://ocsp.example-ca.com".into()],
            ca_issuers: vec!["http://certs.example-ca.com/int.der".into()],
        };
        assert_eq!(roundtrip(ext.clone()), ext);
    }

    #[test]
    fn policies_roundtrip() {
        let ext = Extension::CertificatePolicies(vec![
            Oid::new(&[2, 23, 140, 1, 2, 1]).unwrap(),
            Oid::new(&[1, 3, 6, 1, 4, 1, 4146, 1, 20]).unwrap(),
        ]);
        assert_eq!(roundtrip(ext.clone()), ext);
    }

    #[test]
    fn unknown_extension_preserved() {
        let ext = Extension::Unknown {
            oid: Oid::new(&[1, 2, 3, 4, 5]).unwrap(),
            critical: true,
            value: vec![0xde, 0xad],
        };
        assert_eq!(roundtrip(ext.clone()), ext);
    }

    #[test]
    fn general_name_value_strings() {
        assert_eq!(GeneralName::Dns("a.b".into()).value_string(), "a.b");
        assert_eq!(GeneralName::Ip([10, 0, 0, 1]).value_string(), "10.0.0.1");
        assert_eq!(GeneralName::Other(4, vec![0xab]).value_string(), "[4]ab");
    }

    #[test]
    fn criticality_flags() {
        // CA basic constraints and key usage are critical; SAN is not.
        assert!(Extension::BasicConstraints {
            ca: true,
            path_len: None
        }
        .is_critical());
        assert!(!Extension::BasicConstraints {
            ca: false,
            path_len: None
        }
        .is_critical());
        assert!(Extension::KeyUsage(1).is_critical());
        assert!(!Extension::SubjectAltName(vec![]).is_critical());
    }
}
