//! The certificate model: DER encode, parse, and field access.

use crate::extensions::Extension;
use crate::name::Name;
use silentcert_asn1::{Decoder, Encoder, Error as DerError, Oid, Tag, Time};
use silentcert_crypto::sha256::sha256;
use silentcert_crypto::sig::{PublicKey, SigAlgorithm, SigError, Signature};
use std::fmt;
use std::ops::Range;

/// SHA-256 fingerprint of a certificate's full DER encoding.
///
/// The canonical certificate identity throughout the pipeline (scan records
/// store fingerprints, not full certificates).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u8; 32]);

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({})", self)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

impl Fingerprint {
    /// Full lowercase hex.
    pub fn to_hex(self) -> String {
        silentcert_crypto::hex::encode(&self.0)
    }
}

/// Errors constructing or parsing certificates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// DER-level failure.
    Der(DerError),
    /// Key material failure.
    Key(SigError),
    /// Structural problem beyond DER framing.
    Structure(&'static str),
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::Der(e) => write!(f, "DER error: {e}"),
            CertificateError::Key(e) => write!(f, "key error: {e}"),
            CertificateError::Structure(what) => write!(f, "certificate structure: {what}"),
        }
    }
}

impl std::error::Error for CertificateError {}

impl From<DerError> for CertificateError {
    fn from(e: DerError) -> Self {
        CertificateError::Der(e)
    }
}

impl From<SigError> for CertificateError {
    fn from(e: SigError) -> Self {
        CertificateError::Key(e)
    }
}

/// A parsed X.509 certificate.
///
/// Retains both the decoded fields and the exact DER bytes, with the TBS
/// portion kept as a range of them, so fingerprints and signature checks
/// operate on the wire encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Raw version field value: 0 = v1, 2 = v3. The paper's dataset also
    /// contains nonsense values (they observed 2, 4 and 13 as *version
    /// numbers*, i.e. field values 1, 3 and 12); the parser preserves them.
    pub version: i64,
    /// Serial number: raw big-endian two's-complement INTEGER contents.
    pub serial: Vec<u8>,
    /// Issuer distinguished name.
    pub issuer: Name,
    /// Start of validity.
    pub not_before: Time,
    /// End of validity (may precede `not_before` in invalid certificates).
    pub not_after: Time,
    /// Subject distinguished name.
    pub subject: Name,
    /// Subject public key.
    pub public_key: PublicKey,
    /// v3 extensions in order.
    pub extensions: Vec<Extension>,
    /// Signature algorithm (outer, must match TBS copy).
    pub sig_alg: SigAlgorithm,
    /// Signature value.
    pub signature: Vec<u8>,
    /// Full certificate DER.
    der: Vec<u8>,
    /// Where the TBS DER (the signed bytes) sits in `der`.
    tbs: Range<usize>,
}

impl Certificate {
    /// Assemble and encode a certificate from parts, signing is done by the
    /// builder; this is the encoding back-end.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        version: i64,
        serial: Vec<u8>,
        issuer: Name,
        not_before: Time,
        not_after: Time,
        subject: Name,
        public_key: PublicKey,
        extensions: Vec<Extension>,
        sig_alg: SigAlgorithm,
        sign: impl FnOnce(&[u8]) -> Signature,
    ) -> Certificate {
        let tbs_der = encode_tbs(
            version,
            &serial,
            sig_alg,
            &issuer,
            not_before,
            not_after,
            &subject,
            &public_key,
            &extensions,
        );
        let signature = sign(&tbs_der);
        debug_assert_eq!(signature.algorithm, sig_alg);
        let mut enc = Encoder::new();
        enc.sequence(|enc| {
            enc.raw_der(&tbs_der);
            sig_alg.encode(enc);
            enc.bit_string(&signature.bytes);
        });
        let der = enc.finish();
        // The TBS is the first element of the outer SEQUENCE, so it starts
        // where that SEQUENCE's contents do.
        let start = der.len()
            - Decoder::new(&der)
                .sequence()
                .expect("freshly encoded certificate")
                .remaining();
        Certificate {
            version,
            serial,
            issuer,
            not_before,
            not_after,
            subject,
            public_key,
            extensions,
            sig_alg,
            signature: signature.bytes,
            der,
            tbs: start..start + tbs_der.len(),
        }
    }

    /// Parse a certificate from DER.
    pub fn from_der(der: &[u8]) -> Result<Certificate, CertificateError> {
        let mut top = Decoder::new(der);
        let tbs_total_offset;
        let tbs_len;
        let mut cert = top.sequence()?;
        {
            // Locate the TBS bytes inside the outer SEQUENCE so signature
            // verification uses the exact wire encoding.
            let inner = cert.remaining_slice();
            let probe = Decoder::new(inner);
            tbs_len = probe.peek_tlv_len()?;
            if tbs_len > inner.len() {
                return Err(CertificateError::Der(DerError::Truncated));
            }
            // Offset of TBS start within `der`.
            tbs_total_offset = der.len() - top.remaining() - cert.remaining();
        }

        let mut tbs = cert.sequence()?;
        // version [0] EXPLICIT INTEGER DEFAULT v1
        let version = match tbs.take_context_constructed(0)? {
            Some(mut v) => v.integer_i64()?,
            None => 0,
        };
        let serial = tbs.integer_raw()?.to_vec();
        let tbs_sig_alg = SigAlgorithm::decode(&mut tbs)?;
        let issuer = Name::decode(&mut tbs)?;
        let mut validity = tbs.sequence()?;
        let not_before = validity.time()?;
        let not_after = validity.time()?;
        validity.finish()?;
        let subject = Name::decode(&mut tbs)?;
        let spki_len = tbs.peek_tlv_len()?;
        if spki_len > tbs.remaining() {
            return Err(CertificateError::Der(DerError::Truncated));
        }
        let spki_der = &tbs.remaining_slice()[..spki_len];
        let public_key = PublicKey::from_spki_der(spki_der)?;
        let _ = tbs.read_tlv()?; // consume SPKI
                                 // Skip optional issuerUniqueID [1] / subjectUniqueID [2].
        let _ = tbs.take_context_primitive(1)?;
        let _ = tbs.take_context_primitive(2)?;
        let mut extensions = Vec::new();
        if let Some(mut wrapper) = tbs.take_context_constructed(3)? {
            let mut exts = wrapper.sequence()?;
            while !exts.is_empty() {
                extensions.push(Extension::decode(&mut exts)?);
            }
        }
        tbs.finish()?;

        let sig_alg = SigAlgorithm::decode(&mut cert)?;
        if sig_alg != tbs_sig_alg {
            return Err(CertificateError::Structure(
                "TBS/outer signature algorithm mismatch",
            ));
        }
        let (unused, sig_bits) = cert.bit_string()?;
        if unused != 0 {
            return Err(CertificateError::Structure(
                "signature BIT STRING has unused bits",
            ));
        }
        cert.finish()?;
        top.finish()?;

        Ok(Certificate {
            version,
            serial,
            issuer,
            not_before,
            not_after,
            subject,
            public_key,
            extensions,
            sig_alg,
            signature: sig_bits.to_vec(),
            der: der.to_vec(),
            tbs: tbs_total_offset..tbs_total_offset + tbs_len,
        })
    }

    /// Full certificate DER bytes.
    pub fn to_der(&self) -> &[u8] {
        &self.der
    }

    /// The TBS (signed) bytes.
    pub fn tbs_der(&self) -> &[u8] {
        &self.der[self.tbs.clone()]
    }

    /// SHA-256 fingerprint of the DER encoding.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint(sha256(&self.der))
    }

    /// Human-oriented version number (v1 = 1, v3 = 3).
    pub fn version_number(&self) -> i64 {
        self.version + 1
    }

    /// Whether subject and issuer names are byte-identical (self-*issued*;
    /// a necessary but not sufficient condition for self-*signed*).
    pub fn is_self_issued(&self) -> bool {
        self.subject == self.issuer
    }

    /// Verify this certificate's signature against `signer` key material.
    pub fn verify_signed_by(&self, signer: &PublicKey) -> Result<(), SigError> {
        let sig = Signature {
            algorithm: self.sig_alg,
            bytes: self.signature.clone(),
        };
        signer.verify(self.tbs_der(), &sig)
    }

    /// Whether the certificate's signature verifies under its **own**
    /// public key — the paper's manual self-signed check (§4.2 footnote 7):
    /// openssl only reports error 19 when subject == issuer, so certificates
    /// whose names differ must be checked by verifying the signature with
    /// the certificate's own key.
    pub fn is_self_signed(&self) -> bool {
        self.verify_signed_by(&self.public_key).is_ok()
    }

    /// Validity period in whole seconds (`Not After` − `Not Before`), which
    /// is **negative** for the 5.38% of invalid certificates the paper finds
    /// with `Not After` before `Not Before`.
    pub fn validity_period_seconds(&self) -> i64 {
        self.not_after.unix_seconds() - self.not_before.unix_seconds()
    }

    /// Validity period in days (floor division; may be negative).
    pub fn validity_period_days(&self) -> i64 {
        self.validity_period_seconds().div_euclid(86_400)
    }

    /// First SubjectAltName extension, if present.
    pub fn subject_alt_names(&self) -> Option<&[crate::extensions::GeneralName]> {
        self.extensions.iter().find_map(|e| match e {
            Extension::SubjectAltName(names) => Some(names.as_slice()),
            _ => None,
        })
    }

    /// Authority Key Identifier bytes, if present.
    pub fn authority_key_id(&self) -> Option<&[u8]> {
        self.extensions.iter().find_map(|e| match e {
            Extension::AuthorityKeyId(id) => Some(id.as_slice()),
            _ => None,
        })
    }

    /// Subject Key Identifier bytes, if present.
    pub fn subject_key_id(&self) -> Option<&[u8]> {
        self.extensions.iter().find_map(|e| match e {
            Extension::SubjectKeyId(id) => Some(id.as_slice()),
            _ => None,
        })
    }

    /// CRL distribution point URIs (empty if the extension is absent —
    /// true for 99.2% of invalid certificates per the paper).
    pub fn crl_uris(&self) -> &[String] {
        self.extensions
            .iter()
            .find_map(|e| match e {
                Extension::CrlDistributionPoints(uris) => Some(uris.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// OCSP responder URIs from AIA.
    pub fn ocsp_uris(&self) -> &[String] {
        self.extensions
            .iter()
            .find_map(|e| match e {
                Extension::AuthorityInfoAccess { ocsp, .. } => Some(ocsp.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// caIssuers URIs from AIA.
    pub fn aia_ca_issuer_uris(&self) -> &[String] {
        self.extensions
            .iter()
            .find_map(|e| match e {
                Extension::AuthorityInfoAccess { ca_issuers, .. } => Some(ca_issuers.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// Certificate policy OIDs.
    pub fn policy_oids(&self) -> &[Oid] {
        self.extensions
            .iter()
            .find_map(|e| match e {
                Extension::CertificatePolicies(oids) => Some(oids.as_slice()),
                _ => None,
            })
            .unwrap_or(&[])
    }

    /// Whether Basic Constraints marks this as a CA certificate.
    ///
    /// v1 certificates cannot carry Basic Constraints — the reason the
    /// paper notes they "cannot distinguish between leaf and CA
    /// certificates"; for them this returns `false`.
    pub fn is_ca(&self) -> bool {
        self.extensions
            .iter()
            .any(|e| matches!(e, Extension::BasicConstraints { ca: true, .. }))
    }

    /// Serial number as lowercase hex.
    pub fn serial_hex(&self) -> String {
        silentcert_crypto::hex::encode(&self.serial)
    }
}

/// Encode a TBSCertificate.
#[allow(clippy::too_many_arguments)]
fn encode_tbs(
    version: i64,
    serial: &[u8],
    sig_alg: SigAlgorithm,
    issuer: &Name,
    not_before: Time,
    not_after: Time,
    subject: &Name,
    public_key: &PublicKey,
    extensions: &[Extension],
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.sequence(|enc| {
        if version != 0 {
            enc.explicit(0, |e| e.integer_i64(version));
        }
        enc.raw_tlv(Tag::INTEGER, serial);
        sig_alg.encode(enc);
        issuer.encode(enc);
        enc.sequence(|e| {
            e.time(not_before);
            e.time(not_after);
        });
        subject.encode(enc);
        enc.raw_der(&public_key.to_spki_der());
        if !extensions.is_empty() {
            enc.explicit(3, |e| {
                e.sequence(|e| {
                    for ext in extensions {
                        ext.encode(e);
                    }
                });
            });
        }
    });
    enc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use silentcert_crypto::sig::{KeyPair, SimKeyPair};

    fn sim_key(seed: &[u8]) -> KeyPair {
        KeyPair::Sim(SimKeyPair::from_seed(seed))
    }

    fn basic_cert() -> Certificate {
        let key = sim_key(b"subject");
        CertificateBuilder::new()
            .serial_u64(7)
            .subject(Name::with_common_name("device.local"))
            .validity(
                Time::from_ymd(2013, 1, 1).unwrap(),
                Time::from_ymd(2033, 1, 1).unwrap(),
            )
            .self_signed(&key)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let cert = basic_cert();
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(parsed, cert);
        assert_eq!(parsed.fingerprint(), cert.fingerprint());
    }

    #[test]
    fn self_signed_detection() {
        let cert = basic_cert();
        assert!(cert.is_self_issued());
        assert!(cert.is_self_signed());
        // A cert signed by a different key is not self-signed even when
        // subject == issuer textually.
        let other = sim_key(b"other");
        let forged = CertificateBuilder::new()
            .serial_u64(8)
            .subject(Name::with_common_name("device.local"))
            .issuer(Name::with_common_name("device.local"))
            .validity(
                Time::from_ymd(2013, 1, 1).unwrap(),
                Time::from_ymd(2033, 1, 1).unwrap(),
            )
            .public_key(sim_key(b"victim").public())
            .sign_with(&other);
        assert!(forged.is_self_issued());
        assert!(!forged.is_self_signed());
    }

    #[test]
    fn negative_validity_period() {
        let key = sim_key(b"confused-clock");
        let cert = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("192.168.1.1"))
            .validity(
                Time::from_ymd(2014, 6, 1).unwrap(),
                Time::from_ymd(2014, 5, 1).unwrap(),
            )
            .self_signed(&key);
        assert!(cert.validity_period_days() < 0);
        assert_eq!(cert.validity_period_days(), -31);
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(parsed.validity_period_days(), -31);
    }

    #[test]
    fn year_3000_not_after_roundtrips() {
        let key = sim_key(b"optimist");
        let cert = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::with_common_name("nas"))
            .validity(
                Time::from_ymd(2012, 1, 1).unwrap(),
                Time::from_ymd(3012, 1, 1).unwrap(),
            )
            .self_signed(&key);
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(parsed.not_after.year, 3012);
        assert!(parsed.validity_period_days() > 300_000);
    }

    #[test]
    fn v1_certificate_has_no_version_field() {
        let key = sim_key(b"ancient");
        let cert = CertificateBuilder::new()
            .version_v1()
            .serial_u64(3)
            .subject(Name::with_common_name("old"))
            .validity(
                Time::from_ymd(2010, 1, 1).unwrap(),
                Time::from_ymd(2020, 1, 1).unwrap(),
            )
            .self_signed(&key);
        assert_eq!(cert.version_number(), 1);
        assert!(cert.extensions.is_empty());
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(parsed.version_number(), 1);
        assert!(!parsed.is_ca()); // v1 cannot express CA-ness
    }

    #[test]
    fn bogus_version_numbers_preserved() {
        // The paper found certificates claiming version numbers 2, 4, 13.
        let key = sim_key(b"bogus");
        let cert = CertificateBuilder::new()
            .version_raw(12) // "version 13"
            .serial_u64(3)
            .subject(Name::with_common_name("strange"))
            .validity(
                Time::from_ymd(2013, 1, 1).unwrap(),
                Time::from_ymd(2014, 1, 1).unwrap(),
            )
            .self_signed(&key);
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(parsed.version_number(), 13);
    }

    #[test]
    fn extension_accessors() {
        let key = sim_key(b"featureful");
        let cert = CertificateBuilder::new()
            .serial_u64(5)
            .subject(Name::with_common_name("fritz.box"))
            .validity(
                Time::from_ymd(2013, 1, 1).unwrap(),
                Time::from_ymd(2033, 1, 1).unwrap(),
            )
            .extension(Extension::SubjectAltName(vec![
                crate::extensions::GeneralName::Dns("fritz.fonwlan.box".into()),
            ]))
            .extension(Extension::CrlDistributionPoints(vec![
                "http://crl.test/a.crl".into(),
            ]))
            .extension(Extension::AuthorityInfoAccess {
                ocsp: vec!["http://ocsp.test".into()],
                ca_issuers: vec![],
            })
            .self_signed(&key);
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert_eq!(parsed.subject_alt_names().unwrap().len(), 1);
        assert_eq!(parsed.crl_uris(), ["http://crl.test/a.crl".to_string()]);
        assert_eq!(parsed.ocsp_uris(), ["http://ocsp.test".to_string()]);
        assert!(parsed.aia_ca_issuer_uris().is_empty());
        assert!(parsed.policy_oids().is_empty());
    }

    #[test]
    fn tampered_der_fails_signature() {
        let cert = basic_cert();
        let mut der = cert.to_der().to_vec();
        // Flip a byte in the middle of the TBS (subject name area).
        let mid = der.len() / 2;
        der[mid] ^= 0x01;
        // Structural damage (a parse error) is also acceptable.
        if let Ok(parsed) = Certificate::from_der(&der) {
            assert!(!parsed.is_self_signed());
        }
    }

    #[test]
    fn truncated_der_rejected() {
        let cert = basic_cert();
        let der = cert.to_der();
        for cut in [0, 1, der.len() / 2, der.len() - 1] {
            assert!(Certificate::from_der(&der[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn serial_hex_rendering() {
        let cert = basic_cert();
        assert_eq!(cert.serial_hex(), "07");
    }

    #[test]
    fn empty_subject_and_issuer_roundtrip() {
        let key = sim_key(b"empty");
        let cert = CertificateBuilder::new()
            .serial_u64(1)
            .subject(Name::empty())
            .validity(
                Time::from_ymd(2013, 1, 1).unwrap(),
                Time::from_ymd(2014, 1, 1).unwrap(),
            )
            .self_signed(&key);
        let parsed = Certificate::from_der(cert.to_der()).unwrap();
        assert!(parsed.subject.is_empty());
        assert!(parsed.issuer.is_empty());
        assert!(parsed.is_self_issued());
    }
}

#[cfg(test)]
mod truncation_regression {
    use super::*;

    /// A TLV whose length field claims more bytes than its container has
    /// must be rejected, not sliced (found by proptest).
    #[test]
    fn overlong_inner_length_is_an_error_not_a_panic() {
        // Outer SEQUENCE of 4 bytes containing a SEQUENCE claiming 0x30.
        let der = [0x30, 0x04, 0x30, 0x30, 0x00, 0x00];
        assert!(Certificate::from_der(&der).is_err());
    }
}
