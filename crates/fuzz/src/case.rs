//! A fuzz case: one leaf plus the chain the "server" presented with it.
//!
//! Cases serialize to a line-oriented text format so the triage corpus in
//! `fuzz/corpus/` diffs cleanly under version control, and are identified
//! by the SHA-256 of that serialization — content-addressed, so the same
//! discrepancy found twice lands in the same file.

use silentcert_crypto::hex;
use silentcert_crypto::sha256::sha256;

/// Magic first line of the on-disk case format.
pub const CASE_HEADER: &str = "silentcert-fuzz-case v1";

/// One differential-testing input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzCase {
    /// The certificate under test (possibly not valid DER).
    pub leaf: Vec<u8>,
    /// The presented chain, leaf's issuer first (each possibly damaged).
    pub chain: Vec<Vec<u8>>,
}

impl FuzzCase {
    /// A chainless case.
    pub fn bare(leaf: Vec<u8>) -> FuzzCase {
        FuzzCase {
            leaf,
            chain: Vec::new(),
        }
    }

    /// Content-addressed identity: hex SHA-256 of the text serialization.
    pub fn id(&self) -> String {
        hex::encode(&sha256(self.to_text().as_bytes()))
    }

    /// Serialize to the versioned text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CASE_HEADER);
        out.push('\n');
        out.push_str("leaf ");
        out.push_str(&hex::encode(&self.leaf));
        out.push('\n');
        for link in &self.chain {
            out.push_str("chain ");
            out.push_str(&hex::encode(link));
            out.push('\n');
        }
        out
    }

    /// Parse the text format. Strict: unknown directives, a missing
    /// header, or non-hex payloads are errors — the corpus is committed
    /// and should never drift silently.
    pub fn from_text(text: &str) -> Result<FuzzCase, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h == CASE_HEADER => {}
            other => return Err(format!("bad case header: {other:?}")),
        }
        let mut leaf = None;
        let mut chain = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (kind, payload) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed case line: {line:?}"))?;
            let bytes =
                hex::decode(payload).map_err(|_| format!("non-hex payload in {kind} line"))?;
            match kind {
                "leaf" if leaf.is_none() => leaf = Some(bytes),
                "leaf" => return Err("duplicate leaf line".into()),
                "chain" => chain.push(bytes),
                other => return Err(format!("unknown case directive {other:?}")),
            }
        }
        Ok(FuzzCase {
            leaf: leaf.ok_or("case has no leaf line")?,
            chain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        let case = FuzzCase {
            leaf: vec![0x30, 0x00],
            chain: vec![vec![0xde, 0xad], vec![]],
        };
        let text = case.to_text();
        let back = FuzzCase::from_text(&text).expect("parses");
        assert_eq!(back, case);
        assert_eq!(back.id(), case.id());
        assert_eq!(case.id().len(), 64);
    }

    #[test]
    fn payloads_decode_in_either_case() {
        let case = FuzzCase::from_text(&format!("{CASE_HEADER}\nleaf DEad\nchain \n")).unwrap();
        assert_eq!(case.leaf, [0xde, 0xad]);
        assert_eq!(case.chain, [Vec::<u8>::new()]);
        assert!(FuzzCase::from_text(&format!("{CASE_HEADER}\nleaf abc\n")).is_err());
    }

    #[test]
    fn rejects_damage() {
        assert!(FuzzCase::from_text("").is_err());
        assert!(FuzzCase::from_text("wrong header\nleaf 00\n").is_err());
        assert!(FuzzCase::from_text(&format!("{CASE_HEADER}\n")).is_err());
        assert!(FuzzCase::from_text(&format!("{CASE_HEADER}\nleaf zz\n")).is_err());
        assert!(FuzzCase::from_text(&format!("{CASE_HEADER}\nleaf 00\nleaf 00\n")).is_err());
        assert!(FuzzCase::from_text(&format!("{CASE_HEADER}\nleaf 00\nbogus 00\n")).is_err());
    }
}
