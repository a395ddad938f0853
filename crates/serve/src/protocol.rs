//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request:
//!
//! ```text
//! request   = "{" fields "}" LF
//! fields    = op [, id] [, cert] [, chain]
//! op        = "validate" | "classify" | "health"
//!           | "metrics" | "shutdown" | "chaos_panic"
//!           | "chaos_kill_shard"                   ; cluster front only
//!           | "add_shard" | "remove_shard"         ; cluster admin plane
//!           | "drain_shard" | "rolling_restart"
//!           | "topology"
//!           | "fleet"                              ; aggregated fleet view
//! cert      = base64(DER) | hex(DER)          ; leaf certificate
//! chain     = [ cert, ... ]                   ; presented intermediates
//! ```
//!
//! Responses carry a `code` with HTTP-flavoured semantics so shedding is
//! distinguishable from failure: `200` served, `400` malformed frame,
//! `413` frame too large, `500` classification panic, `502` router
//! refusal (no shard for the key / retry budget spent), `503` shed
//! (breaker open, draining, or the journal did not take the record).
//!
//! `health` and `metrics` are answered on the event loop
//! without passing admission, so they stay live while the breaker
//! sheds classification load. `metrics` returns
//! the full observability snapshot (DESIGN.md §11): as a JSON object by
//! default, or as a Prometheus text exposition carried in a JSON string
//! when the frame sets `"format":"prometheus"`. `chaos_panic` (fault
//! injection for the supervision tests) is only honoured when the
//! server enables chaos ops.

use crate::json::{self, Value};
use silentcert_validate::Classification;
use silentcert_x509::pem::base64_decode;
use silentcert_x509::Certificate;

/// Response status codes (HTTP-flavoured, carried as JSON numbers).
pub mod code {
    pub const OK: u32 = 200;
    pub const BAD_REQUEST: u32 = 400;
    pub const TOO_LARGE: u32 = 413;
    pub const PANIC: u32 = 500;
    /// Router-level refusal: no shard available for the key, or the
    /// per-client retry budget is exhausted (cluster front only; a
    /// single shard never emits this).
    pub const UNAVAILABLE: u32 = 502;
    pub const SHED: u32 = 503;
}

/// The operations a frame can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Validate,
    Classify,
    Health,
    /// Full metrics snapshot (JSON or Prometheus exposition).
    Metrics,
    Shutdown,
    /// Test-only: makes the classification panic (panic-isolation
    /// drill).
    ChaosPanic,
    /// Cluster-only: asks the router's supervisor to SIGKILL a shard
    /// (failover drill). A plain shard answers `400` — only the cluster
    /// front honours it, and only with chaos ops enabled.
    ChaosKillShard,
    /// Cluster-only admin verb: spawn a new shard, handshake it, and
    /// cut the ring over to include it. A plain shard answers `400` —
    /// only the cluster front honours admin verbs, and only with the
    /// admin plane enabled.
    AddShard,
    /// Cluster-only admin verb: drain the target shard (SIGTERM with a
    /// deadline, journal replayed) and remove it from the topology.
    RemoveShard,
    /// Cluster-only admin verb: drain the target shard out of rotation
    /// but keep it registered (maintenance stop).
    DrainShard,
    /// Cluster-only admin verb: restart every shard, one at a time,
    /// each step an epoch'd drain + rejoin. Zero downtime by contract.
    RollingRestart,
    /// Cluster-only admin verb: report the topology epoch and every
    /// shard's health/generation/address. Read-only, answered inline.
    Topology,
    /// Cluster-only: the aggregated fleet view (windowed rates, fleet
    /// quantiles, burn rates) from the stats aggregator's sample ring.
    /// JSON by default, Prometheus exposition with
    /// `"format":"prometheus"`. Read-only, answered inline; a plain
    /// shard answers `400`.
    Fleet,
}

impl Op {
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Validate => "validate",
            Op::Classify => "classify",
            Op::Health => "health",
            Op::Metrics => "metrics",
            Op::Shutdown => "shutdown",
            Op::ChaosPanic => "chaos_panic",
            Op::ChaosKillShard => "chaos_kill_shard",
            Op::AddShard => "add_shard",
            Op::RemoveShard => "remove_shard",
            Op::DrainShard => "drain_shard",
            Op::RollingRestart => "rolling_restart",
            Op::Topology => "topology",
            Op::Fleet => "fleet",
        }
    }

    /// Fleet-reconfiguration verbs: only the cluster front executes
    /// them (a plain shard answers `400`), and the router only honours
    /// them when its admin plane is enabled.
    pub fn is_admin(self) -> bool {
        matches!(
            self,
            Op::AddShard | Op::RemoveShard | Op::DrainShard | Op::RollingRestart | Op::Topology
        )
    }
}

/// A parsed request frame.
#[derive(Debug, Clone)]
pub struct Request {
    pub op: Op,
    /// Client-chosen correlation id, echoed back verbatim.
    pub id: String,
    /// Leaf certificate DER (for `validate` / `classify`).
    pub der: Vec<u8>,
    /// Presented chain, already parsed. Unparseable chain entries are a
    /// `400`: the chain is transport, not data.
    pub chain: Vec<Certificate>,
    /// Rendering requested for `metrics` (`"prometheus"` or default JSON).
    pub format: Option<String>,
    /// Target shard for `chaos_kill_shard` (router picks one if absent).
    pub shard: Option<u32>,
}

/// Decode a certificate field: base64 DER (the native form) or hex.
/// A non-empty, even-length field of hex digits (either case) is hex;
/// anything else is base64. The router hashes a [`fast_scan`]ned `cert`
/// through this to pick a shard without parsing the rest of the frame.
pub fn decode_cert_field(s: &str) -> Result<Vec<u8>, &'static str> {
    match silentcert_crypto::hex::decode(s) {
        Ok(der) if !der.is_empty() => Ok(der),
        _ => base64_decode(s).map_err(|_| "cert field is neither hex nor base64"),
    }
}

/// Parse one frame (without its trailing newline).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = match v.get("op").and_then(Value::as_str) {
        Some("validate") => Op::Validate,
        Some("classify") => Op::Classify,
        Some("health") => Op::Health,
        Some("metrics") => Op::Metrics,
        Some("shutdown") => Op::Shutdown,
        Some("chaos_panic") => Op::ChaosPanic,
        Some("chaos_kill_shard") => Op::ChaosKillShard,
        Some("add_shard") => Op::AddShard,
        Some("remove_shard") => Op::RemoveShard,
        Some("drain_shard") => Op::DrainShard,
        Some("rolling_restart") => Op::RollingRestart,
        Some("topology") => Op::Topology,
        Some("fleet") => Op::Fleet,
        Some(other) => return Err(format!("unknown op '{}'", json::escape(other))),
        None => return Err("missing 'op'".to_string()),
    };
    let id = v
        .get("id")
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_string();
    let mut der = Vec::new();
    let mut chain = Vec::new();
    if matches!(op, Op::Validate | Op::Classify) {
        let cert = v
            .get("cert")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("op '{}' requires 'cert'", op.as_str()))?;
        der = decode_cert_field(cert).map_err(str::to_string)?;
        if let Some(entries) = v.get("chain").and_then(Value::as_array) {
            for (i, entry) in entries.iter().enumerate() {
                let s = entry
                    .as_str()
                    .ok_or_else(|| format!("chain[{i}] is not a string"))?;
                let der = decode_cert_field(s).map_err(str::to_string)?;
                let cert = Certificate::from_der(&der).map_err(|e| format!("chain[{i}]: {e}"))?;
                chain.push(cert);
            }
        }
    }
    let format = v.get("format").and_then(Value::as_str).map(str::to_string);
    let shard = v
        .get("shard")
        .and_then(Value::as_f64)
        .filter(|f| f.is_finite() && *f >= 0.0)
        .map(|f| f as u32);
    Ok(Request {
        op,
        id,
        der,
        chain,
        format,
        shard,
    })
}

/// Render one response line (no trailing newline).
pub fn response_line(id: &str, code: u32, fields: &[(&str, String)]) -> String {
    let mut out = format!("{{\"id\":\"{}\",\"code\":{code}", json::escape(id));
    for (k, v) in fields {
        out.push(',');
        out.push('"');
        out.push_str(k);
        out.push_str("\":");
        out.push_str(v);
    }
    out.push('}');
    out
}

/// A JSON string field value.
pub fn js(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

/// The `result` fields for a classification outcome. The `result` string
/// is the canonical `Display` form — the same bytes the journal records,
/// so replay comparison is byte-exact.
pub fn classification_fields(op: Op, outcome: &Classification) -> Vec<(&'static str, String)> {
    let mut fields = vec![("result", js(&outcome.to_string()))];
    match outcome {
        Classification::Valid {
            chain_len,
            transvalid,
        } => {
            fields.push(("valid", "true".to_string()));
            if op == Op::Validate {
                fields.push(("chain_len", chain_len.to_string()));
                fields.push(("transvalid", transvalid.to_string()));
            }
        }
        Classification::Invalid(reason) => {
            fields.push(("valid", "false".to_string()));
            if op == Op::Classify {
                fields.push(("reason", js(&reason.to_string())));
            }
        }
    }
    fields
}

/// Shorthand for an error response.
pub fn error_line(id: &str, code: u32, error: &str) -> String {
    response_line(id, code, &[("error", js(error))])
}

/// A borrowed view of a canonically-shaped classification frame (see
/// [`fast_scan`]).
#[derive(Debug, PartialEq, Eq)]
pub struct FastFrame<'a> {
    pub op: Op,
    pub id: &'a str,
    pub cert: &'a str,
    pub chain: Vec<&'a str>,
}

/// Zero-copy scan of the canonical classification frame shapes:
///
/// ```text
/// {"op":"validate|classify","id":"...","cert":"..."}
/// {"op":"validate|classify","id":"...","cert":"...","chain":["...",...]}
/// ```
///
/// with no escape sequences and no extra fields — exactly what the
/// corpus generator and any straightforward client emit. Anything else
/// (reordered keys, escapes, extra keys, unicode ids) returns `None`
/// and takes the full [`parse_request`] path, so this is a fast lane,
/// never a second dialect: on `Some`, `parse_request` would succeed
/// with identical fields. The serve layer uses the borrowed cert/chain
/// text as its [`ResponseCache`](crate::cache::ResponseCache) key.
pub fn fast_scan(line: &str) -> Option<FastFrame<'_>> {
    let b = line.as_bytes();
    let mut pos = 0usize;

    let lit = |pos: &mut usize, s: &[u8]| -> bool {
        if b.len() - *pos >= s.len() && &b[*pos..*pos + s.len()] == s {
            *pos += s.len();
            true
        } else {
            false
        }
    };
    // A plain JSON string body closed by its quote: no escapes, no
    // control bytes. Its ends are ASCII, so `line` slices there.
    let plain = |pos: &mut usize| -> Option<&str> {
        let start = *pos;
        let end = start + json::plain_run(&b[start..]);
        if b.get(end) != Some(&b'"') {
            return None;
        }
        *pos = end + 1;
        Some(&line[start..end])
    };

    if !lit(&mut pos, b"{\"op\":\"") {
        return None;
    }
    let op = if lit(&mut pos, b"validate\"") {
        Op::Validate
    } else if lit(&mut pos, b"classify\"") {
        Op::Classify
    } else {
        return None;
    };
    if !lit(&mut pos, b",\"id\":\"") {
        return None;
    }
    let id = plain(&mut pos)?;
    if !lit(&mut pos, b",\"cert\":\"") {
        return None;
    }
    let cert = plain(&mut pos)?;
    let mut chain = Vec::new();
    if lit(&mut pos, b",\"chain\":[\"") {
        loop {
            chain.push(plain(&mut pos)?);
            if lit(&mut pos, b",\"") {
                continue;
            }
            break;
        }
        if !lit(&mut pos, b"]") {
            return None;
        }
    }
    if !lit(&mut pos, b"}") || pos != b.len() {
        return None;
    }
    Some(FastFrame {
        op,
        id,
        cert,
        chain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_base64_and_hex_certs() {
        let r = parse_request(r#"{"op":"classify","id":"a","cert":"3q2+7w=="}"#).unwrap();
        assert_eq!(r.der, vec![0xde, 0xad, 0xbe, 0xef]);
        let r = parse_request(r#"{"op":"validate","cert":"deadbeef","deadline_ms":50}"#).unwrap();
        assert_eq!(r.der, vec![0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(r.id, "");
    }

    /// `decode_cert_field` before its hex branch moved onto the shared
    /// codec, kept as the reference the current one must agree with.
    fn reference_cert_field(s: &str) -> Result<Vec<u8>, &'static str> {
        let looks_hex =
            s.len().is_multiple_of(2) && !s.is_empty() && s.bytes().all(|b| b.is_ascii_hexdigit());
        if looks_hex {
            let nibble = |b: u8| (b as char).to_digit(16).unwrap() as u8;
            let bytes = s.as_bytes();
            return Ok(bytes
                .chunks(2)
                .map(|p| (nibble(p[0]) << 4) | nibble(p[1]))
                .collect());
        }
        base64_decode(s).map_err(|_| "cert field is neither hex nor base64")
    }

    #[test]
    fn cert_field_is_hex_only_when_non_empty_even_and_all_hex() {
        let deadbeef = Ok(vec![0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(decode_cert_field("DEADbeef"), deadbeef);
        assert_eq!(decode_cert_field("3q2+7w=="), deadbeef);
        // Valid base64 as well, but all-hex: hex wins.
        assert_eq!(decode_cert_field("abcd"), Ok(vec![0xab, 0xcd]));
        // Odd length or a non-hex byte falls to base64, and so does "".
        assert_eq!(
            decode_cert_field("abcdef0"),
            reference_cert_field("abcdef0")
        );
        assert_eq!(decode_cert_field("abcg"), Ok(vec![0x69, 0xb7, 0x20]));
        assert_eq!(decode_cert_field(""), Ok(Vec::new()));
        assert_eq!(
            decode_cert_field("abc"),
            Err("cert field is neither hex nor base64")
        );
    }

    proptest::proptest! {
        #[test]
        fn cert_field_decodes_as_before(s in "[0-9a-fA-Fg-zG-Z+/= ]{0,12}") {
            proptest::prop_assert_eq!(decode_cert_field(&s), reference_cert_field(&s));
        }
    }

    #[test]
    fn metrics_op_parses_with_optional_format() {
        let r = parse_request(r#"{"op":"metrics","id":"m"}"#).unwrap();
        assert_eq!(r.op, Op::Metrics);
        assert_eq!(r.format, None);
        let r = parse_request(r#"{"op":"metrics","format":"prometheus"}"#).unwrap();
        assert_eq!(r.format.as_deref(), Some("prometheus"));
    }

    #[test]
    fn chaos_kill_shard_parses_optional_target() {
        let r = parse_request(r#"{"op":"chaos_kill_shard","id":"k"}"#).unwrap();
        assert_eq!(r.op, Op::ChaosKillShard);
        assert_eq!(r.shard, None);
        let r = parse_request(r#"{"op":"chaos_kill_shard","shard":2}"#).unwrap();
        assert_eq!(r.shard, Some(2));
    }

    #[test]
    fn admin_ops_parse_with_optional_target() {
        let r = parse_request(r#"{"op":"add_shard","id":"a"}"#).unwrap();
        assert_eq!(r.op, Op::AddShard);
        assert!(r.op.is_admin());
        let r = parse_request(r#"{"op":"remove_shard","shard":3}"#).unwrap();
        assert_eq!(r.op, Op::RemoveShard);
        assert_eq!(r.shard, Some(3));
        let r = parse_request(r#"{"op":"drain_shard","shard":0}"#).unwrap();
        assert_eq!((r.op, r.shard), (Op::DrainShard, Some(0)));
        assert_eq!(
            parse_request(r#"{"op":"rolling_restart"}"#).unwrap().op,
            Op::RollingRestart
        );
        let r = parse_request(r#"{"op":"topology","id":"t"}"#).unwrap();
        assert_eq!(r.op, Op::Topology);
        assert!(!Op::Validate.is_admin());
        assert!(!Op::ChaosKillShard.is_admin());
        // `fleet` is a read-only cluster verb, not an admin verb: it
        // must work without the admin plane armed.
        let r = parse_request(r#"{"op":"fleet","id":"f","format":"prometheus"}"#).unwrap();
        assert_eq!(r.op, Op::Fleet);
        assert_eq!(r.format.as_deref(), Some("prometheus"));
        assert!(!Op::Fleet.is_admin());
    }

    #[test]
    fn health_needs_no_cert() {
        assert!(parse_request(r#"{"op":"health"}"#).is_ok());
        assert!(parse_request(r#"{"op":"classify"}"#).is_err());
        assert!(parse_request(r#"{"op":"reboot"}"#).is_err());
        assert!(parse_request("garbage").is_err());
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let line = error_line("x\"y", code::SHED, "queue full");
        assert!(!line.contains('\n'));
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("code").unwrap().as_f64(), Some(503.0));
        assert_eq!(v.get("id").unwrap().as_str(), Some("x\"y"));
        assert_eq!(v.get("error").unwrap().as_str(), Some("queue full"));
    }

    #[test]
    fn fast_scan_agrees_with_parse_request() {
        // Canonical chain-free shapes: fast lane applies and matches the
        // full parse. (Chain entries are DER-decoded by `parse_request`,
        // so chained frames are compared structurally below instead.)
        let canonical = [
            r#"{"op":"classify","id":"site0","cert":"deadbeef"}"#,
            r#"{"op":"validate","id":"bare1","cert":"deadbeef"}"#,
            r#"{"op":"classify","id":"x","cert":"3q2+7w=="}"#,
        ];
        for line in canonical {
            let fast = fast_scan(line).expect("canonical shape");
            let full = parse_request(line).expect("valid frame");
            assert_eq!(fast.op, full.op, "{line}");
            assert_eq!(fast.id, full.id, "{line}");
            assert_eq!(decode_cert_field(fast.cert), Ok(full.der), "{line}");
            assert!(fast.chain.is_empty(), "{line}");
        }
        // Canonical chained shape: the scan is zero-copy over the text.
        let chained = r#"{"op":"classify","id":"s","cert":"deadbeef","chain":["aa","bb"]}"#;
        let fast = fast_scan(chained).expect("canonical shape");
        assert_eq!(fast.op, Op::Classify);
        assert_eq!(fast.id, "s");
        assert_eq!(fast.cert, "deadbeef");
        assert_eq!(fast.chain, vec!["aa", "bb"]);
        // Non-canonical frames fall back to the full parser.
        for line in [
            r#"{"op":"health"}"#,
            r#"{"op":"classify","cert":"aa"}"#,          // no id
            r#"{"id":"x","op":"classify","cert":"aa"}"#, // reordered
            r#"{"op":"classify","id":"x","cert":"aa","deadline_ms":5}"#,
            r#"{"op":"classify","id":"a\"b","cert":"aa"}"#, // escape
            r#"{"op":"classify","id":"x","cert":"aa","chain":[]}"#, // empty array
            "garbage",
        ] {
            assert_eq!(fast_scan(line), None, "{line}");
        }
    }

    #[test]
    fn classification_fields_follow_op() {
        let valid = Classification::Valid {
            chain_len: 3,
            transvalid: true,
        };
        let f = classification_fields(Op::Validate, &valid);
        assert!(f.iter().any(|(k, _)| *k == "chain_len"));
        let invalid = Classification::Invalid(silentcert_validate::InvalidityReason::SelfSigned);
        let f = classification_fields(Op::Classify, &invalid);
        assert!(f
            .iter()
            .any(|(k, v)| *k == "reason" && v.contains("self-signed")));
    }
}
