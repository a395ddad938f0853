//! Workload inputs: request streams, each request labelled with the
//! verdict the independent reference classifier
//! (`silentcert_validate::oracle::Oracle`) gives it. Generation is not
//! timed.

use crate::gen::{Expect, Payloads, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use silentcert_crypto::sha256::sha256;
use silentcert_sim::certgen::{sim_key, CaEcosystem};
use silentcert_sim::ScaleConfig;
use silentcert_validate::oracle::{Oracle, Verdict};
use silentcert_validate::{TrustStore, Validator};
use silentcert_x509::{Certificate, CertificateBuilder, Name, Time};
use std::collections::HashMap;
use std::path::Path;

/// The simulated ecosystem configuration a workload's daemon trusts:
/// `repro serve`'s `--scale small` world for the seed, or the same world
/// with every CA hierarchy on RSA-1024 (as `repro bench`'s pipeline
/// stage builds it) for the journaled shard workloads.
pub fn ecosystem_config(seed: u64, all_rsa: bool) -> ScaleConfig {
    let mut config = ScaleConfig::small();
    config.seed = seed;
    if all_rsa {
        config.rsa_ca_count = usize::MAX;
        config.rsa_bits = 1024;
    }
    config
}

/// The daemon's validator, built the way `repro serve` builds it: trust
/// store from the ecosystem's roots, brand intermediates pooled.
pub fn validator(eco: &CaEcosystem) -> Validator {
    let mut v = Validator::new(TrustStore::from_roots(eco.roots.clone()));
    for brand in &eco.brands {
        v.add_intermediate(&brand.intermediate);
    }
    v
}

/// The reference classifier over the same roots and pool.
pub fn oracle(eco: &CaEcosystem) -> Oracle {
    let mut o = Oracle::new(eco.roots.clone());
    for brand in &eco.brands {
        o.add_pool(brand.intermediate.clone());
    }
    o
}

/// The wire `result` text of each invalid verdict.
pub fn expect_of(v: Verdict) -> Expect {
    match v {
        Verdict::Valid => Expect::Valid,
        Verdict::SelfSigned => Expect::Invalid("self-signed"),
        Verdict::UntrustedIssuer => Expect::Invalid("signed by untrusted certificate"),
        Verdict::BadSignature => Expect::Invalid("bad signature"),
        Verdict::ParseFailure => Expect::Invalid("parse error"),
    }
}

pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(DIGITS[(b >> 4) as usize] as char);
        s.push(DIGITS[(b & 15) as usize] as char);
    }
    s
}

/// A workload's request stream.
#[derive(Default)]
pub struct Stream {
    pub payloads: Payloads,
    /// DER of each payload (for the direct-call pass).
    pub der: Vec<Vec<u8>>,
    pub requests: Vec<Request>,
    /// Per payload: the oracle's verdict for it as a leaf.
    pub verdict: Vec<Verdict>,
    /// Per payload: whether classifying it walks an RSA signature edge.
    pub rsa_edge: Vec<bool>,
    /// Observation index where each scan starts (scan replay only).
    pub scan_starts: Vec<usize>,
}

impl Stream {
    fn push_payload(&mut self, der: Vec<u8>, verdict: Verdict, rsa_edge: bool) -> u32 {
        self.payloads.push(hex(&der));
        self.der.push(der);
        self.verdict.push(verdict);
        self.rsa_edge.push(rsa_edge);
        (self.payloads.len() - 1) as u32
    }
}

/// Whether `cert` is issued by an RSA-keyed brand intermediate.
fn rsa_issued(eco: &CaEcosystem, cert: &Certificate) -> bool {
    eco.brands.iter().any(|b| {
        b.intermediate.subject == cert.issuer
            && matches!(
                b.intermediate.public_key,
                silentcert_crypto::PublicKey::Rsa(_)
            )
    })
}

/// `scan-replay`: the first `limit` observations of a scanned corpus,
/// in scan order, as chainless `validate` requests.
pub fn scan_replay(dir: &Path, eco: &CaEcosystem, limit: usize) -> Result<Stream, String> {
    let scans =
        std::fs::read_to_string(dir.join("scans.csv")).map_err(|e| format!("scans.csv: {e}"))?;
    let mut stream = Stream::default();
    let mut index: HashMap<[u8; 32], u32> = HashMap::new();
    let mut order: Vec<[u8; 32]> = Vec::new();
    let mut obs: Vec<u32> = Vec::new();
    let mut last_scan = "";
    for line in scans.lines().filter(|l| !l.starts_with('#')) {
        if obs.len() == limit {
            break;
        }
        let mut fields = line.split(',');
        let (Some(day), Some(op), _, Some(fp)) =
            (fields.next(), fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("scans.csv: malformed line '{line}'"));
        };
        let scan = &line[..day.len() + 1 + op.len()];
        if scan != last_scan {
            stream.scan_starts.push(obs.len());
            last_scan = scan;
        }
        let mut key = [0u8; 32];
        for (i, byte) in key.iter_mut().enumerate() {
            *byte = u8::from_str_radix(fp.get(2 * i..2 * i + 2).unwrap_or("zz"), 16)
                .map_err(|_| format!("scans.csv: bad fingerprint '{fp}'"))?;
        }
        let id = *index.entry(key).or_insert_with(|| {
            order.push(key);
            (order.len() - 1) as u32
        });
        obs.push(id);
    }
    let pem =
        std::fs::read_to_string(dir.join("certs.pem")).map_err(|e| format!("certs.pem: {e}"))?;
    let mut der_of: HashMap<[u8; 32], Vec<u8>> = HashMap::new();
    for der in silentcert_x509::pem::pem_decode_all("CERTIFICATE", &pem)
        .map_err(|e| format!("certs.pem: {e}"))?
    {
        let fp = sha256(&der);
        if index.contains_key(&fp) {
            der_of.insert(fp, der);
        }
    }
    let oracle = oracle(eco);
    for fp in &order {
        let der = der_of
            .remove(fp)
            .ok_or_else(|| format!("certs.pem lacks {}", hex(fp)))?;
        let cert = Certificate::from_der(&der).ok();
        let verdict = match &cert {
            Some(c) => oracle.verdict(c, &[]),
            None => Verdict::ParseFailure,
        };
        let rsa = cert.as_ref().is_some_and(|c| rsa_issued(eco, c));
        stream.push_payload(der, verdict, rsa);
    }
    stream.requests = obs
        .iter()
        .map(|&cert| Request {
            classify: false,
            cert,
            chain: None,
            expect: expect_of(stream.verdict[cert as usize]),
        })
        .collect();
    Ok(stream)
}

/// The verdict mix `unique-journaled` draws from: shares of unique
/// certificates in the scanned corpus.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub valid: f64,
    pub self_signed: f64,
    pub untrusted: f64,
}

impl Mix {
    /// From the pipeline's headline fractions; a fixed small share of
    /// garbage DER (what is left over) rides on top.
    pub fn from_corpus(invalid_fraction: f64, self_signed: f64, untrusted: f64) -> Mix {
        let garbage = 0.005;
        let scale = 1.0 - garbage;
        Mix {
            valid: (1.0 - invalid_fraction) * scale,
            self_signed: invalid_fraction * self_signed * scale,
            untrusted: invalid_fraction * untrusted * scale,
        }
    }
}

/// Requests generated from one RNG stream; chunks are independent, so
/// the stream is the same at any thread count.
const CHUNK: usize = 2_048;

/// One generated request before it joins the stream.
struct Generated {
    der: Vec<u8>,
    /// Brand whose intermediate is presented (`classify` with a chain).
    chain_brand: Option<usize>,
    /// CA-issued (these alternate between `classify` + chain and
    /// chainless `validate`; everything else is a chainless `classify`).
    is_ca: bool,
    verdict: Verdict,
    rsa_edge: bool,
}

/// `unique-journaled` / `router-hop`: `n` requests, each on a
/// certificate generated for it. CA-issued leaves alternate between
/// `classify` with the presented intermediate and chainless `validate`.
pub fn unique(eco: &CaEcosystem, seed: u64, n: usize, mix: Mix) -> Stream {
    let oracle = oracle(eco);
    let chunks = n.div_ceil(CHUNK);
    let threads = crate::sys::nproc().min(chunks).max(1);
    let mut parts: Vec<(usize, Vec<Generated>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let oracle = &oracle;
                scope.spawn(move || {
                    (t..chunks)
                        .step_by(threads)
                        .map(|c| {
                            let len = CHUNK.min(n - c * CHUNK);
                            (c, unique_chunk(eco, oracle, seed, c, len, mix))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("input generator panicked"))
            .collect()
    });
    parts.sort_by_key(|(c, _)| *c);
    let mut stream = Stream::default();
    let chains: Vec<u32> = eco
        .brands
        .iter()
        .map(|b| stream.push_payload(b.intermediate.to_der().to_vec(), Verdict::Valid, false))
        .collect();
    for g in parts.into_iter().flat_map(|(_, part)| part) {
        let cert = stream.push_payload(g.der, g.verdict, g.rsa_edge);
        stream.requests.push(Request {
            classify: g.chain_brand.is_some() || !g.is_ca,
            cert,
            chain: g.chain_brand.map(|b| chains[b]),
            expect: expect_of(g.verdict),
        });
    }
    stream
}

fn unique_chunk(
    eco: &CaEcosystem,
    oracle: &Oracle,
    seed: u64,
    chunk: usize,
    len: usize,
    mix: Mix,
) -> Vec<Generated> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0b5e_55ed ^ ((chunk as u64) << 32));
    let (nb, na) = (
        Time::from_ymd(2012, 1, 1).expect("valid date"),
        Time::from_ymd(2032, 1, 1).expect("valid date"),
    );
    let vendor = |v: usize| {
        (
            Name::with_common_name(&format!("Perfbench Vendor Device CA {v}")),
            sim_key(&["perfbench-vendor", &seed.to_string(), &v.to_string()]),
        )
    };
    let vendors: Vec<_> = (0..8).map(vendor).collect();
    let mut ca_issued = 0usize;
    (0..len)
        .map(|j| {
            let i = chunk * CHUNK + j;
            let roll: f64 = rng.gen_range(0.0..1.0);
            let tag = format!("{seed}-{i}");
            let (der, chain_brand, is_ca) = if roll < mix.valid {
                let brand = eco.sample_brand(rng.gen_range(0.0..1.0));
                let cert = eco.issue_site_cert(
                    brand,
                    (1 << 40) + i as u64,
                    &format!("u{i}.s{seed}.perfbench.example"),
                    0,
                    i as u64 + 1,
                    15_000 + (i % 1_000) as i64,
                    &mut rng,
                );
                ca_issued += 1;
                (
                    cert.to_der().to_vec(),
                    ca_issued.is_multiple_of(2).then_some(brand),
                    true,
                )
            } else if roll < mix.valid + mix.self_signed {
                let key = sim_key(&["perfbench-device", &tag]);
                let cert = CertificateBuilder::new()
                    .serial_u64(i as u64 + 1)
                    .subject(Name::with_common_name(&format!("device-{tag}.local")))
                    .validity(nb, na)
                    .self_signed(&key);
                (cert.to_der().to_vec(), None, false)
            } else if roll < mix.valid + mix.self_signed + mix.untrusted {
                let (issuer, vendor_key) = &vendors[i % vendors.len()];
                let cert = CertificateBuilder::new()
                    .serial_u64(i as u64 + 1)
                    .subject(Name::with_common_name(&format!("router-{tag}.local")))
                    .issuer(issuer.clone())
                    .public_key(sim_key(&["perfbench-leaf", &tag]).public())
                    .validity(nb, na)
                    .sign_with(vendor_key);
                (cert.to_der().to_vec(), None, false)
            } else {
                // Garbage DER: random bytes that cannot start a
                // certificate SEQUENCE, made unique by the request tag.
                let len = rng.gen_range(48..160usize);
                let mut der: Vec<u8> = (0..len).map(|_| rng.gen_range(0..256u16) as u8).collect();
                der[0] = 0xde;
                der.extend_from_slice(tag.as_bytes());
                (der, None, false)
            };
            let presented: Vec<Certificate> = chain_brand
                .map(|b| vec![eco.brands[b].intermediate.clone()])
                .unwrap_or_default();
            let parsed = Certificate::from_der(&der).ok();
            let verdict = match &parsed {
                Some(cert) => oracle.verdict(cert, &presented),
                None => Verdict::ParseFailure,
            };
            let rsa_edge = parsed.as_ref().is_some_and(|c| rsa_issued(eco, c));
            Generated {
                der,
                chain_brand,
                is_ca,
                verdict,
                rsa_edge,
            }
        })
        .collect()
}
