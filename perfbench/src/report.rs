//! Percentiles, machine context, the history file and the result line.

use crate::sys;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

/// Nearest-rank percentile of an ascending slice (`p` in `(0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// One metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Where and on what a result was measured.
pub struct Context {
    pub commit: String,
    pub source_digest: String,
    pub nproc: usize,
    pub kernel: String,
    pub cpu: String,
    pub journal_fs: String,
    pub seed: u64,
}

impl Context {
    pub fn gather(root: &Path, work: &Path, seed: u64) -> Context {
        let repo = root.parent().unwrap_or(root);
        // Never look above the checkout for a repository.
        let ceiling = repo.parent().unwrap_or(repo);
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .current_dir(repo)
            .env("GIT_CEILING_DIRECTORIES", ceiling)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Context {
            commit,
            source_digest: source_digest(repo),
            nproc: sys::nproc(),
            kernel: sys::read_line("/proc/sys/kernel/osrelease"),
            cpu: sys::cpu_model(),
            journal_fs: sys::fs_type(work),
            seed,
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"commit\":{},\"source_digest\":{},\"nproc\":{},\"kernel\":{},\"cpu\":{},\"journal_fs\":{},\"seed\":{}}}",
            js(&self.commit),
            js(&self.source_digest),
            self.nproc,
            js(&self.kernel),
            js(&self.cpu),
            js(&self.journal_fs),
            self.seed
        )
    }
}

/// SHA-256 over the program's sources and manifests, so a result names
/// the code it measured even in a checkout without git metadata.
fn source_digest(repo: &Path) -> String {
    let mut files = Vec::new();
    let mut stack = vec![repo.join("crates"), repo.join("vendor")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.push(repo.join("Cargo.toml"));
    files.sort();
    let mut h = silentcert_crypto::sha256::Sha256::new();
    for f in files {
        h.update(
            f.strip_prefix(repo)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.update(&std::fs::read(&f).unwrap_or_default());
    }
    crate::inputs::hex(&h.finalize()[..8])
}

/// A JSON string literal.
pub fn js(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (a non-finite value cannot be written as one).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                js(&m.name),
                num(m.value),
                js(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Append one line to the history file.
pub fn append_history(path: &Path, line: &str) {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path);
    match file {
        Ok(mut f) => {
            if let Err(e) = writeln!(f, "{line}") {
                eprintln!("perfbench: history {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("perfbench: history {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }
}
