//! The system under test, in a child process of its own so its memory
//! and CPU are not the generator's.
//!
//! `perfbench sut <replay|shard> <direct|router> <seed> <dir>` builds the
//! trust store, starts the daemon (`serve::server::start`), optionally
//! behind a router with defaults over a one-shard `Directory`
//! (`cluster::Router::start`), prints
//! `LISTENING <client addr> <shard addr>`, and serves until a line
//! arrives on stdin (or stdin closes). It then drains and prints
//! `DONE key=value ...`. `perfbench sut pipeline <seed> <dir> [trace]`
//! runs the batch pipeline and prints `PIPELINE key=value ...`.

use crate::inputs;
use silentcert_cluster::{Directory, Router, RouterConfig};
use silentcert_serve::{server, ServeConfig};
use silentcert_sim::certgen::CaEcosystem;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Which daemon configuration a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Daemon {
    /// `repro serve` defaults: 8,192-entry response cache, no journal.
    Replay,
    /// `repro cluster`'s shard: 2 workers, write-through journal (which
    /// turns the cache off), 10 s drain deadline.
    Shard,
}

impl Daemon {
    pub fn as_str(self) -> &'static str {
        match self {
            Daemon::Replay => "replay",
            Daemon::Shard => "shard",
        }
    }

    fn parse(s: &str) -> Option<Daemon> {
        [Daemon::Replay, Daemon::Shard]
            .into_iter()
            .find(|d| d.as_str() == s)
    }

    /// Whether the trust store puts every CA hierarchy on RSA-1024.
    pub fn all_rsa(self) -> bool {
        self == Daemon::Shard
    }

    pub fn journaled(self) -> bool {
        self == Daemon::Shard
    }

    /// Whether the response cache is on.
    pub fn cached(self) -> bool {
        self == Daemon::Replay
    }

    fn config(self, seed: u64, dir: &Path) -> ServeConfig {
        match self {
            Daemon::Replay => ServeConfig {
                seed,
                ..ServeConfig::default()
            },
            Daemon::Shard => ServeConfig {
                workers: 2,
                drain_deadline_ms: 10_000,
                journal_path: Some(journal_path(dir)),
                journal_write_through: true,
                seed,
                ..ServeConfig::default()
            },
        }
    }
}

/// A daemon, reached directly or through a router with defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub daemon: Daemon,
    pub router: bool,
}

/// Journal file of a shard child started in `dir`.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("shard-0.journal")
}

fn kv_line(tag: &str, fields: &BTreeMap<String, f64>) -> String {
    let mut line = tag.to_string();
    for (k, v) in fields {
        line.push_str(&format!(" {k}={v}"));
    }
    line
}

pub fn parse_kv(line: &str) -> BTreeMap<String, f64> {
    line.split_whitespace()
        .skip(1)
        .filter_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Entry point of a `perfbench sut ...` child. Never returns.
pub fn child_main(args: &[String]) -> ! {
    let code = match child(args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench sut: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn child(args: &[String]) -> Result<(), String> {
    let usage = || {
        "usage: perfbench sut pipeline <seed> <dir> [trace] | \
         perfbench sut <replay|shard> <direct|router> <seed> <dir>"
            .to_string()
    };
    if args.first().map(String::as_str) == Some("pipeline") {
        let seed: u64 = args.get(1).and_then(|s| s.parse().ok()).ok_or_else(usage)?;
        let dir = PathBuf::from(args.get(2).ok_or_else(usage)?);
        let traced = args.get(3).is_some_and(|a| a == "trace");
        let mut spans = crate::trace::Spans::new(traced);
        let out = crate::pipeline::run(seed, &dir.join("corpus"), &mut spans)?;
        if traced {
            spans
                .write_jsonl(&dir.join("pipeline.spans.jsonl"))
                .map_err(|e| e.to_string())?;
        }
        println!("{}", kv_line("PIPELINE", &out));
        return Ok(());
    }
    let daemon = args
        .first()
        .and_then(|s| Daemon::parse(s))
        .ok_or_else(usage)?;
    let router = match args.get(1).map(String::as_str) {
        Some("direct") => false,
        Some("router") => true,
        _ => return Err(usage()),
    };
    let seed: u64 = args.get(2).and_then(|s| s.parse().ok()).ok_or_else(usage)?;
    let dir = PathBuf::from(args.get(3).ok_or_else(usage)?);

    let eco = CaEcosystem::generate(&inputs::ecosystem_config(seed, daemon.all_rsa()));
    let validator = Arc::new(inputs::validator(&eco));
    let shard = server::start(daemon.config(seed, &dir), validator)
        .map_err(|e| format!("start daemon: {e}"))?;
    let mut out = BTreeMap::new();
    if router {
        let directory = Arc::new(Directory::new(64));
        directory.set_up(0, &shard.addr().to_string(), 1);
        let router = Router::start(RouterConfig::default(), directory, None, None, None, None)
            .map_err(|e| format!("start router: {e}"))?;
        announce(router.addr(), shard.addr());
        await_stop();
        router.drain();
        let r = router.wait();
        out.insert("router_relayed".to_string(), r.relayed as f64);
    } else {
        announce(shard.addr(), shard.addr());
        await_stop();
    }
    shard.shutdown();
    let s = shard.wait();
    out.insert("clean".to_string(), f64::from(u8::from(s.clean)));
    out.insert("served_ok".to_string(), s.served_ok as f64);
    out.insert("journal_entries".to_string(), s.journal_entries as f64);
    out.insert("peak_rss_mb".to_string(), crate::sys::peak_rss_mb("self"));
    println!("{}", kv_line("DONE", &out));
    Ok(())
}

fn announce(client: SocketAddr, shard: SocketAddr) {
    println!("LISTENING {client} {shard}");
    let _ = std::io::stdout().flush();
}

/// Serve until the parent writes a line or goes away.
fn await_stop() {
    let mut line = String::new();
    let _ = std::io::stdin().lock().read_line(&mut line);
}

/// A running child, seen from the harness.
pub struct Sut {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub topology: Topology,
    pub addr: SocketAddr,
    pub shard_addr: SocketAddr,
    pub dir: PathBuf,
    pub spawned: Instant,
    /// Certificates already sent to this daemon (streams that must not
    /// repeat one within a daemon's lifetime advance past them).
    pub cursor: usize,
}

fn exe() -> std::io::Result<PathBuf> {
    std::env::current_exe()
}

impl Sut {
    /// Spawn a daemon child and wait for its `LISTENING` line.
    pub fn start(topology: Topology, seed: u64, dir: &Path) -> Result<Sut, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let spawned = Instant::now();
        let mut child = Command::new(exe().map_err(|e| e.to_string())?)
            .args([
                "sut",
                topology.daemon.as_str(),
                if topology.router { "router" } else { "direct" },
                &seed.to_string(),
            ])
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let mut parts = line.split_whitespace();
        let (Some("LISTENING"), Some(a), Some(b)) = (parts.next(), parts.next(), parts.next())
        else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not start: '{}'", line.trim()));
        };
        let parse = |s: &str| s.parse::<SocketAddr>().map_err(|e| e.to_string());
        Ok(Sut {
            topology,
            addr: parse(a)?,
            shard_addr: parse(b)?,
            child,
            stdin,
            stdout,
            dir: dir.to_path_buf(),
            spawned,
            cursor: 0,
        })
    }

    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Drain the child and collect its `DONE` line.
    pub fn stop(mut self) -> Result<BTreeMap<String, f64>, String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"stop\n");
        }
        let mut line = String::new();
        let _ = self.stdout.read_line(&mut line);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !line.starts_with("DONE") || !status.success() {
            return Err(format!("daemon drain failed ({status}): '{}'", line.trim()));
        }
        Ok(parse_kv(&line))
    }
}

impl Drop for Sut {
    fn drop(&mut self) {
        // Reached only when `stop` was not: closing stdin starts the
        // child's drain; wait so no process outlives the benchmark.
        self.stdin.take();
        let _ = self.child.wait();
    }
}

/// Run the pipeline in a child process; returns its `PIPELINE` fields.
pub fn pipeline(seed: u64, dir: &Path, traced: bool) -> Result<BTreeMap<String, f64>, String> {
    let _ = std::fs::remove_dir_all(dir.join("corpus"));
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut cmd = Command::new(exe().map_err(|e| e.to_string())?);
    cmd.args(["sut", "pipeline", &seed.to_string()]).arg(dir);
    if traced {
        cmd.arg("trace");
    }
    let out = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn pipeline: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().find(|l| l.starts_with("PIPELINE"));
    match line {
        Some(line) if out.status.success() => Ok(parse_kv(line)),
        _ => Err(format!(
            "pipeline failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}
