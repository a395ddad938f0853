//! The open-loop load generator.
//!
//! One process, at most `nproc` threads, one connection per thread.
//! Arrivals follow a Poisson schedule drawn from the seed before the
//! phase starts; arrival `k` goes to connection `k % conns`, so the
//! request stream keeps its order across connections. A sender never
//! waits for a response before its next send: every request is timed
//! from its *intended* send time, so a stall in the system under test
//! is charged to every request that fell due during it, and the
//! generator's own lateness (actual minus intended send) is recorded
//! beside it.

use crate::sys;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// What a correct response must say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Valid,
    /// Invalid, with the exact `result` text the wire format carries.
    Invalid(&'static str),
}

/// One request of a workload's stream.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// `classify` (with the presented chain) or chainless `validate`.
    pub classify: bool,
    /// Index of the leaf's hex DER in [`Payloads`].
    pub cert: u32,
    /// Index of the presented intermediate's hex DER, if any.
    pub chain: Option<u32>,
    pub expect: Expect,
}

/// Hex-encoded DER of every certificate a stream refers to.
pub type Payloads = Vec<String>;

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Non200,
    WrongVerdict,
    Timeout,
    Transport,
}

/// One request's timeline, in nanoseconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Arrival number within the phase (indexes the phase's requests).
    pub k: usize,
    pub intended_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub status: Status,
}

impl Record {
    /// Latency from the intended send; `None` for a failed request,
    /// which counts as exceeding every latency limit.
    pub fn latency_us(&self) -> Option<f64> {
        (self.status == Status::Ok)
            .then(|| self.done_ns.saturating_sub(self.intended_ns) as f64 / 1e3)
    }

    pub fn lateness_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.intended_ns) as f64 / 1e3
    }
}

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub records: Vec<Record>,
    /// Outstanding requests summed over connections, one sample per
    /// 10 ms of the phase.
    pub backlog: Vec<u32>,
    /// CPU seconds the generator process used during the phase.
    pub cpu_s: f64,
    /// Threads and connections the phase used.
    pub threads: usize,
    /// The first failed response or error, for the report.
    pub first_failure: Option<String>,
}

const BACKLOG_TICK_NS: u64 = 10_000_000;

/// Poisson arrival offsets (ns) at `rate` per second over `duration`.
pub fn poisson_schedule(rate: f64, duration: Duration, rng: &mut StdRng) -> Vec<u64> {
    let end = duration.as_secs_f64();
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate;
        if t >= end {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// One phase to run against a live address.
pub struct PhaseSpec<'a> {
    pub addr: SocketAddr,
    pub payloads: &'a Payloads,
    /// `requests[k]` is sent at `schedule[k]`.
    pub requests: &'a [Request],
    pub schedule: &'a [u64],
    /// Distinguishes this phase's request ids from every other phase's.
    pub id_prefix: &'a str,
    pub conns: usize,
    /// A request unanswered this long after the last arrival is a
    /// timeout.
    pub response_timeout: Duration,
}

/// Render one request frame (with its newline) into `out`.
pub fn render(out: &mut Vec<u8>, payloads: &Payloads, req: &Request, prefix: &str, k: usize) {
    out.extend_from_slice(b"{\"op\":\"");
    out.extend_from_slice(if req.classify {
        b"classify"
    } else {
        b"validate"
    });
    out.extend_from_slice(b"\",\"id\":\"");
    out.extend_from_slice(prefix.as_bytes());
    out.extend_from_slice(k.to_string().as_bytes());
    out.extend_from_slice(b"\",\"cert\":\"");
    out.extend_from_slice(payloads[req.cert as usize].as_bytes());
    match req.chain {
        Some(c) => {
            out.extend_from_slice(b"\",\"chain\":[\"");
            out.extend_from_slice(payloads[c as usize].as_bytes());
            out.extend_from_slice(b"\"]}\n");
        }
        None => out.extend_from_slice(b"\"}\n"),
    }
}

/// Judge one response line against the request it answers.
pub fn judge(line: &[u8], prefix: &str, k: usize, expect: Expect) -> Status {
    let Ok(line) = std::str::from_utf8(line) else {
        return Status::Non200;
    };
    let id = format!("{{\"id\":\"{prefix}{k}\",\"code\":200,");
    if !line.starts_with(&id) {
        return Status::Non200;
    }
    let ok = match expect {
        Expect::Valid => line.contains("\"valid\":true"),
        Expect::Invalid(result) => {
            line.contains("\"valid\":false")
                && line.contains(&format!("\"result\":\"invalid: {result}\""))
        }
    };
    if ok {
        Status::Ok
    } else {
        Status::WrongVerdict
    }
}

/// Run one phase: connect, send on schedule, collect every response.
pub fn run_phase(spec: &PhaseSpec<'_>) -> std::io::Result<PhaseResult> {
    assert!(spec.requests.len() >= spec.schedule.len());
    let conns = spec.conns.max(1);
    let streams = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(spec.addr)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let cpu0 = sys::process_cpu_s();
    // A common start a little ahead, so every thread is parked and ready
    // when the first arrival falls due.
    let start = Instant::now() + Duration::from_millis(5);
    let outputs: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(t, stream)| scope.spawn(move || sender(spec, t, conns, stream, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut result = PhaseResult {
        cpu_s: sys::process_cpu_s() - cpu0,
        threads: conns,
        ..PhaseResult::default()
    };
    for out in outputs {
        result.records.extend(out.records);
        if result.backlog.len() < out.backlog.len() {
            result.backlog.resize(out.backlog.len(), 0);
        }
        for (i, b) in out.backlog.iter().enumerate() {
            result.backlog[i] += b;
        }
        if result.first_failure.is_none() {
            result.first_failure = out.first_failure;
        }
    }
    result.records.sort_by_key(|r| r.k);
    Ok(result)
}

struct ThreadOut {
    records: Vec<Record>,
    backlog: Vec<u32>,
    first_failure: Option<String>,
}

/// One connection's send/receive loop.
fn sender(
    spec: &PhaseSpec<'_>,
    t: usize,
    conns: usize,
    mut stream: TcpStream,
    start: Instant,
) -> ThreadOut {
    sys::tight_timer_slack();
    let fd = stream.as_raw_fd();
    let mine: Vec<usize> = (t..spec.schedule.len()).step_by(conns).collect();
    let last_ns = spec.schedule.last().copied().unwrap_or(0);
    let cutoff_ns = last_ns + spec.response_timeout.as_nanos() as u64;
    let mut records: Vec<Record> = Vec::with_capacity(mine.len());
    let mut inflight: VecDeque<usize> = VecDeque::new(); // indices into `records`
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut out_pos = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut backlog: Vec<u32> = Vec::new();
    let mut first_failure: Option<String> = None;
    let mut next = 0usize;
    let mut broken = false;
    let now_ns = || Instant::now().saturating_duration_since(start).as_nanos() as u64;
    while Instant::now() < start {
        sys::wait_fd(fd, false, start.saturating_duration_since(Instant::now()));
    }
    loop {
        let now = now_ns();
        while next < mine.len() && spec.schedule[mine[next]] <= now {
            let k = mine[next];
            render(
                &mut out,
                spec.payloads,
                &spec.requests[k],
                spec.id_prefix,
                k,
            );
            records.push(Record {
                k,
                intended_ns: spec.schedule[k],
                sent_ns: now,
                done_ns: 0,
                status: Status::Timeout,
            });
            inflight.push_back(records.len() - 1);
            next += 1;
        }
        let tick = (now / BACKLOG_TICK_NS) as usize;
        if backlog.len() <= tick && now <= last_ns {
            backlog.resize(tick + 1, 0);
            backlog[tick] = inflight.len() as u32;
        }
        if out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => {
                    first_failure.get_or_insert_with(|| format!("write: {e}"));
                    broken = true;
                }
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
        }
        while !broken {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    first_failure.get_or_insert_with(|| "connection closed".to_string());
                    broken = true;
                }
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    first_failure.get_or_insert_with(|| format!("read: {e}"));
                    broken = true;
                }
            }
        }
        let done_at = now_ns();
        let mut consumed = 0usize;
        while let Some(nl) = inbuf[consumed..].iter().position(|&b| b == b'\n') {
            let line = &inbuf[consumed..consumed + nl];
            consumed += nl + 1;
            let Some(slot) = inflight.pop_front() else {
                first_failure.get_or_insert_with(|| "unsolicited response".to_string());
                continue;
            };
            let rec = &mut records[slot];
            let expect = spec.requests[rec.k].expect;
            rec.status = judge(line, spec.id_prefix, rec.k, expect);
            rec.done_ns = done_at;
            if rec.status != Status::Ok && first_failure.is_none() {
                first_failure = Some(String::from_utf8_lossy(line).into_owned());
            }
        }
        inbuf.drain(..consumed);
        if broken {
            for &slot in &inflight {
                records[slot].status = Status::Transport;
            }
            for &k in &mine[next..] {
                records.push(Record {
                    k,
                    intended_ns: spec.schedule[k],
                    sent_ns: spec.schedule[k],
                    done_ns: 0,
                    status: Status::Transport,
                });
            }
            break;
        }
        if next == mine.len() && inflight.is_empty() {
            break;
        }
        if done_at >= cutoff_ns {
            // Whatever is still outstanding stays `Timeout`.
            first_failure.get_or_insert_with(|| {
                format!(
                    "timeout: {} requests unanswered {:?} after the last arrival",
                    inflight.len(),
                    spec.response_timeout
                )
            });
            break;
        }
        let until = if next < mine.len() {
            spec.schedule[mine[next]]
        } else {
            cutoff_ns
        };
        if until > done_at {
            sys::wait_fd(
                fd,
                out_pos < out.len(),
                Duration::from_nanos(until - done_at),
            );
        }
    }
    ThreadOut {
        records,
        backlog,
        first_failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::io::BufRead;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A stub daemon: answers every frame `valid`, except that it stops
    /// reading for `stall` starting `stall_at` after its first frame.
    fn stub(
        stall_at: Duration,
        stall: Duration,
        accepts: Arc<AtomicUsize>,
        conns: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<Instant>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let first = Arc::new(std::sync::OnceLock::<Instant>::new());
            let workers: Vec<_> = (0..conns)
                .map(|_| {
                    let (stream, _) = listener.accept().unwrap();
                    accepts.fetch_add(1, Ordering::SeqCst);
                    let first = Arc::clone(&first);
                    std::thread::spawn(move || {
                        let mut writer = stream.try_clone().unwrap();
                        let reader = std::io::BufReader::new(stream);
                        let mut stalled = false;
                        for line in reader.lines() {
                            let Ok(line) = line else { break };
                            let t0 = *first.get_or_init(Instant::now);
                            if !stalled && t0.elapsed() >= stall_at {
                                stalled = true;
                                std::thread::sleep((t0 + stall_at + stall) - Instant::now());
                            }
                            let id = line.split("\"id\":\"").nth(1).unwrap().split('"').next();
                            let resp = format!(
                                "{{\"id\":\"{}\",\"code\":200,\"result\":\"valid (chain of 2)\",\"valid\":true}}\n",
                                id.unwrap()
                            );
                            if writer.write_all(resp.as_bytes()).is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            for w in workers {
                w.join().unwrap();
            }
            *first.get().unwrap()
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        let conns = sys::nproc();
        let accepts = Arc::new(AtomicUsize::new(0));
        let (stall_at, stall) = (Duration::from_millis(300), Duration::from_millis(200));
        let (addr, server) = stub(stall_at, stall, Arc::clone(&accepts), conns);
        let payloads: Payloads = vec!["00".to_string()];
        let requests = vec![
            Request {
                classify: false,
                cert: 0,
                chain: None,
                expect: Expect::Valid,
            };
            4_000
        ];
        let mut rng = StdRng::seed_from_u64(7);
        let schedule = poisson_schedule(2_000.0, Duration::from_secs(1), &mut rng);
        let result = run_phase(&PhaseSpec {
            addr,
            payloads: &payloads,
            requests: &requests,
            schedule: &schedule,
            id_prefix: "t",
            conns,
            response_timeout: Duration::from_secs(2),
        })
        .unwrap();
        server.join().unwrap();

        assert!(result.threads <= sys::nproc());
        assert!(accepts.load(Ordering::SeqCst) <= sys::nproc());
        assert_eq!(result.records.len(), schedule.len());
        assert!(result.records.iter().all(|r| r.status == Status::Ok));
        // The stall began `stall_at` after the first frame reached the
        // stub; locate it on the generator's clock through the first
        // request's send time.
        let first_sent = result.records[0].sent_ns;
        let stall_start = first_sent + stall_at.as_nanos() as u64;
        let stall_end = stall_start + stall.as_nanos() as u64;
        // Tolerance for the stub's own wake-up and the first frame's
        // one-way trip.
        let slack_ns = 2_000_000;
        let due: Vec<&Record> = result
            .records
            .iter()
            .filter(|r| r.intended_ns >= stall_start + slack_ns && r.intended_ns < stall_end)
            .collect();
        assert!(
            due.len() > 100,
            "{} requests fell due in the stall",
            due.len()
        );
        for r in &due {
            let rest = stall_end - r.intended_ns;
            let latency = r.done_ns - r.intended_ns;
            assert!(
                latency + slack_ns >= rest,
                "request {} due {}ns before the stall ended recorded only {}ns",
                r.k,
                rest,
                latency
            );
        }
        // The generator kept sending on schedule through the stall: its
        // lateness is reported per request and stays far below it.
        let mut late: Vec<f64> = result.records.iter().map(Record::lateness_us).collect();
        late.sort_by(f64::total_cmp);
        let p99 = late[late.len() * 99 / 100];
        assert!(p99 < 50_000.0, "generator p99 lateness {p99}us");
        assert!(result.cpu_s > 0.0);
    }

    #[test]
    fn schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson_schedule(
            5_000.0,
            Duration::from_secs(2),
            &mut StdRng::seed_from_u64(1),
        );
        let b = poisson_schedule(
            5_000.0,
            Duration::from_secs(2),
            &mut StdRng::seed_from_u64(1),
        );
        assert_eq!(a, b);
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn judge_checks_id_code_and_verdict() {
        let ok = br#"{"id":"p7","code":200,"result":"invalid: self-signed","valid":false,"reason":"self-signed"}"#;
        assert_eq!(
            judge(ok, "p", 7, Expect::Invalid("self-signed")),
            Status::Ok
        );
        assert_eq!(judge(ok, "p", 7, Expect::Valid), Status::WrongVerdict);
        assert_eq!(
            judge(ok, "p", 8, Expect::Invalid("self-signed")),
            Status::Non200
        );
        let shed = br#"{"id":"p7","code":503,"error":"queue full"}"#;
        assert_eq!(judge(shed, "p", 7, Expect::Valid), Status::Non200);
    }
}
