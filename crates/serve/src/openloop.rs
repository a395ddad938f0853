//! The high-concurrency open-loop load engine.
//!
//! The closed-loop engine in [`crate::loadgen`] spawns one thread per
//! connection, which tops out around a few hundred connections. This
//! engine drives *all* connections from a single thread over the same
//! raw-epoll readiness core the server uses ([`silentcert_net::epoll`]):
//! each connection is a small state machine (requests queued → written →
//! responses counted) and the loop multiplexes reads and writes across
//! tens of thousands of them.
//!
//! Differences from the closed loop, by design:
//!
//! * **Connection ramp** ([`LoadgenOptions::ramp_ms`]): connection `c`
//!   of `N` is established `ramp_ms * c / N` into the run, so a
//!   50k-connection run doesn't present 50k SYNs to the listener in one
//!   burst.
//! * **Pipelining window** ([`LoadgenOptions::pipeline`]): each
//!   connection keeps up to `pipeline` requests in flight; the server
//!   answers in FIFO order per connection, so latency attribution is a
//!   simple queue of send timestamps.
//! * **Phase reporting**: the report carries `ramp` and `steady`
//!   [`PhaseReport`] slices so regressions that only appear once every
//!   connection is up are visible.
//! * **No fault injection**: hostile-transport faults need their own
//!   throwaway connections and blocking stalls; they stay on the
//!   closed-loop engine (this engine asserts the plan is empty).
//! * Connections are held open until the post-run metrics scrape, so a
//!   scrape of `silentcert_serve_event_loop_registered_fds` observes the
//!   full connection count (the c10k CI job asserts exactly this).
//!
//! On non-Linux hosts this falls back to the closed-loop engine.

use crate::loadgen::{LoadReport, LoadgenOptions};

/// Run the open-loop engine (see module docs).
///
/// # Panics
///
/// Panics if `requests` is empty or `opts.faults` injects any faults —
/// fault runs belong to the closed-loop engine.
pub fn run(opts: &LoadgenOptions, requests: &[String]) -> LoadReport {
    assert!(!requests.is_empty(), "loadgen needs at least one request");
    let f = &opts.faults;
    assert!(
        f.slow_loris_rate == 0.0
            && f.disconnect_rate == 0.0
            && f.oversize_rate == 0.0
            && f.garbage_rate == 0.0,
        "the open-loop engine does not support fault injection"
    );
    imp::run(opts, requests)
}

#[cfg(target_os = "linux")]
mod imp {
    use crate::loadgen::{fetch_metrics, AdminDriver, LoadReport, LoadgenOptions, PhaseReport};
    use silentcert_net::epoll::{Event, Poller, EPOLLIN, EPOLLOUT};
    use std::collections::VecDeque;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, RawFd};
    use std::time::{Duration, Instant};

    /// Per-connection output buffer high-water mark: refill pauses while
    /// this much is unflushed, bounding memory at huge connection counts.
    const MAX_OUT: usize = 64 * 1024;
    /// Abort the run if nothing completes for this long (a wedged server
    /// must fail the run, not hang it).
    const STALL_ABORT: Duration = Duration::from_millis(30_000);

    struct ClientConn {
        stream: TcpStream,
        fd: RawFd,
        /// Unflushed request bytes (compacted on write).
        out: Vec<u8>,
        out_pos: usize,
        /// Unparsed response bytes; `scanned` is the newline-search cursor.
        inbuf: Vec<u8>,
        scanned: usize,
        /// Send timestamps of in-flight requests (responses are FIFO per
        /// connection).
        inflight: VecDeque<Instant>,
        /// Next request ordinal for this connection.
        next_req: usize,
        target: usize,
        answered: usize,
        /// Pipelining window (max in-flight requests).
        window: usize,
        interest: u32,
        dead: bool,
        /// Peer sent EOF; premature if requests were still in flight.
        eof: bool,
    }

    impl ClientConn {
        fn finished(&self) -> bool {
            self.dead || (self.answered >= self.target && self.inflight.is_empty())
        }
    }

    /// Extract `"code":N` from a raw response line without UTF-8
    /// validation or allocation.
    fn code_of(line: &[u8]) -> Option<u32> {
        let needle = b"\"code\":";
        let idx = line.windows(needle.len()).position(|w| w == needle)?;
        let rest = &line[idx + needle.len()..];
        let end = rest
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(rest.len());
        std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
    }

    fn count_code(report: &mut LoadReport, code: Option<u32>) {
        report.answered += 1;
        match code {
            Some(200) => report.code_200 += 1,
            Some(400) => report.code_400 += 1,
            Some(408) => report.code_408 += 1,
            Some(413) => report.code_413 += 1,
            Some(500) => report.code_500 += 1,
            Some(502) => report.code_502 += 1,
            Some(503) => report.code_503 += 1,
            _ => report.code_other += 1,
        }
    }

    /// Queue more pipelined requests on `conn` while its window and
    /// output buffer allow.
    fn refill(conn: &mut ClientConn, requests: &[String], worker: usize, connections: usize) {
        while conn.inflight.len() < conn.window
            && conn.next_req < conn.target
            && conn.out.len() - conn.out_pos < MAX_OUT
        {
            let line = &requests[(worker + conn.next_req * connections) % requests.len()];
            conn.out.extend_from_slice(line.as_bytes());
            conn.out.push(b'\n');
            conn.inflight.push_back(Instant::now());
            conn.next_req += 1;
        }
    }

    pub(super) fn run(opts: &LoadgenOptions, requests: &[String]) -> LoadReport {
        let connections = opts.connections.max(1);
        let window = opts.pipeline.max(1);
        let per_conn = opts.requests / connections;
        let remainder = opts.requests % connections;

        let Ok(mut poller) = Poller::new() else {
            // No epoll available (containers with locked-down seccomp):
            // degrade to the closed loop rather than fail the run.
            return crate::loadgen::run_closed(opts, requests);
        };
        let mut conns: Vec<Option<ClientConn>> = (0..connections).map(|_| None).collect();
        let mut report = LoadReport::default();
        let mut latencies: Vec<u64> = Vec::with_capacity(opts.requests.min(1 << 22));
        let started = Instant::now();
        let mut next_connect = 0usize;
        let mut ramp_done: Option<(Duration, usize)> = None;
        let mut sent_total = 0usize;
        let mut kill_fired = false;
        let mut admin = AdminDriver::new(opts);
        let mut last_progress = Instant::now();
        let mut events: Vec<Event> = Vec::new();
        let mut scratch = vec![0u8; 64 * 1024];

        loop {
            // Establish connections that are due under the ramp schedule.
            while next_connect < connections {
                let due =
                    Duration::from_millis(opts.ramp_ms * next_connect as u64 / connections as u64);
                if started.elapsed() < due {
                    break;
                }
                let target = per_conn + usize::from(next_connect < remainder);
                match TcpStream::connect(&opts.addr) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_nonblocking(true);
                        let fd = stream.as_raw_fd();
                        let mut conn = ClientConn {
                            stream,
                            fd,
                            out: Vec::new(),
                            out_pos: 0,
                            inbuf: Vec::new(),
                            scanned: 0,
                            inflight: VecDeque::new(),
                            next_req: 0,
                            target,
                            answered: 0,
                            window,
                            interest: 0,
                            dead: false,
                            eof: false,
                        };
                        refill(&mut conn, requests, next_connect, connections);
                        pump(&mut conn, &mut report);
                        let interest = desired_interest(&conn);
                        if poller.add(fd, interest, next_connect as u64).is_ok() {
                            conn.interest = interest;
                            conns[next_connect] = Some(conn);
                        } else {
                            report.transport_errors += 1;
                        }
                    }
                    Err(_) => {
                        report.transport_errors += 1;
                    }
                }
                next_connect += 1;
            }
            if ramp_done.is_none() && next_connect == connections {
                ramp_done = Some((started.elapsed(), latencies.len()));
            }

            // Mid-run shard kill for cluster chaos runs.
            if let Some(at) = opts.kill_shard_at {
                if !kill_fired && sent_total >= at {
                    kill_fired = true;
                    fire_kill_shard(&opts.addr, &mut report);
                }
            }

            // Done?
            if next_connect == connections
                && conns
                    .iter()
                    .all(|c| c.as_ref().is_none_or(ClientConn::finished))
            {
                break;
            }
            if last_progress.elapsed() >= STALL_ABORT {
                // Wedged: every conn still unfinished counts as a
                // transport failure so CI sees a hard signal.
                let mut stuck = 0u64;
                for (idx, conn) in conns.iter().enumerate() {
                    let Some(c) = conn else { continue };
                    if !c.finished() {
                        stuck += 1;
                        eprintln!(
                            "# openloop stall: conn {idx} inflight={} out={}/{} next={}/{} answered={} interest={:#x} inbuf={}",
                            c.inflight.len(), c.out_pos, c.out.len(), c.next_req,
                            c.target, c.answered, c.interest, c.inbuf.len()
                        );
                    }
                }
                report.transport_errors += stuck;
                break;
            }

            // Wait for readiness (bounded so the ramp schedule and the
            // stall guard stay live).
            let timeout = if next_connect < connections { 5 } else { 100 };
            events.clear(); // wait() appends; stale entries must not replay
            let _ = poller.wait(&mut events, timeout);
            for ev in events.iter().copied() {
                let idx = ev.token as usize;
                let Some(conn) = conns.get_mut(idx).and_then(Option::as_mut) else {
                    continue;
                };
                if conn.dead {
                    continue;
                }
                let before = conn.answered;
                if ev.readable || ev.closing {
                    on_readable(conn, &mut scratch, &mut report, &mut latencies);
                }
                if (ev.closing || conn.eof) && !conn.dead && !conn.finished() {
                    conn.dead = true;
                    report.transport_errors += 1;
                }
                if !conn.dead {
                    refill(conn, requests, idx, connections);
                    pump(conn, &mut report);
                    let want = desired_interest(conn);
                    if want != conn.interest {
                        let _ = poller.modify(conn.fd, want, idx as u64);
                        conn.interest = want;
                    }
                }
                if conn.answered > before {
                    last_progress = Instant::now();
                }
                if conn.dead {
                    let _ = poller.delete(conn.fd);
                }
            }
            // Aggregate sends drive the kill-shard trigger and the
            // reconfiguration schedule.
            sent_total = conns.iter().flatten().map(|c| c.next_req).sum::<usize>();
            if let Some(driver) = admin.as_mut() {
                driver.poll(sent_total);
            }
        }

        report.elapsed_ms = started.elapsed().as_millis() as u64;
        // A reconfiguration still in flight must finish before the run
        // reports (and before any trailing `--shutdown` drains the
        // fleet mid-restart).
        if let Some(driver) = admin.take() {
            driver.finish(&mut report);
        }

        // Scrape while every connection is still open, so gauges sampled
        // by the server (registered fds) reflect the full load.
        if opts.scrape_metrics {
            report.daemon_metrics = fetch_metrics(&opts.addr);
        }
        for conn in conns.iter().flatten() {
            let _ = poller.delete(conn.fd);
        }
        drop(conns);

        // Percentiles + phase split.
        let (ramp_elapsed, split) =
            ramp_done.map_or((started.elapsed(), latencies.len()), |(d, s)| (d, s));
        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        report.p50_us = percentile(&sorted, 0.50);
        report.p99_us = percentile(&sorted, 0.99);
        report.max_us = sorted.last().copied().unwrap_or(0);
        let ramp_ms = ramp_elapsed.as_millis() as u64;
        report.phases = vec![
            phase("ramp", &latencies[..split], ramp_ms),
            phase(
                "steady",
                &latencies[split..],
                report.elapsed_ms.saturating_sub(ramp_ms),
            ),
        ];
        report
    }

    fn phase(name: &'static str, lat: &[u64], elapsed_ms: u64) -> PhaseReport {
        let mut sorted = lat.to_vec();
        sorted.sort_unstable();
        PhaseReport {
            name,
            answered: lat.len() as u64,
            elapsed_ms,
            p50_us: percentile(&sorted, 0.50),
            p99_us: percentile(&sorted, 0.99),
        }
    }

    fn percentile(sorted: &[u64], p: f64) -> u64 {
        if sorted.is_empty() {
            0
        } else {
            let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        }
    }

    fn desired_interest(conn: &ClientConn) -> u32 {
        let mut want = 0;
        if !conn.finished() && !conn.inflight.is_empty() {
            want |= EPOLLIN;
        }
        if conn.out_pos < conn.out.len() {
            want |= EPOLLOUT;
        }
        want
    }

    /// Flush as much queued output as the socket accepts.
    fn pump(conn: &mut ClientConn, report: &mut LoadReport) {
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    report.transport_errors += 1;
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    report.transport_errors += 1;
                    return;
                }
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > MAX_OUT {
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
    }

    /// Drain readable bytes and account completed response lines.
    fn on_readable(
        conn: &mut ClientConn,
        scratch: &mut [u8],
        report: &mut LoadReport,
        latencies: &mut Vec<u64>,
    ) {
        loop {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    // EOF: parse what's buffered, then the caller decides
                    // whether this was premature.
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&scratch[..n]);
                    if n < scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    report.transport_errors += 1;
                    return;
                }
            }
        }
        while let Some(pos) = conn.inbuf[conn.scanned..].iter().position(|&b| b == b'\n') {
            let end = conn.scanned + pos;
            let code = code_of(&conn.inbuf[..end]);
            conn.inbuf.drain(..=end);
            conn.scanned = 0;
            if let Some(sent) = conn.inflight.pop_front() {
                latencies.push(sent.elapsed().as_micros() as u64);
                count_code(report, code);
                conn.answered += 1;
            }
        }
        conn.scanned = conn.inbuf.len();
    }

    /// One-off blocking `chaos_kill_shard` against the router (cluster
    /// chaos runs only).
    fn fire_kill_shard(addr: &str, report: &mut LoadReport) {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        if stream
            .write_all(b"{\"op\":\"chaos_kill_shard\",\"id\":\"chaos\"}\n")
            .is_err()
        {
            return;
        }
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while let Ok(1) = stream.read(&mut byte) {
            if byte[0] == b'\n' {
                break;
            }
            buf.push(byte[0]);
        }
        match code_of(&buf) {
            Some(200) => report.cluster_kills += 1,
            Some(_) => report.code_other += 1,
            None => {}
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use crate::loadgen::{LoadReport, LoadgenOptions};

    pub(super) fn run(opts: &LoadgenOptions, requests: &[String]) -> LoadReport {
        crate::loadgen::run_closed(opts, requests)
    }
}
