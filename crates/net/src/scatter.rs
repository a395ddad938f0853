//! Scatter/gather one-line requests: the fleet aggregator's scrape
//! client (DESIGN.md §16).
//!
//! Every scrape round sends one newline-delimited request to every
//! shard and wants every response within one deadline. Doing that with
//! one blocking round-trip per shard makes the round's latency the
//! *sum* of shard latencies — and one stalled shard starves the whole
//! round. This client multiplexes all the round's connections on the
//! same [`epoll`](crate::epoll) wrapper the serve tier's event loop
//! uses: connects are sequential (cheap on a LAN; each is capped at an
//! equal share of the deadline, so a shard whose accept queue is full
//! cannot stall the connects after it), then a single poll loop drives
//! every write + read concurrently until each connection has produced
//! one response line or the deadline expires.

use crate::epoll::{Event, Poller, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// One request in a scatter round: connect to `addr`, send `line`
/// (a `\n` is appended if missing), read one response line.
#[derive(Debug, Clone)]
pub struct ScatterTarget {
    pub addr: String,
    pub line: String,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    done: bool,
}

/// Execute one scatter round. Returns one slot per target, in input
/// order: the response line (without the trailing newline) or `None`
/// on connect failure, transport error, or deadline expiry.
pub fn scatter_lines(targets: &[ScatterTarget], timeout_ms: u64) -> Vec<Option<String>> {
    let timeout_ms = timeout_ms.max(1);
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    let share = Duration::from_millis((timeout_ms / targets.len().max(1) as u64).max(1));
    let mut results: Vec<Option<String>> = vec![None; targets.len()];
    let Ok(mut poller) = Poller::new() else {
        // Out of fds: the round fails as if every connect was refused.
        return results;
    };
    let mut conns: Vec<Option<Conn>> = Vec::with_capacity(targets.len());
    let mut open = 0usize;
    for (i, t) in targets.iter().enumerate() {
        let budget = remaining(deadline).min(share);
        let conn = t
            .addr
            .parse()
            .ok()
            .filter(|_| !budget.is_zero())
            .and_then(|sa| TcpStream::connect_timeout(&sa, budget).ok())
            .and_then(|stream| {
                stream.set_nodelay(true).ok()?;
                stream.set_nonblocking(true).ok()?;
                let mut out = t.line.clone().into_bytes();
                if out.last() != Some(&b'\n') {
                    out.push(b'\n');
                }
                poller
                    .add(
                        stream.as_raw_fd(),
                        EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                        i as u64,
                    )
                    .ok()?;
                Some(Conn {
                    stream,
                    out,
                    out_pos: 0,
                    inbuf: Vec::new(),
                    done: false,
                })
            });
        if conn.is_some() {
            open += 1;
        }
        conns.push(conn);
    }

    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    while open > 0 {
        let budget = remaining(deadline);
        if budget.is_zero() {
            break;
        }
        let timeout = i32::try_from(budget.as_millis().max(1)).unwrap_or(i32::MAX);
        events.clear(); // wait() appends; stale events must not replay
        let Ok(n) = poller.wait(&mut events, timeout) else {
            break;
        };
        if n == 0 {
            continue; // deadline re-checked at loop top
        }
        for ev in events.iter().take(n) {
            let i = ev.token as usize;
            let Some(conn) = conns.get_mut(i).and_then(Option::as_mut) else {
                continue;
            };
            if conn.done {
                continue;
            }
            let hangup = ev.closing;
            if ev.writable && conn.out_pos < conn.out.len() {
                loop {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => break,
                        Ok(w) => {
                            conn.out_pos += w;
                            if conn.out_pos == conn.out.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            conn.done = true;
                            break;
                        }
                    }
                }
            }
            if !conn.done && (ev.readable || hangup) {
                loop {
                    match conn.stream.read(&mut scratch) {
                        Ok(0) => {
                            conn.done = true;
                            break;
                        }
                        Ok(r) => {
                            conn.inbuf.extend_from_slice(&scratch[..r]);
                            if let Some(pos) = conn.inbuf.iter().position(|&b| b == b'\n') {
                                results[i] = String::from_utf8(conn.inbuf[..pos].to_vec())
                                    .ok()
                                    .map(|s| s.trim_end_matches('\r').to_string());
                                conn.done = true;
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            conn.done = true;
                            break;
                        }
                    }
                }
            } else if hangup {
                conn.done = true;
            }
            if conn.done {
                let _ = poller.delete(conn.stream.as_raw_fd());
                open -= 1;
            }
        }
    }
    results
}

fn remaining(deadline: Instant) -> Duration {
    deadline.saturating_duration_since(Instant::now())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::{TcpListener, TcpStream};

    /// An echo server answering one uppercased line per connection.
    fn echo_server(conns: usize) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for _ in 0..conns {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut line = String::new();
                    if reader.read_line(&mut line).is_ok() {
                        let mut stream = stream;
                        let _ = stream.write_all(line.to_uppercase().as_bytes());
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn scatters_and_gathers_in_input_order() {
        let addr = echo_server(3);
        let targets: Vec<ScatterTarget> = ["alpha", "beta", "gamma"]
            .iter()
            .map(|s| ScatterTarget {
                addr: addr.clone(),
                line: (*s).to_string(),
            })
            .collect();
        let results = scatter_lines(&targets, 5_000);
        assert_eq!(
            results,
            vec![
                Some("ALPHA".to_string()),
                Some("BETA".to_string()),
                Some("GAMMA".to_string())
            ]
        );
    }

    #[test]
    fn dead_targets_yield_none_without_failing_the_round() {
        let addr = echo_server(1);
        // A bound-but-unserved port: connect succeeds, no response.
        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let silent_addr = silent.local_addr().unwrap().to_string();
        let targets = vec![
            ScatterTarget {
                addr: addr.clone(),
                line: "live".to_string(),
            },
            ScatterTarget {
                addr: silent_addr,
                line: "stalled".to_string(),
            },
            ScatterTarget {
                addr: "127.0.0.1:1".to_string(), // refused
                line: "dead".to_string(),
            },
        ];
        let start = std::time::Instant::now();
        let results = scatter_lines(&targets, 300);
        assert_eq!(results[0].as_deref(), Some("LIVE"));
        assert_eq!(results[1], None);
        assert_eq!(results[2], None);
        // The stalled target cost the deadline, not forever.
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    /// A shard whose loop stopped accepting fills its accept queue; from
    /// then on the kernel drops a connect's SYN and the connect hangs.
    /// Its connect may take only its share of the round, so the target
    /// after it is still scraped.
    #[test]
    fn a_stalled_connect_does_not_fail_the_targets_after_it() {
        let stuck = TcpListener::bind("127.0.0.1:0").unwrap();
        let stuck_addr = stuck.local_addr().unwrap();
        let mut held = Vec::new();
        while let Ok(conn) =
            TcpStream::connect_timeout(&stuck_addr, std::time::Duration::from_millis(100))
        {
            held.push(conn);
            assert!(held.len() < 10_000, "the accept queue never filled");
        }
        let targets = vec![
            ScatterTarget {
                addr: stuck_addr.to_string(),
                line: "stuck".to_string(),
            },
            ScatterTarget {
                addr: echo_server(1),
                line: "live".to_string(),
            },
        ];
        let results = scatter_lines(&targets, 600);
        assert_eq!(results, vec![None, Some("LIVE".to_string())]);
    }
}
