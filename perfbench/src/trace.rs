//! In-memory spans for the traced run: name, start, end, parent and
//! request id, written out as JSON lines when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Request id the span belongs to (empty for stage spans).
    pub request: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span store; disabled stores record nothing.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: &str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            request: request.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Open a span now; [`Spans::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: &str) -> u32 {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: u32, end: Instant) {
        if self.enabled {
            let end = self.ns(end);
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Add spans recorded elsewhere (times already in ns on some epoch),
    /// re-numbering their ids after ours.
    pub fn extend(&mut self, spans: Vec<Span>) {
        let base = self.spans.len() as u32;
        for mut s in spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Each span's self time: its duration minus the part of its
    /// interval its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let mut covered = 0u64;
                if let Some(kids) = children.get_mut(&s.id) {
                    kids.sort_unstable();
                    let mut cur: Option<(u64, u64)> = None;
                    for &(a, b) in kids.iter() {
                        let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                        if a >= b {
                            continue;
                        }
                        cur = match cur {
                            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                            Some((ca, cb)) => {
                                covered += cb - ca;
                                Some((a, b))
                            }
                            None => Some((a, b)),
                        };
                    }
                    if let Some((ca, cb)) = cur {
                        covered += cb - ca;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }

    /// Read spans written by [`Spans::write_jsonl`] (a child process's).
    pub fn read_jsonl(path: &Path, names: &[&'static str]) -> Vec<Span> {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let field = |line: &str, key: &str| -> String {
            let at = line.find(&format!("\"{key}\":")).map(|i| i + key.len() + 3);
            at.map(|i| {
                line[i..]
                    .trim_start_matches('"')
                    .split(['"', ',', '}'])
                    .next()
                    .unwrap_or_default()
                    .to_string()
            })
            .unwrap_or_default()
        };
        text.lines()
            .filter_map(|line| {
                let name = field(line, "name");
                Some(Span {
                    id: field(line, "id").parse().ok()?,
                    parent: field(line, "parent").parse().ok(),
                    name: names.iter().find(|n| **n == name)?,
                    request: field(line, "request"),
                    start_ns: field(line, "start_ns").parse().ok()?,
                    end_ns: field(line, "end_ns").parse().ok()?,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new(true);
        let t = s.epoch;
        let at = |ns: u64| t + std::time::Duration::from_nanos(ns);
        let p = s.record("parent", None, "r", at(0), at(100));
        s.record("a", Some(p), "r", at(10), at(30));
        s.record("b", Some(p), "r", at(20), at(40)); // overlaps a
        s.record("c", Some(p), "r", at(60), at(70));
        let own = s.self_times_ns();
        assert_eq!(own[p as usize], 100 - 30 - 10);
        assert_eq!(own[1], 20);
    }
}
