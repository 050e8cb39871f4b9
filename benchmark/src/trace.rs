//! In-memory span recorder for the traced run.
//!
//! The harness wraps every call it makes into a layer (`gate.*`,
//! `scheduler.*`, `txn.*`, `probe.*`) in a span. Spans of one job share
//! its `job` number and hang off that job's root span through `parent`.
//! Each load-generator thread records into its own `Vec`; the vectors are
//! merged and written as JSON lines when the run ends, so recording costs
//! two clock reads and a push, never a lock or a write.
//!
//! A layer's self time is its span's duration minus the part its child
//! spans cover. Spans inside the program are a later issue; these are
//! taken from outside, around `pub` calls only.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// 0 for spans that belong to no job (probes).
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Shared by every recording thread of a run: the time origin and the id
/// allocator.
pub struct TraceClock {
    origin: Instant,
    next_id: AtomicU64,
}

impl TraceClock {
    pub fn new() -> TraceClock {
        TraceClock {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// One thread's recorder. `None` clock = tracing off: `span` just runs
/// the closure.
pub struct Recorder<'a> {
    clock: Option<&'a TraceClock>,
    pub spans: Vec<Span>,
}

impl<'a> Recorder<'a> {
    pub fn new(clock: Option<&'a TraceClock>) -> Recorder<'a> {
        Recorder {
            clock,
            spans: Vec::new(),
        }
    }

    /// Open a span by hand (for a parent whose children are recorded while
    /// it is open); pair with [`Recorder::close`]. Returns 0 when off.
    pub fn open(&mut self, name: &'static str, parent: u64, job: u64) -> u64 {
        let Some(clock) = self.clock else { return 0 };
        let id = clock.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns: clock.now_ns(),
            end_ns: 0,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        let Some(clock) = self.clock else { return };
        let now = clock.now_ns();
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_ns = now;
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        job: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, job);
        let out = f();
        self.close(id);
        out
    }
}

/// Self time of every span, in ns: duration minus the union its direct
/// children cover (children of one parent never overlap here — each job
/// is driven by one thread).
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut covered: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *covered.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| {
            let children = covered.get(&s.id).copied().unwrap_or(0);
            (s.id, (s.end_ns - s.start_ns).saturating_sub(children))
        })
        .collect()
}

/// Every child must lie inside its parent and carry its job number.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        if s.parent == 0 {
            continue;
        }
        let p = by_id
            .get(&s.parent)
            .ok_or_else(|| format!("span {} ({}) names a missing parent", s.id, s.name))?;
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns || s.job != p.job {
            return Err(format!(
                "span {} ({}) does not nest inside its parent {} ({})",
                s.id, s.name, p.id, p.name
            ));
        }
    }
    Ok(())
}

/// Write spans as JSON lines (`id`, `parent`, `job`, `name`, `start_ns`,
/// `end_ns`), creating the directory if needed.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.job, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let clock = TraceClock::new();
        let mut rec = Recorder::new(Some(&clock));
        let root = rec.open("job", 0, 7);
        rec.span("gate.open_cursor", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.span("gate.fetch", root, 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.close(root);
        assert_eq!(rec.spans.len(), 3);
        check_nesting(&rec.spans).unwrap();
        let selfs = self_times(&rec.spans);
        let root_span = &rec.spans[0];
        let root_self = selfs.iter().find(|(id, _)| *id == root).unwrap().1;
        assert!(root_self < root_span.end_ns - root_span.start_ns - 3_000_000);
    }

    #[test]
    fn nesting_check_rejects_escaping_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                job: 1,
                name: "job",
                start_ns: 10,
                end_ns: 20,
            },
            Span {
                id: 2,
                parent: 1,
                job: 1,
                name: "gate.fetch",
                start_ns: 15,
                end_ns: 25,
            },
        ];
        assert!(check_nesting(&spans).is_err());
    }

    #[test]
    fn recorder_is_free_when_off() {
        let mut rec = Recorder::new(None);
        let id = rec.open("job", 0, 1);
        assert_eq!(id, 0);
        assert_eq!(rec.span("x", id, 1, || 5), 5);
        rec.close(id);
        assert!(rec.spans.is_empty());
    }
}
