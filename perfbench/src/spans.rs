//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, the span that caused it, the
//! phone it belongs to (spans of one phone share the id) and the
//! allocator calls its thread made while it was open. Spans are kept
//! in memory and written out once, when the benchmark ends. A span's
//! self time is its duration minus the time its child spans cover.
//!
//! Probe spans time extra calls the benchmark makes only to measure or
//! check something (one pass's fold on its own, the oracle folds, line
//! counting). They are attributed to themselves, so they never inflate
//! a layer's self time, and the ledger reports their sum separately.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::sys::thread_allocs;

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub phone: Option<u32>,
    pub parent: Option<usize>,
    pub probe: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocator calls while the span was open, children included.
    pub allocs: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans: (index, allocator count at begin).
    open: Vec<(usize, u64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Opens a span; the matching [`Self::end`] closes it.
    pub fn begin(&mut self, name: &'static str, phone: Option<u32>, probe: bool) {
        let span = Span {
            name,
            phone,
            parent: self.open.last().map(|&(i, _)| i),
            probe,
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: 0,
        };
        self.open.push((self.spans.len(), thread_allocs()));
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let (i, allocs0) = self.open.pop().expect("end without an open span");
        let end = self.now_ns();
        let span = &mut self.spans[i];
        span.end_ns = end;
        span.allocs = thread_allocs() - allocs0;
    }

    /// Runs `f` inside a layer span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        phone: Option<u32>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        self.begin(name, phone, false);
        let r = f(self);
        self.end();
        r
    }

    /// Runs `f` inside a probe span (kept out of every layer's total).
    pub fn probe<R>(&mut self, name: &'static str, phone: Option<u32>, f: impl FnOnce() -> R) -> R {
        self.begin(name, phone, true);
        let r = f();
        self.end();
        r
    }

    /// Each span's self time and self allocations: its own minus its
    /// children's.
    fn self_costs(&self) -> (Vec<u64>, Vec<u64>) {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        let mut self_allocs: Vec<u64> = self.spans.iter().map(|s| s.allocs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= s.duration_ns();
                self_allocs[p] -= s.allocs;
            }
        }
        (self_ns, self_allocs)
    }

    /// Aggregates self times and self allocations by span name. Panics
    /// when a span is still open: the ledger is built once the traced
    /// run has returned.
    pub fn ledger(&self) -> Ledger {
        assert!(self.open.is_empty(), "ledger built with open spans");
        let (self_ns, self_allocs) = self.self_costs();
        let mut ledger = Ledger::default();
        for (i, s) in self.spans.iter().enumerate() {
            let e = if s.probe {
                ledger.probes.entry(s.name).or_default()
            } else {
                ledger.layers.entry(s.name).or_default()
            };
            e.self_ns += self_ns[i];
            e.self_allocs += self_allocs[i];
            e.durations_ns.push(s.duration_ns());
        }
        ledger
    }

    /// Every span as tab-separated text, one line each, with its self
    /// time.
    pub fn to_tsv(&self) -> String {
        let (self_ns, _) = self.self_costs();
        let mut out =
            String::from("id\tparent\tname\tprobe\tphone\tstart_ns\tend_ns\tself_ns\tallocs\n");
        let opt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent.map(|p| p.to_string())),
                s.name,
                u8::from(s.probe),
                opt(s.phone.map(|p| p.to_string())),
                s.start_ns,
                s.end_ns,
                self_ns[i],
                s.allocs
            );
        }
        out
    }
}

/// Totals for one span name.
#[derive(Debug, Default)]
pub struct Entry {
    pub self_ns: u64,
    pub self_allocs: u64,
    /// Every span's full duration, in recording order.
    pub durations_ns: Vec<u64>,
}

impl Entry {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }

    /// Nearest-rank percentile of the span durations, in milliseconds
    /// (0 when no span was recorded).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let mut d = self.durations_ns.clone();
        d.sort_unstable();
        percentile(&d, p) as f64 / 1e6
    }
}

/// Nearest-rank percentile of sorted values; 0 for an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Self time per span name, layers and probes apart.
#[derive(Debug, Default)]
pub struct Ledger {
    pub layers: BTreeMap<&'static str, Entry>,
    pub probes: BTreeMap<&'static str, Entry>,
}

impl Ledger {
    /// The layer entry for `name`, empty when no such span ran.
    pub fn layer(&self, name: &str) -> &Entry {
        static EMPTY: Entry = Entry {
            self_ns: 0,
            self_allocs: 0,
            durations_ns: Vec::new(),
        };
        self.layers.get(name).unwrap_or(&EMPTY)
    }

    pub fn probe(&self, name: &str) -> f64 {
        self.probes.get(name).map_or(0.0, Entry::self_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_probes_stay_apart() {
        let mut t = Tracer::new();
        t.span("root", None, |t| {
            t.span("a", Some(1), |t| {
                t.probe("p", Some(1), || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        });
        let l = t.ledger();
        let root = &l.layers["root"];
        let a = &l.layers["a"];
        let p = &l.probes["p"];
        let total = root.durations_ns[0];
        assert_eq!(root.self_ns + a.self_ns + p.self_ns, total);
        assert!(p.self_ns >= 2_000_000 && a.self_ns >= 1_000_000);
        assert!(a.self_ns < a.durations_ns[0]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 95.0), 95);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
