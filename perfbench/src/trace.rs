//! Span bookkeeping for the traced run.
//!
//! The benchmark wraps a `vqd_obs::WallSpan` around every call it makes
//! into a layer (category [`LEAF`]) and around every timed phase
//! (category [`PHASE`]). Leaves may nest — a loop of the benchmark's own
//! under a span whose children are the layer calls it makes — and every
//! leaf sits inside a phase. A leaf's self time is its duration minus
//! its children's; the phase time no leaf covers is the `other`
//! remainder. Spans the library records itself (other categories,
//! other threads) are ignored here.
//!
//! Spans are drained from vqd-obs periodically so a long serve phase
//! (one parse and one push span per event) never holds them all; no
//! leaf is open across a drain, so each drain holds whole trees.

use std::collections::BTreeMap;

use vqd_obs::{Clock, WallSpan};

/// Category of a span around one call into a layer.
const LEAF: &str = "bench";
/// Category of a span around one timed phase.
const PHASE: &str = "bench.phase";

/// Per-name totals of leaf spans, plus raw durations for the names
/// whose distribution the benchmark quotes.
#[derive(Default)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub raw_ns: Vec<u64>,
}

impl SpanStat {
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
    pub fn raw_ms(&self) -> Vec<f64> {
        self.raw_ns.iter().map(|&n| n as f64 / 1e6).collect()
    }
}

/// Collects the traced run's spans; inert when tracing is off.
pub struct Tracer {
    on: bool,
    pub leaves: BTreeMap<&'static str, SpanStat>,
    /// Timed wall per phase name.
    pub phases: BTreeMap<&'static str, u64>,
}

/// Leaf names whose every duration is kept (the rest keep totals only:
/// per-event spans would otherwise hold millions of records).
fn keeps_raw(name: &str) -> bool {
    !(name.starts_with("probes.event.")
        || name.starts_with("core.stream.push")
        || name.starts_with("bench.gen.")
        || name.starts_with("bench.trace."))
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        if on {
            vqd_obs::enable_tracing();
        } else {
            vqd_obs::disable();
        }
        Tracer {
            on,
            leaves: BTreeMap::new(),
            phases: BTreeMap::new(),
        }
    }

    /// A span around one call into a layer (free when tracing is off).
    #[inline]
    pub fn leaf(&self, name: &'static str) -> WallSpan {
        WallSpan::begin(name, LEAF)
    }

    /// A span around one timed phase.
    pub fn phase(&self, name: &'static str) -> WallSpan {
        WallSpan::begin(name, PHASE)
    }

    /// Fold every span collected so far into the totals.
    pub fn drain(&mut self) {
        if !self.on {
            return;
        }
        let mut leaves = Vec::new();
        for s in vqd_obs::take_spans() {
            if s.clock != Clock::Wall {
                continue;
            }
            if s.cat == LEAF {
                leaves.push(s);
            } else if s.cat == PHASE {
                *self.phases.entry(s.name).or_default() += s.dur_ns;
            }
        }
        // Parents before their children: by start, longest first.
        leaves.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let mut child_ns = vec![0u64; leaves.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, s) in leaves.iter().enumerate() {
            while open
                .last()
                .is_some_and(|&p| leaves[p].start_ns + leaves[p].dur_ns <= s.start_ns)
            {
                open.pop();
            }
            if let Some(&p) = open.last() {
                child_ns[p] += s.dur_ns;
            }
            open.push(i);
        }
        for (s, child) in leaves.iter().zip(child_ns) {
            let st = self.leaves.entry(s.name).or_default();
            st.count += 1;
            st.total_ns += s.dur_ns;
            st.self_ns += s.dur_ns.saturating_sub(child);
            if keeps_raw(s.name) {
                st.raw_ns.push(s.dur_ns);
            }
        }
    }

    /// Drain under a span of its own, so the drain cost is a named
    /// share of the phase rather than unexplained time.
    pub fn drain_in_phase(&mut self) {
        if self.on {
            let _s = self.leaf("bench.trace.drain");
            self.drain();
        }
    }

    pub fn stat(&self, name: &str) -> Option<&SpanStat> {
        self.leaves.get(name)
    }

    pub fn timed_wall_ns(&self) -> u64 {
        self.phases.values().sum()
    }

    pub fn covered_ns(&self) -> u64 {
        self.leaves.values().map(|s| s.self_ns).sum()
    }
}
