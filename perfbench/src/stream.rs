//! The seeded JSONL probe-event stream the serve phases replay.
//!
//! A small base corpus is replicated into `sessions` sessions with
//! distinct ids, cycling through seeded permutations of the base
//! corpus. A stated share of replicas is degraded through
//! `probes::degrade` (VP dropout or truncation) before conversion with
//! `corpus_to_events`. Each session keeps its event order except for a
//! stated share of adjacent swaps and a stated share of duplicated
//! events, and a fixed number of sessions is open at any time, their
//! events interleaved at random. Every event carries a `ts`.
//!
//! The same base corpus, spec and seed give a byte-identical stream.

use std::sync::Arc;

use vqd_core::dataset::LabeledRun;
use vqd_core::stream::corpus_to_events_from;
use vqd_probes::degrade::{DegradeKind, DegradePlan};
use vqd_probes::event::{EventKind, ProbeEvent};
use vqd_simnet::rng::SimRng;

use crate::trace::Tracer;

/// Shape of one stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Distinct sessions in the stream.
    pub sessions: usize,
    /// Sessions open (interleaved) at any moment.
    pub concurrency: usize,
    /// Share of events swapped with their session's next event.
    pub reorder_share: f64,
    /// Share of events sent twice (the copy a few events later).
    pub duplicate_share: f64,
    /// Share of sessions degraded before conversion.
    pub degrade_share: f64,
}

/// Intensity of the degradation applied to a degraded session.
const DEGRADE_INTENSITY: f64 = 0.5;
/// Event-time step between consecutive lines, seconds.
const TS_STEP: f64 = 1e-5;
/// A duplicate follows its original by 1 to this many session events.
const DUP_GAP: usize = 8;

/// A built stream: the JSONL lines plus what the checks need.
pub struct Stream {
    /// All lines back to back, without separators.
    pub text: String,
    /// Line `i` is `text[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// Per session: index of the line that completes it (its `end`
    /// marker and every promised sample have then arrived).
    pub complete_at: Vec<usize>,
    /// Per session: the (possibly degraded) metric vector the server
    /// reassembles — the input of the offline reference diagnosis.
    pub metrics: Vec<Arc<Vec<(String, f64)>>>,
    pub degraded: usize,
    pub reordered: usize,
    pub duplicated: usize,
}

impl Stream {
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    pub fn line(&self, i: usize) -> &str {
        &self.text[self.starts[i]..self.starts[i + 1]]
    }

    pub fn sessions(&self) -> usize {
        self.complete_at.len()
    }
}

/// Build the stream for `seed` from `base` (needs at least one run).
pub fn build(base: &[LabeledRun], spec: &StreamSpec, seed: u64, tr: &Tracer) -> Stream {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5157_7e4a_11c0_ffee);
    let plans = [
        DegradePlan::new(DegradeKind::VpDropout, DEGRADE_INTENSITY, seed),
        DegradePlan::new(DegradeKind::Truncation, DEGRADE_INTENSITY, seed),
    ];
    let base_metrics: Vec<Arc<Vec<(String, f64)>>> =
        base.iter().map(|r| Arc::new(r.metrics.clone())).collect();

    // Replicas, converted to events with their own session ids.
    let mut metrics = Vec::with_capacity(spec.sessions);
    let mut events: Vec<Vec<ProbeEvent>> = Vec::with_capacity(spec.sessions);
    let mut degraded = 0;
    // Each run of `base.len()` replicas holds every base session once,
    // so every stretch of the stream mixes long and short sessions
    // alike and sessions complete at a steady rate. Drawn one by one,
    // long sessions cluster by chance, and the answer-latency tail
    // (the wait for a flush batch to fill) follows those clusters.
    let mut cycle: Vec<usize> = Vec::new();
    let replicas = tr.leaf("bench.stream.replicas");
    for r in 0..spec.sessions {
        if cycle.is_empty() {
            cycle = (0..base.len()).collect();
            for i in (1..cycle.len()).rev() {
                cycle.swap(i, rng.index(i + 1));
            }
        }
        let b = cycle.pop().expect("the base corpus is not empty");
        let mut m = Arc::clone(&base_metrics[b]);
        if rng.chance(spec.degrade_share) {
            let plan = &plans[rng.index(plans.len())];
            let _s = tr.leaf("probes.degrade");
            m = Arc::new(plan.apply(r as u64, &m));
            degraded += 1;
        }
        let run = LabeledRun {
            metrics: m.as_ref().clone(),
            truth: base[b].truth,
        };
        let evs = {
            let _s = tr.leaf("core.stream.corpus_to_events");
            corpus_to_events_from(std::slice::from_ref(&run), r)
        };
        metrics.push(m);
        events.push(evs);
    }
    drop(replicas);

    // Per-session disorder: adjacent swaps and delayed duplicates.
    let (mut reordered, mut duplicated) = (0, 0);
    {
        let _s = tr.leaf("bench.stream.disorder");
        for evs in &mut events {
            let mut j = 0;
            while j + 1 < evs.len() {
                if rng.chance(spec.reorder_share) {
                    evs.swap(j, j + 1);
                    reordered += 2;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            if spec.duplicate_share > 0.0 {
                let mut out = Vec::with_capacity(evs.len() + evs.len() / 32 + 1);
                let mut pending: Vec<(usize, ProbeEvent)> = Vec::new();
                for ev in evs.drain(..) {
                    if rng.chance(spec.duplicate_share) {
                        pending.push((1 + rng.index(DUP_GAP), ev.clone()));
                        duplicated += 1;
                    }
                    out.push(ev);
                    for p in &mut pending {
                        p.0 -= 1;
                    }
                    let (due, wait): (Vec<_>, Vec<_>) = pending.drain(..).partition(|p| p.0 == 0);
                    out.extend(due.into_iter().map(|p| p.1));
                    pending = wait;
                }
                out.extend(pending.into_iter().map(|p| p.1));
                *evs = out;
            }
        }
    }

    // Interleave a fixed number of open sessions; note where each one
    // becomes complete.
    let total: usize = events.iter().map(Vec::len).sum();
    let mut order: Vec<(u32, u32)> = Vec::with_capacity(total);
    let mut complete_at = vec![usize::MAX; spec.sessions];
    {
        let _s = tr.leaf("bench.stream.interleave");
        struct Open {
            r: usize,
            at: usize,
            seen: Vec<bool>,
            distinct: usize,
            end: bool,
        }
        let open_session = |r: usize| Open {
            r,
            at: 0,
            seen: vec![false; metrics[r].len()],
            distinct: 0,
            end: false,
        };
        let mut next = spec.concurrency.min(spec.sessions);
        let mut open: Vec<Open> = (0..next).map(open_session).collect();
        while !open.is_empty() {
            let k = rng.index(open.len());
            let o = &mut open[k];
            let ev = &events[o.r][o.at];
            match ev.kind {
                EventKind::Sample { seq, .. } => {
                    let seq = seq as usize;
                    if !o.seen[seq] {
                        o.seen[seq] = true;
                        o.distinct += 1;
                    }
                }
                EventKind::End { .. } => o.end = true,
            }
            if o.end && o.distinct == o.seen.len() && complete_at[o.r] == usize::MAX {
                complete_at[o.r] = order.len();
            }
            order.push((o.r as u32, o.at as u32));
            o.at += 1;
            if o.at == events[o.r].len() {
                if next < spec.sessions {
                    open[k] = open_session(next);
                    next += 1;
                } else {
                    open.swap_remove(k);
                }
            }
        }
    }

    // Serialise in stream order, stamping each line's event time.
    let mut text = String::with_capacity(total * 96);
    let mut starts = Vec::with_capacity(total + 1);
    {
        let _s = tr.leaf("probes.event.to_jsonl");
        for (i, &(r, at)) in order.iter().enumerate() {
            starts.push(text.len());
            let ev = &mut events[r as usize][at as usize];
            ev.ts = Some(i as f64 * TS_STEP);
            ev.to_jsonl_into(&mut text);
        }
        starts.push(text.len());
    }
    Stream {
        text,
        starts,
        complete_at,
        metrics,
        degraded,
        reordered,
        duplicated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_core::scenario::GroundTruth;
    use vqd_faults::FaultKind;
    use vqd_video::QoeClass;

    fn base() -> Vec<LabeledRun> {
        (0..3)
            .map(|k| LabeledRun {
                metrics: (0..20 + k)
                    .map(|j| (format!("mobile.tcp.m{j}"), j as f64 * 0.5 + k as f64))
                    .chain([("router.phy.rssi_avg".to_string(), -60.0)])
                    .collect(),
                truth: GroundTruth {
                    fault: FaultKind::None,
                    qoe: QoeClass::Good,
                },
            })
            .collect()
    }

    fn spec() -> StreamSpec {
        StreamSpec {
            sessions: 40,
            concurrency: 6,
            reorder_share: 0.05,
            duplicate_share: 0.05,
            degrade_share: 0.3,
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_stream() {
        let tr = Tracer::new(false);
        let a = build(&base(), &spec(), 7, &tr);
        let b = build(&base(), &spec(), 7, &tr);
        assert_eq!(a.text, b.text);
        assert_eq!(a.complete_at, b.complete_at);
        let c = build(&base(), &spec(), 8, &tr);
        assert_ne!(a.text, c.text, "another seed must give another stream");
    }

    #[test]
    fn every_session_completes_and_reassembles_to_its_metrics() {
        let tr = Tracer::new(false);
        let s = build(&base(), &spec(), 3, &tr);
        assert!(s.degraded > 0 && s.reordered > 0 && s.duplicated > 0);
        let mut samples: Vec<Vec<Option<(String, f64)>>> =
            s.metrics.iter().map(|m| vec![None; m.len()]).collect();
        let mut ends = vec![false; s.sessions()];
        for i in 0..s.len() {
            let ev = ProbeEvent::parse(s.line(i)).expect("stream lines parse");
            assert_eq!(ev.ts, Some(i as f64 * TS_STEP));
            let r: usize = ev.session.parse().expect("numeric session id");
            match ev.kind {
                EventKind::Sample { seq, metric, value } => {
                    samples[r][seq as usize] = Some((metric, value));
                }
                EventKind::End { expected } => {
                    assert_eq!(expected as usize, s.metrics[r].len());
                    ends[r] = true;
                }
            }
            if s.complete_at[r] == i {
                assert!(ends[r] && samples[r].iter().all(Option::is_some));
            }
        }
        for (r, m) in s.metrics.iter().enumerate() {
            assert!(ends[r] && s.complete_at[r] < s.len());
            let got: Vec<(String, f64)> = samples[r].iter().flatten().cloned().collect();
            assert_eq!(&got, m.as_ref());
        }
    }
}
