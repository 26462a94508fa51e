//! The operator pipeline: JSONL lines through `StreamServer`, closed
//! loop at saturation, open loop at fixed rates, and a crash followed
//! by a cold recovery from the journal.
//!
//! Every phase starts a fresh server and checks that each session was
//! answered exactly once, bitwise equal to offline `diagnose_batch`
//! over the same (degraded, deduplicated) samples.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vqd_core::diagnoser::{Diagnoser, Diagnosis};
use vqd_core::drift::DriftMonitor;
use vqd_core::stream::{
    recover_state, Durability, FlushedSession, JournalSpec, ServeConfig, ServeReport, SnapshotSpec,
    StreamServer,
};
use vqd_core::VqdError;
use vqd_probes::event::ProbeEvent;

use crate::stream::Stream;
use crate::trace::Tracer;

/// Lines between span drains in a traced phase.
const DRAIN_EVERY: usize = 8192;
/// Lines between queue-depth samples in a traced open-loop phase.
const DEPTH_EVERY: usize = 64;

/// Run `each` for every line in `lines`, in chunks under a
/// `bench.gen.loop` span — the generator's own per-line work (pacing,
/// bookkeeping, span recording) is that span's self time — and drain
/// spans between the chunks of a traced phase.
fn for_lines(
    tr: &mut Tracer,
    lines: std::ops::Range<usize>,
    mut each: impl FnMut(&Tracer, usize) -> Result<(), VqdError>,
) -> Result<(), VqdError> {
    let mut start = lines.start;
    while start < lines.end {
        let end = (start + DRAIN_EVERY).min(lines.end);
        {
            let _s = tr.leaf("bench.gen.loop");
            for i in start..end {
                each(tr, i)?;
            }
        }
        if vqd_obs::tracing_enabled() {
            tr.drain_in_phase();
        }
        start = end;
    }
    Ok(())
}

/// Answers collected by one server's sink, indexed by session.
struct Answers {
    slots: Mutex<Vec<Option<(Instant, Diagnosis)>>>,
    repeats: AtomicU64,
    strangers: AtomicU64,
}

impl Answers {
    fn new(sessions: usize) -> Arc<Answers> {
        Arc::new(Answers {
            slots: Mutex::new((0..sessions).map(|_| None).collect()),
            repeats: AtomicU64::new(0),
            strangers: AtomicU64::new(0),
        })
    }

    fn sink(self: &Arc<Self>) -> impl FnMut(FlushedSession) + Send + 'static {
        let me = Arc::clone(self);
        move |fs: FlushedSession| {
            let now = Instant::now();
            let mut slots = me.slots.lock().expect("answer table lock");
            match fs.session.parse::<usize>() {
                Ok(r) if r < slots.len() => {
                    if slots[r].is_some() {
                        me.repeats.fetch_add(1, Ordering::Relaxed);
                    } else {
                        slots[r] = Some((now, fs.diagnosis));
                    }
                }
                _ => {
                    me.strangers.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Which sessions have been answered so far.
    fn answered(&self) -> Vec<bool> {
        let slots = self.slots.lock().expect("answer table lock");
        slots.iter().map(Option::is_some).collect()
    }

    fn take(&self) -> Vec<Option<(Instant, Diagnosis)>> {
        std::mem::take(&mut *self.slots.lock().expect("answer table lock"))
    }

    /// Repeated answers plus answers for sessions that do not exist.
    fn extra(&self) -> u64 {
        self.repeats.load(Ordering::Relaxed) + self.strangers.load(Ordering::Relaxed)
    }
}

/// Bitwise equality of two diagnoses.
fn same_diagnosis(a: &Diagnosis, b: &Diagnosis) -> bool {
    let bits = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.label == b.label
        && a.class == b.class
        && a.resolution == b.resolution
        && a.fallback_label == b.fallback_label
        && bits(&a.dist, &b.dist)
        && a.quality.feature_coverage.to_bits() == b.quality.feature_coverage.to_bits()
        && a.quality.missing_descent.to_bits() == b.quality.missing_descent.to_bits()
        && a.quality.confidence.to_bits() == b.quality.confidence.to_bits()
        && a.quality.silent_vps == b.quality.silent_vps
}

/// What one served phase produced.
pub struct PhaseOutcome {
    /// Seconds from the first push to the last answer.
    pub secs: f64,
    /// Per-session answer latency in ms from the due time of the line
    /// that completed the session (open loop only; missing = +inf).
    pub answer_ms: Vec<f64>,
    /// Per-line generator lag in ms (send time minus due time).
    pub lag_ms: Vec<f64>,
    /// Mean backlog (events behind schedule) over the first and the
    /// last quarter of the lines.
    pub backlog_first: f64,
    pub backlog_last: f64,
    pub queue_depth: Vec<f64>,
    /// Sessions missing, answered twice, unknown, or not bitwise equal
    /// to the reference.
    pub failures: u64,
    pub report: ServeReport,
}

impl PhaseOutcome {
    /// A phase is sustained unless the backlog grew over it by more
    /// than two queues' worth or a hundredth of its lines.
    pub fn sustained(&self, lines: usize) -> bool {
        self.backlog_last - self.backlog_first <= (lines as f64 / 100.0).max(2048.0)
    }
}

/// A crashed server's disk state plus what it answered before dying.
pub struct Crashed {
    dir: PathBuf,
    live: Vec<Option<(Instant, Diagnosis)>>,
    /// Sessions the newest snapshot tombstones (answered before it).
    tombstoned: Vec<bool>,
    /// Live answers beyond one per known session.
    extra: u64,
    pub journal_bytes: u64,
    pub journal_records: u64,
}

/// What one cold recovery produced.
pub struct RecoveryOutcome {
    /// Journal records replayed from the newest snapshot, plus the
    /// unjournaled tail the sender re-feeds.
    pub replayed: u64,
    pub refed: u64,
    pub secs: f64,
    pub failures: u64,
}

/// Everything the serve phases share.
pub struct Server<'a> {
    pub model: Arc<Diagnoser>,
    pub stream: &'a Stream,
    pub reference: Vec<Diagnosis>,
    pub shards: usize,
    /// Journal, snapshots, decision audit and drift monitor on every
    /// phase (otherwise only the crash phase journals and snapshots).
    pub durable: bool,
    pub work: PathBuf,
}

impl Server<'_> {
    /// Lines between explicit `write_snapshot` calls: three per pass,
    /// the last a quarter of the stream before its end.
    fn snapshot_every(&self) -> usize {
        self.stream.len() / 4 + 1
    }

    /// Decision audit and drift monitoring ride with durability.
    fn config(&self) -> ServeConfig {
        let drift = self.durable.then(|| {
            let stamp = self
                .model
                .drift_stamp()
                .expect("a freshly trained model carries a drift stamp")
                .clone();
            Arc::new(Mutex::new(DriftMonitor::new(stamp)))
        });
        ServeConfig {
            shards: self.shards,
            audit: self.durable,
            drift,
            ..ServeConfig::default()
        }
    }

    fn durability(dir: &Path) -> Durability {
        Durability {
            journal: Some(JournalSpec::new(dir.join("journal"))),
            snapshots: Some(SnapshotSpec {
                dir: dir.join("snapshots"),
                every_events: 0,
                keep: 2,
            }),
        }
    }

    fn start(
        &self,
        dir: &Path,
        durable: bool,
        answers: &Arc<Answers>,
        tr: &Tracer,
    ) -> Result<StreamServer, VqdError> {
        let _ = std::fs::remove_dir_all(dir);
        let _s = tr.leaf("core.stream.start");
        let durability = if durable {
            Self::durability(dir)
        } else {
            Durability::none()
        };
        StreamServer::start(
            Arc::clone(&self.model),
            self.config(),
            durability,
            None,
            answers.sink(),
        )
    }

    /// Push line `i` (parse and push as separate spans when tracing).
    fn push(&self, server: &mut StreamServer, tr: &Tracer, i: usize) -> Result<(), VqdError> {
        let line = self.stream.line(i);
        if vqd_obs::tracing_enabled() {
            let ev = {
                let _s = tr.leaf("probes.event.parse");
                ProbeEvent::parse(line)
            };
            let ev = ev.map_err(|e| VqdError::Event {
                line: i + 1,
                source: e,
            })?;
            let _s = tr.leaf("core.stream.push");
            server.push_event(ev)
        } else {
            server.push_line(i + 1, line)
        }
    }

    /// Whether a snapshot is due after line `i`.
    fn snapshot_due(&self, i: usize) -> bool {
        (i + 1).is_multiple_of(self.snapshot_every())
    }

    fn snapshot(&self, server: &mut StreamServer, tr: &Tracer) -> Result<(), VqdError> {
        let _s = tr.leaf("core.stream.snapshot");
        server.write_snapshot()
    }

    /// Push line `i`, then cut a snapshot if one is due on a durable
    /// server.
    fn push_durable(
        &self,
        server: &mut StreamServer,
        tr: &Tracer,
        i: usize,
    ) -> Result<(), VqdError> {
        self.push(server, tr, i)?;
        if self.durable && self.snapshot_due(i) {
            self.snapshot(server, tr)?;
        }
        Ok(())
    }

    fn finish(&self, server: StreamServer, tr: &Tracer) -> Result<ServeReport, VqdError> {
        let _s = tr.leaf("core.stream.finish");
        server.finish()
    }

    /// Check one server's answers against the reference; returns the
    /// failure count (missing, repeated, unknown or unequal).
    fn check(&self, answers: &[Option<(Instant, Diagnosis)>], extra: u64) -> u64 {
        let mut failures = extra;
        for (r, a) in answers.iter().enumerate() {
            match a {
                Some((_, dx)) if same_diagnosis(dx, &self.reference[r]) => {}
                _ => failures += 1,
            }
        }
        failures
    }

    /// Closed loop: push every line as fast as the server accepts it.
    pub fn closed(&self, tr: &mut Tracer, rep: usize) -> Result<PhaseOutcome, VqdError> {
        let dir = self.work.join(format!("closed-{rep}"));
        let answers = Answers::new(self.stream.sessions());
        let mut server = self.start(&dir, self.durable, &answers, tr)?;
        let t0 = Instant::now();
        for_lines(tr, 0..self.stream.len(), |tr, i| {
            self.push_durable(&mut server, tr, i)
        })?;
        let report = self.finish(server, tr)?;
        let got = answers.take();
        let last = got
            .iter()
            .flatten()
            .map(|a| a.0)
            .max()
            .unwrap_or_else(Instant::now);
        let failures = self.check(&got, answers.extra());
        let _ = std::fs::remove_dir_all(&dir);
        Ok(PhaseOutcome {
            secs: last.saturating_duration_since(t0).as_secs_f64(),
            answer_ms: Vec::new(),
            lag_ms: Vec::new(),
            backlog_first: 0.0,
            backlog_last: 0.0,
            queue_depth: Vec::new(),
            failures,
            report,
        })
    }

    /// Open loop at `rate` lines per second: line `i` is due at
    /// `i / rate` after the start, whether or not the server kept up.
    pub fn open(&self, tr: &mut Tracer, rate: f64, tag: &str) -> Result<PhaseOutcome, VqdError> {
        let dir = self.work.join(format!("open-{tag}"));
        let answers = Answers::new(self.stream.sessions());
        let mut server = self.start(&dir, self.durable, &answers, tr)?;
        let n = self.stream.len();
        let step_ns = 1e9 / rate;
        let due = |i: usize| (i as f64 * step_ns) as u64;
        let mut lag_ns: Vec<u64> = Vec::with_capacity(n);
        let mut queue_depth = Vec::new();
        let t0 = Instant::now();
        for_lines(tr, 0..n, |tr, i| {
            let due_i = due(i);
            let mut now = t0.elapsed().as_nanos() as u64;
            if now < due_i {
                let _s = tr.leaf("bench.gen.wait");
                while now < due_i {
                    std::hint::spin_loop();
                    now = t0.elapsed().as_nanos() as u64;
                }
            }
            lag_ns.push(now - due_i);
            self.push_durable(&mut server, tr, i)?;
            if i % DEPTH_EVERY == 0 && vqd_obs::tracing_enabled() {
                let _s = tr.leaf("core.stream.queue_depth");
                queue_depth.push(server.queue_depth() as f64);
            }
            Ok(())
        })?;
        let report = self.finish(server, tr)?;
        let got = answers.take();
        let failures = self.check(&got, answers.extra());
        let answer_ms = self
            .stream
            .complete_at
            .iter()
            .zip(&got)
            .map(|(&line, a)| match a {
                Some((at, _)) => {
                    let due_at = t0 + std::time::Duration::from_nanos(due(line));
                    at.saturating_duration_since(due_at).as_secs_f64() * 1e3
                }
                None => f64::INFINITY,
            })
            .collect();
        let backlog = |lags: &[u64]| {
            lags.iter().map(|&l| l as f64 * rate / 1e9).sum::<f64>() / lags.len().max(1) as f64
        };
        let q = n / 4;
        let _ = std::fs::remove_dir_all(&dir);
        Ok(PhaseOutcome {
            secs: t0.elapsed().as_secs_f64(),
            answer_ms,
            backlog_first: backlog(&lag_ns[..q]),
            backlog_last: backlog(&lag_ns[n - q..]),
            lag_ms: lag_ns.iter().map(|&l| l as f64 / 1e6).collect(),
            queue_depth,
            failures,
            report,
        })
    }

    /// Serve the whole stream with the journal and snapshots on, then
    /// crash the server after the last line (`StreamServer::crash`:
    /// shard tables and the unflushed journal tail are lost).
    pub fn crash(&self, tr: &mut Tracer) -> Result<Crashed, VqdError> {
        let dir = self.work.join("crashed");
        let live = Answers::new(self.stream.sessions());
        let mut server = self.start(&dir, true, &live, tr)?;
        let mut tombstoned = vec![false; self.stream.sessions()];
        for_lines(tr, 0..self.stream.len(), |tr, i| {
            self.push(&mut server, tr, i)?;
            if self.snapshot_due(i) {
                self.snapshot(&mut server, tr)?;
                // The shard answered the barrier after flushing
                // everything routed before it, and nothing was routed
                // since: the sessions answered so far are exactly those
                // the snapshot tombstones.
                tombstoned = live.answered();
            }
            Ok(())
        })?;
        {
            let _s = tr.leaf("core.stream.crash");
            server.crash();
        }
        let scan = vqd_probes::journal::scan(dir.join("journal")).map_err(VqdError::Journal)?;
        Ok(Crashed {
            journal_bytes: scan.segments.iter().map(|s| s.valid_len).sum(),
            journal_records: scan.segments.iter().map(|s| s.records).sum(),
            dir,
            live: live.take(),
            tombstoned,
            extra: live.extra(),
        })
    }

    /// Recover cold from a copy of the crashed state: `recover_state`,
    /// `StreamServer::start` (replays the journal after the newest
    /// snapshot), re-feed the lost tail, `finish`.
    ///
    /// Sessions answered before the newest snapshot are only answered
    /// live; every other session is answered by the recovered server,
    /// and where it was also answered live the two must be equal.
    pub fn recover(
        &self,
        tr: &mut Tracer,
        crashed: &Crashed,
        k: usize,
    ) -> Result<RecoveryOutcome, VqdError> {
        let dir = self.work.join(format!("recover-{k}"));
        let _ = std::fs::remove_dir_all(&dir);
        copy_dir(&crashed.dir, &dir)?;
        let n = self.stream.len();
        let recovered = Answers::new(self.stream.sessions());
        let durability = Self::durability(&dir);
        let (replayed, next, secs) = {
            let _p = tr.phase("serve.recover");
            let t0 = Instant::now();
            let state = {
                let _s = tr.leaf("core.stream.recover_scan");
                recover_state(&durability, HashSet::new())?
            };
            let replayed = state.replay_len() as u64;
            let next = state.next_seq as usize;
            let mut server = {
                let _s = tr.leaf("core.stream.replay");
                StreamServer::start(
                    Arc::clone(&self.model),
                    self.config(),
                    durability,
                    Some(state),
                    recovered.sink(),
                )?
            };
            for_lines(tr, next..n, |tr, i| self.push(&mut server, tr, i))?;
            {
                let _s = tr.leaf("core.stream.replay");
                server.finish()?;
            }
            (replayed, next, t0.elapsed().as_secs_f64())
        };
        tr.drain();
        let _ = std::fs::remove_dir_all(&dir);

        let rec = recovered.take();
        let mut failures = crashed.extra + recovered.extra();
        let sessions = self
            .reference
            .iter()
            .zip(&crashed.live)
            .zip(&rec)
            .zip(&crashed.tombstoned);
        for (((want, live), rec), &tombstoned) in sessions {
            let ok = match (live, rec) {
                // Retired before the newest snapshot: answered live
                // only, never again after recovery.
                (Some((_, x)), None) if tombstoned => same_diagnosis(x, want),
                (_, Some(_)) | (None, None) if tombstoned => false,
                // Everything later is answered by the recovered server,
                // equal to the live answer where there was one.
                (None, Some((_, y))) => same_diagnosis(y, want),
                (Some((_, x)), Some((_, y))) => same_diagnosis(x, y) && same_diagnosis(y, want),
                _ => false,
            };
            if !ok {
                failures += 1;
            }
        }
        Ok(RecoveryOutcome {
            replayed,
            refed: (n - next) as u64,
            secs,
            failures,
        })
    }
}

/// Copy a directory tree of regular files.
fn copy_dir(from: &Path, to: &Path) -> Result<(), VqdError> {
    std::fs::create_dir_all(to).map_err(|e| VqdError::io(to, e))?;
    for entry in std::fs::read_dir(from).map_err(|e| VqdError::io(from, e))? {
        let entry = entry.map_err(|e| VqdError::io(from, e))?;
        let (src, dst) = (entry.path(), to.join(entry.file_name()));
        if src.is_dir() {
            copy_dir(&src, &dst)?;
        } else {
            std::fs::copy(&src, &dst).map_err(|e| VqdError::io(&src, e))?;
        }
    }
    Ok(())
}
