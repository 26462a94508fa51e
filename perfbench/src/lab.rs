//! The lab pipeline: simulate a labelled corpus, write it as `.vqdc`,
//! and train the diagnosers (three label schemes in memory, the exact
//! scheme out of core, 10-fold CV of the exact scheme).

use std::path::Path;
use std::time::Instant;

use vqd_core::dataset::{
    corpus_to_text, draw_specs, to_dataset, CorpusConfig, CorpusSpec, LabeledRun,
};
use vqd_core::diagnoser::{Diagnoser, DiagnoserConfig};
use vqd_core::octrain::{train_out_of_core, OocConfig};
use vqd_core::realworld::run_realworld_session_in;
use vqd_core::scenario::LabelScheme;
use vqd_core::testbed::run_controlled_session_in;
use vqd_core::vqdc::{write_vqdc, VqdcReader};
use vqd_core::VqdError;
use vqd_faults::FaultKind;
use vqd_ml::dtree::C45Config;
use vqd_ml::stream_fit::StreamFitConfig;
use vqd_simnet::engine::SimArena;
use vqd_video::catalog::Catalog;

use crate::trace::Tracer;

/// Catalogue seed shared with the repository's experiment harnesses.
pub const CATALOG_SEED: u64 = 42;

/// Every fault kind, `none` first, in the order metrics are reported.
pub const FAULTS: [FaultKind; 8] = [
    FaultKind::None,
    FaultKind::WanCongestion,
    FaultKind::WanShaping,
    FaultKind::LanCongestion,
    FaultKind::LanShaping,
    FaultKind::MobileLoad,
    FaultKind::LowRssi,
    FaultKind::WifiInterference,
];

/// Span name of one simulated session, by fault kind.
pub fn session_span(kind: FaultKind) -> &'static str {
    match kind {
        FaultKind::None => "simnet.session.none",
        FaultKind::WanCongestion => "simnet.session.wan_congestion",
        FaultKind::WanShaping => "simnet.session.wan_shaping",
        FaultKind::LanCongestion => "simnet.session.lan_congestion",
        FaultKind::LanShaping => "simnet.session.lan_shaping",
        FaultKind::MobileLoad => "simnet.session.mobile_load",
        FaultKind::LowRssi => "simnet.session.low_rssi",
        FaultKind::WifiInterference => "simnet.session.wifi_interference",
    }
}

/// The label schemes trained in memory, with their span names.
pub const SCHEMES: [(LabelScheme, &str, &str, &str); 3] = [
    (
        LabelScheme::Exact,
        "exact",
        "features.prepare.exact",
        "ml.fit.exact",
    ),
    (
        LabelScheme::Location,
        "location",
        "features.prepare.location",
        "ml.fit.location",
    ),
    (
        LabelScheme::Existence,
        "existence",
        "features.prepare.existence",
        "ml.fit.existence",
    ),
];

fn fault_of(spec: &CorpusSpec) -> FaultKind {
    match spec {
        CorpusSpec::Lab(s) => s.fault.kind,
        CorpusSpec::Cellular(s) => s.fault.kind,
    }
}

/// `sessions` specs drawn by `draw_specs` under the default
/// `CorpusConfig` mix, keeping draw order but filling each
/// (access, fault) stratum to its expected share of the mix exactly.
///
/// A plain draw of a few hundred sessions varies a lot in cost from
/// seed to seed: one WLAN-congestion session costs ten ordinary ones,
/// and their count is binomial. Fixing the stratum counts keeps the
/// corpus cost a property of the simulator, not of the seed.
pub fn stratified_specs(sessions: usize, seed: u64) -> Vec<CorpusSpec> {
    let mix = CorpusConfig::default();
    let kinds = FaultKind::ALL.len() as f64;
    // Stratum = (cellular?, fault index into FAULTS).
    let mut shares = Vec::new();
    for cellular in [false, true] {
        let p_access = if cellular {
            mix.p_cellular
        } else {
            1.0 - mix.p_cellular
        };
        for (k, kind) in FAULTS.iter().enumerate() {
            let p_fault = if *kind == FaultKind::None {
                1.0 - mix.p_fault
            } else {
                mix.p_fault / kinds
            };
            shares.push(((cellular, k), p_access * p_fault * sessions as f64));
        }
    }
    // Largest-remainder rounding to exactly `sessions`.
    let mut quota: Vec<((bool, usize), usize)> = shares
        .iter()
        .map(|&(s, x)| (s, x.floor() as usize))
        .collect();
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        let fa = shares[a].1 - shares[a].1.floor();
        let fb = shares[b].1 - shares[b].1.floor();
        fb.total_cmp(&fa).then(a.cmp(&b))
    });
    let assigned: usize = quota.iter().map(|q| q.1).sum();
    for &i in order.iter().take(sessions - assigned) {
        quota[i].1 += 1;
    }

    let mut pool = sessions.max(1) * 8;
    loop {
        let cfg = CorpusConfig {
            sessions: pool,
            seed,
            threads: 1,
            ..CorpusConfig::default()
        };
        let mut left = quota.clone();
        let mut out = Vec::with_capacity(sessions);
        for spec in draw_specs(&cfg) {
            let key = (
                matches!(spec, CorpusSpec::Cellular(_)),
                FAULTS
                    .iter()
                    .position(|k| *k == fault_of(&spec))
                    .unwrap_or(0),
            );
            if let Some(q) = left.iter_mut().find(|q| q.0 == key && q.1 > 0) {
                q.1 -= 1;
                out.push(spec);
            }
        }
        if out.len() == sessions {
            return out;
        }
        pool *= 2;
    }
}

/// Simulate one session under a span named after its fault kind.
pub fn simulate(
    spec: &CorpusSpec,
    catalog: &Catalog,
    arena: &mut SimArena,
    tr: &Tracer,
    span: Option<&'static str>,
) -> LabeledRun {
    let _s = tr.leaf(span.unwrap_or_else(|| session_span(fault_of(spec))));
    let out = match spec {
        CorpusSpec::Lab(s) => run_controlled_session_in(s, catalog, arena),
        CorpusSpec::Cellular(s) => run_realworld_session_in(s, catalog, arena),
    };
    LabeledRun::from(out)
}

/// FNV-1a 64 of the corpus's text serialisation (the repository's
/// corpus fingerprint).
pub fn fingerprint(runs: &[LabeledRun]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in corpus_to_text(runs).bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One timed simulation of the lab corpus: every spec simulated on one
/// thread with one arena (in one go, or in pieces spread over the run),
/// then the corpus written as `.vqdc`.
pub struct Corpus {
    arena: SimArena,
    pub runs: Vec<LabeledRun>,
    /// Wall seconds of the simulations and the `.vqdc` write.
    pub secs: f64,
}

impl Corpus {
    pub fn new() -> Corpus {
        Corpus {
            arena: SimArena::default(),
            runs: Vec::new(),
            secs: 0.0,
        }
    }

    /// Simulate the next `specs` of the corpus, in order.
    pub fn simulate(&mut self, specs: &[CorpusSpec], catalog: &Catalog, tr: &Tracer) {
        for s in specs {
            let t0 = Instant::now();
            let run = simulate(s, catalog, &mut self.arena, tr, None);
            self.secs += t0.elapsed().as_secs_f64();
            self.runs.push(run);
        }
    }

    /// Write the simulated corpus as `.vqdc`.
    pub fn write(&mut self, vqdc: &Path, tr: &Tracer) -> Result<(), VqdError> {
        let t0 = Instant::now();
        {
            let _s = tr.leaf("core.vqdc.write");
            write_vqdc(&self.runs, vqdc)?;
        }
        self.secs += t0.elapsed().as_secs_f64();
        Ok(())
    }
}

/// Pipeline configuration: the library defaults on one thread.
fn diagnoser_config() -> DiagnoserConfig {
    DiagnoserConfig {
        tree: C45Config {
            threads: 1,
            ..C45Config::default()
        },
        ..DiagnoserConfig::default()
    }
}

/// One training pass.
pub struct TrainPass {
    pub secs: f64,
    pub exact: Diagnoser,
    /// In-memory and out-of-core exact models serialise identically.
    pub same_bytes: bool,
    pub cv_accuracy: f64,
}

/// One timed training pass over `runs` (and their `.vqdc` at `vqdc`).
pub fn train(
    runs: &[LabeledRun],
    vqdc: &Path,
    spill_dir: &Path,
    cv_seed: u64,
    tr: &Tracer,
) -> Result<TrainPass, VqdError> {
    let cfg = diagnoser_config();
    let t0 = Instant::now();
    let mut exact = None;
    for (scheme, _, prepare_span, fit_span) in SCHEMES {
        let data = {
            let _s = tr.leaf("core.dataset.to_dataset");
            to_dataset(runs, scheme)
        };
        let prep = {
            let _s = tr.leaf(prepare_span);
            Diagnoser::prepare(&data, &cfg)
        };
        let model = {
            let _s = tr.leaf(fit_span);
            Diagnoser::train_prepared(&prep, &cfg)
        };
        if scheme == LabelScheme::Exact {
            exact = Some((prep, model));
        }
    }
    let (prep, exact) = exact.expect("the exact scheme is trained");
    let reader = {
        let _s = tr.leaf("core.vqdc.open");
        VqdcReader::open(vqdc)?
    };
    let (ooc, _) = {
        let _s = tr.leaf("core.octrain");
        train_out_of_core(
            &reader,
            &OocConfig {
                diagnoser: cfg,
                scheme: LabelScheme::Exact,
                fit: StreamFitConfig {
                    tmp_dir: Some(spill_dir.to_path_buf()),
                    ..StreamFitConfig::default()
                },
            },
        )?
    };
    let cm = {
        let _s = tr.leaf("ml.cv");
        Diagnoser::cross_validate_prepared(&prep, &cfg, 10, cv_seed)
    };
    let secs = t0.elapsed().as_secs_f64();
    let same_bytes = {
        let _s = tr.leaf("core.diagnoser.serialize");
        exact.serialize() == ooc.serialize()
    };
    Ok(TrainPass {
        secs,
        exact,
        same_bytes,
        cv_accuracy: cm.accuracy(),
    })
}
