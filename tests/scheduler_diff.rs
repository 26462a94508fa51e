//! Differential scheduler test: the hierarchical timer wheel and the
//! binary-heap oracle must generate **byte-identical** corpora, at any
//! worker-thread count.
//!
//! This is the end-to-end guarantee behind swapping the event queue:
//! the wheel preserves the exact `(at, seq)` total order the heap
//! defined, so every RNG draw, every packet timing and every derived
//! feature comes out the same — serialised, to the last bit of every
//! float. Kept in its own integration-test binary because the
//! scheduler default is process-global.

use std::sync::{Mutex, MutexGuard, PoisonError};

use vqd::prelude::*;
use vqd::simnet::sched::{set_default_scheduler, SchedulerKind};

/// Serialises the tests in this binary: each one flips the
/// process-global default scheduler, and a concurrent flip would let a
/// "heap" run quietly execute on the wheel.
fn scheduler_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn corpus_text(kind: SchedulerKind, threads: usize) -> String {
    set_default_scheduler(kind);
    let cfg = CorpusConfig {
        sessions: 200,
        seed: 77_2015,
        p_fault: 0.6,
        threads,
        ..Default::default()
    };
    corpus_to_text(&generate_corpus(&cfg, &Catalog::top100(42)))
}

/// 200 sessions × {wheel, heap} × {1 thread, 8 threads}: all four
/// serialisations must be the same bytes. Half the grid runs with
/// metrics and span tracing enabled — the recorder must not perturb
/// either engine (it is write-only and flushes outside the event
/// loop), so obs-on and obs-off corpora are the same bytes too.
#[test]
fn wheel_and_heap_corpora_are_byte_identical_at_any_thread_count() {
    let _serial = scheduler_lock();
    vqd_obs::disable();
    let wheel_1 = corpus_text(SchedulerKind::TimerWheel, 1);
    let heap_1 = corpus_text(SchedulerKind::BinaryHeap, 1);
    vqd_obs::enable_tracing();
    let wheel_8 = corpus_text(SchedulerKind::TimerWheel, 8);
    let heap_8 = corpus_text(SchedulerKind::BinaryHeap, 8);
    let spans = vqd_obs::take_spans();
    vqd_obs::disable();
    set_default_scheduler(SchedulerKind::TimerWheel);

    assert!(!spans.is_empty(), "tracing collected no spans");
    assert!(!wheel_1.is_empty());
    assert_eq!(wheel_1, wheel_8, "wheel: thread count changed the corpus");
    assert_eq!(heap_1, heap_8, "heap: thread count changed the corpus");
    assert_eq!(wheel_1, heap_1, "wheel and heap disagree");
}

/// FNV-1a 64 of a string's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of `corpus_to_text` for the 24-session corpus below, recorded
/// while every packet in propagation still sat in the event queue as
/// its own entry. A simulator change that dispatches every event at its
/// original `(at, seq)` key keeps this literal.
const PINNED_SMALL_CORPUS_FNV: u64 = 0x5d35_6aea_e9d7_f647;

/// 24 sessions with a 60 % fault share — the seed draws every fault
/// kind, LAN (WLAN) and WAN congestion included — must hash to the
/// pinned literal on both queues.
#[test]
fn small_corpus_bytes_match_pinned_fingerprint_on_both_schedulers() {
    let _serial = scheduler_lock();
    for kind in [SchedulerKind::TimerWheel, SchedulerKind::BinaryHeap] {
        set_default_scheduler(kind);
        let cfg = CorpusConfig {
            sessions: 24,
            seed: 12_2015,
            p_fault: 0.6,
            threads: 2,
            ..Default::default()
        };
        let runs = generate_corpus(&cfg, &Catalog::top100(42));
        for fault in [FaultKind::LanCongestion, FaultKind::WanCongestion] {
            assert!(
                runs.iter().any(|r| r.truth.fault == fault),
                "corpus lost its {fault:?} sessions"
            );
        }
        assert_eq!(
            fnv1a(&corpus_to_text(&runs)),
            PINNED_SMALL_CORPUS_FNV,
            "{kind:?}: corpus bytes moved"
        );
    }
    set_default_scheduler(SchedulerKind::TimerWheel);
}
