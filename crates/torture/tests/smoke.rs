//! PR-tier torture smoke: a handful of fixed seeds must run clean on
//! every plan, and the harness must actually catch the defects it is
//! built to catch (validated by injecting them).

use tilgc_torture::{failure_telemetry, run_seed, Fault, TortureConfig};

fn smoke_config() -> TortureConfig {
    TortureConfig {
        ops: 256,
        ..TortureConfig::default()
    }
}

#[test]
fn fixed_seeds_run_clean_on_all_plans() {
    let cfg = smoke_config();
    for seed in [0, 1, 2, 3, 17, 42] {
        if let Some(d) = run_seed(seed, &cfg) {
            panic!("unexpected divergence:\n{d}");
        }
    }
}

#[test]
fn fixed_seeds_run_clean_with_a_tiny_nursery() {
    let cfg = TortureConfig {
        nursery_bytes: 2 << 10,
        ..smoke_config()
    };
    for seed in [5, 23] {
        if let Some(d) = run_seed(seed, &cfg) {
            panic!("unexpected divergence:\n{d}");
        }
    }
}

/// Disabling the write barrier on the generational lanes loses
/// old-to-young pointers: the oracle (or the cross-plan diff) must
/// report it, and the shrinker must hand back a reduced trace.
#[test]
fn dropped_write_barrier_is_caught_and_minimized() {
    // Longer programs than the clean smoke: exposing the lost pointer
    // needs a promotion, an unbarriered old-to-young store, and a second
    // minor collection to line up.
    let cfg = TortureConfig {
        fault: Some(Fault::DropBarrier),
        ops: 512,
        ..smoke_config()
    };
    let mut caught = None;
    for seed in 0..24 {
        if let Some(d) = run_seed(seed, &cfg) {
            caught = Some(d);
            break;
        }
    }
    let d = caught.expect("no seed exposed the dropped write barrier");
    assert!(!d.trace.is_empty());
    assert!(
        d.trace.len() < cfg.ops,
        "trace was not minimized: {} ops",
        d.trace.len()
    );
}

/// Corrupting the copied-bytes accounting must trip the
/// `check_inspection` copy/scan invariant at the first collection.
#[test]
fn skewed_copied_accounting_is_caught() {
    let cfg = TortureConfig {
        fault: Some(Fault::SkewCopied),
        ..smoke_config()
    };
    let mut caught = None;
    for seed in 0..8 {
        if let Some(d) = run_seed(seed, &cfg) {
            caught = Some(d);
            break;
        }
    }
    let d = caught.expect("no seed reached a collection");
    assert!(
        d.detail.contains("copy/scan accounting"),
        "unexpected detail: {}",
        d.detail
    );
    assert!(
        d.trace.len() < cfg.ops,
        "trace was not minimized: {} ops",
        d.trace.len()
    );

    // The failure report's telemetry replay: re-running the minimized
    // trace on the failing lane with the recorder attached must yield a
    // schema-valid JSONL event stream under the replay header, whose
    // event/drop accounting makes ring truncation detectable.
    let replay = failure_telemetry(&d, &cfg);
    let (header, jsonl) = replay
        .split_once('\n')
        .expect("replay has a header line and a body");
    assert!(
        header.starts_with("--- telemetry replay (") && header.ends_with(" dropped) ---"),
        "unexpected replay header: {header}"
    );
    let counts = header
        .trim_start_matches("--- telemetry replay (")
        .trim_end_matches(" dropped) ---")
        .split_once(" events, ")
        .expect("header carries `N events, M dropped`");
    let events: usize = counts.0.parse().expect("event count is a number");
    let dropped: u64 = counts.1.parse().expect("drop count is a number");
    assert_eq!(dropped, 0, "the smoke trace cannot overflow a 64K ring");
    let lines = tilgc_obs::schema::validate_jsonl(jsonl).expect("replay JSONL validates");
    assert!(lines >= 1, "replay is at least a meta line");
    assert_eq!(lines, events + 1, "JSONL body is the events plus meta");
}
