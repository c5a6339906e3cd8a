//! Property tests for the online adaptive-pretenuring estimator: its
//! decisions are a pure function of the telemetry stream, and the
//! hysteresis contract (at most one flip per site per cooldown window)
//! holds under arbitrary streams — not just the hand-built ones the unit
//! tests pin.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tilgc_core::adaptive::COOLDOWN;
use tilgc_core::{AdaptivePretenure, PretenurePolicy};
use tilgc_mem::SiteId;
use tilgc_obs::SiteWindow;

/// One collection of telemetry: a major/minor flag and per-site windows.
/// Site ids are drawn from a small pool (0 = UNKNOWN included on
/// purpose) so streams revisit the same sites often enough to flip them.
#[derive(Debug, Clone)]
struct Tick {
    major: bool,
    windows: Vec<(u16, u64, u64, u64)>, // (site, allocs, survived, tenured_live)
}

fn tick_strategy() -> impl Strategy<Value = Tick> {
    let window = (0u16..6, 0u64..200, 0u64..200, 0u64..200);
    (any::<bool>(), proptest::collection::vec(window, 0..6)).prop_map(|(major, mut raw)| {
        // The accumulator hands the estimator at most one window per
        // site, in ascending site order; mimic that.
        raw.sort_by_key(|w| w.0);
        raw.dedup_by_key(|w| w.0);
        Tick {
            major,
            windows: raw,
        }
    })
}

fn to_windows(tick: &Tick) -> Vec<SiteWindow> {
    tick.windows
        .iter()
        .map(|&(site, allocs, survived, tenured_live)| {
            let survived = survived.min(allocs);
            SiteWindow {
                site,
                allocs,
                alloc_bytes: allocs * 8,
                // The census the estimator reads at majors is
                // `copied_objects - survived`.
                copied_objects: survived + tenured_live,
                copied_bytes: (survived + tenured_live) * 8,
                survived,
            }
        })
        .collect()
}

/// Replays `stream` through a fresh estimator and returns the full
/// decision log. `seed_site` 0 means "no static seed policy" (the
/// vendored proptest has no `option::of`, so None is encoded in-band —
/// site 0 is UNKNOWN and could never be seeded anyway).
fn replay(stream: &[Tick], seed_site: u16) -> Vec<(u64, Vec<u16>, Vec<u16>)> {
    let seed = (seed_site != 0).then(|| {
        let s = seed_site;
        let mut p = PretenurePolicy::new();
        p.add_site(SiteId::new(s));
        p
    });
    let mut a = AdaptivePretenure::new(seed.as_ref());
    let mut log = Vec::new();
    for (gc, tick) in stream.iter().enumerate() {
        let out = a.observe(gc as u64, tick.major, &to_windows(tick));
        if !out.is_empty() {
            log.push((
                gc as u64,
                out.promotions.iter().map(|(s, _)| s.get()).collect(),
                out.demotions.iter().map(|(s, _)| s.get()).collect(),
            ));
        }
    }
    log
}

proptest! {
    /// The same telemetry stream always yields the same promote/demote
    /// sequence — the estimator holds no hidden nondeterministic state.
    #[test]
    fn same_stream_always_yields_same_flip_sequence(
        stream in proptest::collection::vec(tick_strategy(), 1..80),
        seed in 0u16..6,
    ) {
        prop_assert_eq!(replay(&stream, seed), replay(&stream, seed));
    }

    /// Under any stream: no site flips twice within the cooldown, the
    /// UNKNOWN site never flips, and every demotion was preceded by a
    /// matching promotion (or the seed).
    #[test]
    fn flip_contract_holds_under_arbitrary_streams(
        stream in proptest::collection::vec(tick_strategy(), 1..120),
        seed in 0u16..6,
    ) {
        let log = replay(&stream, seed);
        let mut last_flip: BTreeMap<u16, u64> = BTreeMap::new();
        let mut pretenured: Vec<u16> = (seed != 0).then_some(seed).into_iter().collect();
        for (gc, promotions, demotions) in log {
            for site in promotions {
                prop_assert!(site != 0, "UNKNOWN site promoted");
                prop_assert!(!pretenured.contains(&site), "promoted twice");
                if let Some(&last) = last_flip.get(&site) {
                    prop_assert!(gc - last >= COOLDOWN,
                        "site {} flipped at {} and {}", site, last, gc);
                }
                last_flip.insert(site, gc);
                pretenured.push(site);
            }
            for site in demotions {
                prop_assert!(site != 0, "UNKNOWN site demoted");
                prop_assert!(pretenured.contains(&site),
                    "site {} demoted while on the nursery path", site);
                if let Some(&last) = last_flip.get(&site) {
                    prop_assert!(gc - last >= COOLDOWN,
                        "site {} flipped at {} and {}", site, last, gc);
                }
                last_flip.insert(site, gc);
                pretenured.retain(|&s| s != site);
            }
        }
    }
}

/// A pressure-driven forced demotion that lands *during a degraded
/// collection* — the governor demotes mid-cycle while the coordinator
/// is draining a failed parallel section's leftover packets on the
/// serial path — must start the same cooldown window as any other
/// flip. Degradation is invisible to the estimator by design (it only
/// ever sees the collection index the plan passes in), so a site must
/// not oscillate faster just because the collection that demoted it
/// also lost a worker.
#[test]
fn forced_demotion_during_degraded_collection_respects_cooldown() {
    let win = |site: u16, allocs: u64, survived: u64| SiteWindow {
        site,
        allocs,
        alloc_bytes: allocs * 8,
        copied_objects: survived,
        copied_bytes: survived * 8,
        survived,
    };
    let mut seed = PretenurePolicy::new();
    seed.add_site(SiteId::new(3));
    let mut a = AdaptivePretenure::new(Some(&seed));

    // Collection 10 degrades (worker lost, serial drain); the pressure
    // rung fires inside that same collection and force-demotes site 3.
    let degraded = 10u64;
    a.note_forced_demotion(SiteId::new(3), degraded);
    assert!(!a.is_pretenured(SiteId::new(3)));

    // Perfect survival evidence from the episode's own serial drain and
    // the collections right after it must not re-promote the site
    // inside the cooldown window.
    for gc in degraded..degraded + COOLDOWN {
        let out = a.observe(gc, false, &[win(3, 100, 100)]);
        assert!(
            out.promotions.is_empty(),
            "flip at {gc} violates the cooldown of {} started by the \
             mid-degradation demotion",
            COOLDOWN
        );
    }

    // Once cooled down and re-proven, the site may flip back.
    let mut promoted = false;
    for gc in degraded + COOLDOWN..degraded + 4 * COOLDOWN {
        promoted |= !a
            .observe(gc, false, &[win(3, 100, 100)])
            .promotions
            .is_empty();
    }
    assert!(promoted, "site re-promotes once cooled down and re-proven");
}
