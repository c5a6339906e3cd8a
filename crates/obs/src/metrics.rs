//! Pause-time metrics computed deterministically in the cycle domain
//! from the [`Event`] stream: exact pause and time-to-safepoint
//! [`percentile`]s, an MMU (minimum mutator utilization) curve over
//! sliding cycle windows, and an [`SloSpec`] that turns both into one
//! verdict row per bound.
//!
//! Everything here is integer arithmetic over simulated cycles — no
//! floats, no wall clock — so the same event stream always produces the
//! same report, byte for byte. Fractions are expressed in permille
//! (0..=1000) throughout.

use crate::Event;

/// The value at `permille`/1000 of `samples`: the one at rank
/// `max(1, ⌈n · permille / 1000⌉)` in sorted order, 0 when there are
/// none. Exact, so `percentile(s, 0)` is the minimum and
/// `percentile(s, 1000)` the maximum — the rank rule of the benchmark's
/// `sim_pause_p99_kcycles`.
pub fn percentile(samples: &[u64], permille: u64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as u64;
    let rank = (n * permille).div_ceil(1000).clamp(1, n);
    sorted[rank as usize - 1]
}

/// The pause ledger of one event stream: each collection's bracket on
/// the timeline (for the pause lengths and MMU), each collection's
/// time-to-safepoint, and the timeline horizon.
///
/// A "pause" is one collection's `[start_cycles, end_cycles]` bracket on
/// the unified simulated timeline (client + GC cycles; client cycles do
/// not advance during a collection, so `end - start` equals the
/// collection's `gc_cycles`, an identity `schema::Checker` enforces).
/// The bracket is read off the `collection-end` line alone, as
/// `(end_cycles - gc_cycles, end_cycles)`. Governor pressure rungs charge
/// cycles *outside* any collection bracket and are deliberately not
/// pauses; reconciliation against `GcStats::gc_cycles()` must add rung
/// cycles back (the same identity the telemetry tests check).
///
/// TTSP is observational: how far (in client cycles) each collection
/// landed from the mutator's last safepoint poll. A zero is a real
/// observation (the collection hit exactly at a poll), even though the
/// JSONL sink omits the field for zero.
#[derive(Clone, Debug, Default)]
pub struct PauseMetrics {
    /// Pause brackets `(start, end)` in timeline order.
    pauses: Vec<(u64, u64)>,
    /// `ttsp_cycles` of each `collection-begin`, in stream order.
    ttsp: Vec<u64>,
    horizon: u64,
}

impl PauseMetrics {
    /// An empty ledger.
    pub fn new() -> PauseMetrics {
        PauseMetrics::default()
    }

    /// Feeds one event. Only collection begin (TTSP) and end (the
    /// bracket) lines matter; all other kinds are ignored.
    pub fn observe(&mut self, event: &Event) {
        match event {
            Event::CollectionBegin(b) => self.ttsp.push(b.ttsp_cycles),
            Event::CollectionEnd(e) => {
                let start = e.end_cycles.saturating_sub(e.gc_cycles);
                self.push_pause(start, e.end_cycles, e.end_cycles - start);
            }
            _ => {}
        }
    }

    /// Builds the ledger from a complete event slice.
    pub fn from_events(events: &[Event]) -> PauseMetrics {
        let mut m = PauseMetrics::new();
        for e in events {
            m.observe(e);
        }
        m
    }

    /// Records a pause bracket directly, for a timeline built without
    /// events; `gc_cycles` must be the bracket's width.
    pub fn push_pause(&mut self, start_cycles: u64, end_cycles: u64, gc_cycles: u64) {
        debug_assert_eq!(
            end_cycles - start_cycles,
            gc_cycles,
            "a pause is its bracket"
        );
        self.pauses.push((start_cycles, end_cycles));
        self.horizon = self.horizon.max(end_cycles);
    }

    /// Extends the timeline horizon past the last pause (e.g. to the
    /// run's final client+GC cycle total) so trailing mutator time counts
    /// toward utilization.
    pub fn set_horizon(&mut self, cycles: u64) {
        self.horizon = self.horizon.max(cycles);
    }

    /// The timeline horizon (largest cycle position seen).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Each pause's length in gc cycles, in timeline order: the samples
    /// for [`percentile`].
    pub fn pauses(&self) -> Vec<u64> {
        self.pauses.iter().map(|&(s, e)| e - s).collect()
    }

    /// Each collection's time-to-safepoint, in stream order.
    pub fn ttsp(&self) -> &[u64] {
        &self.ttsp
    }

    /// Minimum mutator utilization over every sliding window of `window`
    /// cycles, in permille (truncated). With no timeline at all (horizon
    /// 0) returns 1000. For windows at least as long as the whole
    /// timeline, this is the run's overall mutator fraction.
    ///
    /// The minimum over all window positions is attained at a window
    /// boundary touching a pause edge, so only `2n + 2` candidate
    /// positions need evaluating — exact, not sampled.
    pub fn mmu(&self, window: u64) -> u64 {
        if self.horizon == 0 || window == 0 {
            return 1000;
        }
        let total_pause: u64 = self.pauses.iter().map(|&(s, e)| e - s).sum();
        if window >= self.horizon {
            return (self.horizon - total_pause.min(self.horizon)) * 1000 / self.horizon;
        }
        let mut worst = 1000u64;
        let mut consider = |t0: u64| {
            let t0 = t0.min(self.horizon - window);
            let t1 = t0 + window;
            let pause = self.pause_overlap(t0, t1);
            worst = worst.min((window - pause.min(window)) * 1000 / window);
        };
        consider(0);
        consider(self.horizon - window);
        for &(s, e) in &self.pauses {
            consider(s);
            consider(e.saturating_sub(window));
        }
        worst
    }

    /// The MMU curve: `(window, mmu_permille)` for each requested window.
    pub fn mmu_curve(&self, windows: &[u64]) -> Vec<(u64, u64)> {
        windows.iter().map(|&w| (w, self.mmu(w))).collect()
    }

    /// Total pause cycles overlapping the half-open window `[t0, t1)`.
    fn pause_overlap(&self, t0: u64, t1: u64) -> u64 {
        self.pauses
            .iter()
            .map(|&(s, e)| e.min(t1).saturating_sub(s.max(t0)))
            .sum()
    }
}

/// One configured SLO bound with its measured value: a row of the
/// report's verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloRow {
    /// What is bounded, e.g. `"pause p99"` or `"MMU@1500000"`.
    pub metric: String,
    /// The observed value (cycles for pauses, permille for MMU).
    pub actual: u64,
    /// The configured bound.
    pub bound: u64,
    /// Whether `bound` is a floor (MMU) rather than a ceiling (pause).
    pub floor: bool,
}

impl SloRow {
    /// Whether the measured value keeps to the bound.
    pub fn ok(&self) -> bool {
        if self.floor {
            self.actual >= self.bound
        } else {
            self.actual <= self.bound
        }
    }
}

impl std::fmt::Display for SloRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.ok() { "ok" } else { "VIOLATED" };
        let (metric, bound, actual) = (&self.metric, self.bound, self.actual);
        if self.floor {
            write!(f, "{metric} >= {bound}‰: actual {actual}‰  {verdict}")
        } else {
            write!(f, "{metric} <= {bound} cycles: actual {actual}  {verdict}")
        }
    }
}

/// A service-level objective over the pause metrics: upper bounds on
/// pause percentiles (in cycles) and lower bounds on MMU (in permille) at
/// given windows (in cycles).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SloSpec {
    /// `(percentile_permille, max_cycles)` pairs: the pause value at the
    /// given percentile must not exceed `max_cycles`.
    pub max_pause: Vec<(u64, u64)>,
    /// `(window_cycles, min_permille)` pairs: the MMU at the given window
    /// must not fall below `min_permille`.
    pub min_mmu: Vec<(u64, u64)>,
}

impl SloSpec {
    /// Evaluates the spec against measured metrics: one row per
    /// configured bound, pause bounds first (none = report only).
    pub fn evaluate(&self, metrics: &PauseMetrics) -> Vec<SloRow> {
        let pauses = metrics.pauses();
        let pause_rows = self.max_pause.iter().map(|&(permille, bound)| SloRow {
            metric: format!("pause p{}", fmt_permille(permille)),
            actual: percentile(&pauses, permille),
            bound,
            floor: false,
        });
        let mmu_rows = self.min_mmu.iter().map(|&(window, bound)| SloRow {
            metric: format!("MMU@{window}"),
            actual: metrics.mmu(window),
            bound,
            floor: true,
        });
        pause_rows.chain(mmu_rows).collect()
    }
}

/// Formats a permille percentile the conventional way: `500` → `"50"`,
/// `999` → `"99.9"`.
fn fmt_permille(permille: u64) -> String {
    if permille % 10 == 0 {
        format!("{}", permille / 10)
    } else {
        format!("{}.{}", permille / 10, permille % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectionBegin, CollectionEnd};

    fn end_event(collection: u64, gc_cycles: u64, end_cycles: u64) -> Event {
        Event::CollectionEnd(Box::new(CollectionEnd {
            collection,
            major: false,
            depth: 0,
            claimed_prefix: 0,
            oracle_prefix: 0,
            copied_bytes: 0,
            scanned_words: 0,
            pretenured_scanned_words: 0,
            roots_found: 0,
            frames_scanned: 0,
            frames_reused: 0,
            slots_scanned: 0,
            barrier_entries: 0,
            markers_placed: 0,
            gc_cycles,
            end_cycles,
            live_bytes_after: 0,
            wall_ns: 0,
            workers: 1,
            worker_copied_bytes: Vec::new(),
            chunks_owned: 0,
            side_cleared_words: 0,
        }))
    }

    fn begin_event(collection: u64, start_cycles: u64) -> Event {
        Event::CollectionBegin(CollectionBegin {
            collection,
            plan: "semispace",
            reason: "alloc-failure",
            major: false,
            depth: 0,
            start_cycles,
            ttsp_cycles: 0,
        })
    }

    /// The reference the rank rule is checked against: sort, then take
    /// the smallest value with at least `permille`/1000 of the samples at
    /// or below it (and at least one).
    fn brute_force(samples: &[u64], permille: u64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort();
        let n = sorted.len();
        for (i, &v) in sorted.iter().enumerate() {
            if (i + 1) * 1000 >= n * permille as usize {
                return v;
            }
        }
        sorted.last().copied().unwrap_or(0)
    }

    #[test]
    fn percentile_matches_a_sorted_rank_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..300 {
            let n = match case {
                0 => 0,
                1 => 1,
                _ => next(60),
            };
            // Narrow ranges repeat values, wide ones do not.
            let spread = if case % 2 == 0 { 8 } else { 1 << 40 };
            let samples: Vec<u64> = (0..n).map(|_| next(spread)).collect();
            for permille in [0, 1, 10, 500, 900, 990, 999, 1000, next(1001)] {
                assert_eq!(
                    percentile(&samples, permille),
                    brute_force(&samples, permille),
                    "p{permille} of {samples:?}"
                );
            }
            assert_eq!(
                percentile(&samples, 0),
                samples.iter().copied().min().unwrap_or(0)
            );
            assert_eq!(
                percentile(&samples, 1000),
                samples.iter().copied().max().unwrap_or(0)
            );
        }
    }

    #[test]
    fn percentiles_are_exact_ranks() {
        let samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&samples, 500), 50);
        assert_eq!(percentile(&samples, 900), 90);
        assert_eq!(percentile(&samples, 995), 100, "rank 99.5 rounds up");
        assert_eq!(percentile(&samples, 1000), 100, "p100 is the exact max");
        assert_eq!(percentile(&samples, 10), 1, "p1 is the exact min");
        assert_eq!(percentile(&[], 500), 0);
    }

    /// Runs' samples are concatenated for the latency lanes: the order
    /// they are joined in cannot move a percentile.
    #[test]
    fn percentile_is_byte_stable_under_merge_order() {
        let (a, b) = ([400u64, 17, 9000], [3u64, 123_456, 17, 3]);
        let ab: Vec<u64> = a.iter().chain(&b).copied().collect();
        let ba: Vec<u64> = b.iter().chain(&a).copied().collect();
        for p in [0, 10, 500, 900, 990, 999, 1000] {
            assert_eq!(percentile(&ab, p), percentile(&ba, p));
        }
    }

    #[test]
    fn pause_metrics_brackets_collections() {
        let events = [
            begin_event(1, 100),
            end_event(1, 50, 150),
            begin_event(2, 300),
            end_event(2, 100, 400),
        ];
        let m = PauseMetrics::from_events(&events);
        assert_eq!(m.pauses(), vec![50, 100]);
        assert_eq!(m.horizon(), 400);
        // Whole-run utilization: 150 pause cycles of 400 → 625 permille.
        assert_eq!(m.mmu(400), 625);
        assert_eq!(m.mmu(1000), 625, "window past horizon clamps");
    }

    #[test]
    fn pause_metrics_reconstructs_dropped_begin() {
        // End event with no preceding begin (ring dropped it): the
        // bracket comes from the end line alone.
        let m = PauseMetrics::from_events(&[end_event(5, 70, 1000)]);
        assert_eq!(m.pauses(), [70]);
        assert_eq!(m.mmu(1000), 930);
        assert!(m.ttsp().is_empty());
    }

    #[test]
    fn mmu_finds_worst_window() {
        // Timeline 0..1000, one pause [500, 600).
        let mut m = PauseMetrics::new();
        m.push_pause(500, 600, 100);
        m.set_horizon(1000);
        // A 100-cycle window inside the pause has zero utilization.
        assert_eq!(m.mmu(100), 0);
        // A 200-cycle window can at best avoid half the pause → worst is
        // the window exactly covering the pause: (200-100)/200 = 500.
        assert_eq!(m.mmu(200), 500);
        // Whole run: 900/1000.
        assert_eq!(m.mmu(1000), 900);
        let curve = m.mmu_curve(&[100, 200, 1000]);
        assert_eq!(curve, vec![(100, 0), (200, 500), (1000, 900)]);
    }

    #[test]
    fn mmu_two_pauses_clustered() {
        // Pauses [100,200) and [250,350) cluster inside [100,350).
        let mut m = PauseMetrics::new();
        m.push_pause(100, 200, 100);
        m.push_pause(250, 350, 100);
        m.set_horizon(1000);
        // 250-cycle window at t0=100 catches both pauses: 50/250 = 200.
        assert_eq!(m.mmu(250), 200);
        // Empty timeline edge cases.
        assert_eq!(PauseMetrics::new().mmu(100), 1000);
        assert_eq!(m.mmu(0), 1000);
    }

    #[test]
    fn ttsp_metrics_track_collection_begins() {
        let mut ttsp = Event::CollectionBegin(CollectionBegin {
            collection: 1,
            plan: "semispace",
            reason: "alloc-failure",
            major: false,
            depth: 0,
            start_cycles: 100,
            ttsp_cycles: 40,
        });
        let mut m = PauseMetrics::new();
        m.observe(&ttsp);
        if let Event::CollectionBegin(b) = &mut ttsp {
            b.collection = 2;
            b.ttsp_cycles = 0;
        }
        m.observe(&ttsp);
        assert_eq!(m.ttsp(), [40, 0], "zero TTSP is a real observation");
        assert_eq!(percentile(m.ttsp(), 0), 0);
        // End lines add a pause, not a TTSP sample.
        m.observe(&end_event(2, 5, 200));
        assert_eq!((m.ttsp().len(), m.pauses().len()), (2, 1));
    }

    #[test]
    fn slo_spec_evaluates_bounds() {
        let mut m = PauseMetrics::new();
        m.push_pause(100, 200, 100);
        m.set_horizon(1000);
        let spec = SloSpec {
            max_pause: vec![(500, 200), (999, 50)],
            min_mmu: vec![(200, 900), (1000, 500)],
        };
        let rows = spec.evaluate(&m);
        let verdicts: Vec<(&str, u64, bool)> = rows
            .iter()
            .map(|r| (r.metric.as_str(), r.actual, r.ok()))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("pause p50", 100, true),
                ("pause p99.9", 100, false),
                ("MMU@200", 500, false),
                ("MMU@1000", 900, true),
            ]
        );
        assert!(SloSpec::default().evaluate(&m).is_empty());
        assert_eq!(
            rows[1].to_string(),
            "pause p99.9 <= 50 cycles: actual 100  VIOLATED"
        );
        assert_eq!(rows[3].to_string(), "MMU@1000 >= 500‰: actual 900‰  ok");
    }
}
