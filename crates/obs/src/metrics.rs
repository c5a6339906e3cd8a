//! Streaming pause-time metrics computed deterministically in the cycle
//! domain from the [`Event`] stream: an HDR-style
//! [`PauseHistogram`] with exact percentile extraction, an MMU (minimum
//! mutator utilization) curve over sliding cycle windows, and an
//! [`SloSpec`] that turns both into a pass/fail verdict.
//!
//! Everything here is integer arithmetic over simulated cycles — no
//! floats, no wall clock — so the same event stream always produces the
//! same report, byte for byte. Fractions are expressed in permille
//! (0..=1000) throughout.

use crate::Event;

/// Sub-bucket precision bits of the [`PauseHistogram`]: each power-of-two
/// octave is split into `2^SUB_BITS` equal sub-buckets, bounding the
/// relative quantization error at `2^-SUB_BITS` (6.25%).
pub const SUB_BITS: u32 = 4;

/// Sub-buckets per octave (`2^SUB_BITS`).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total buckets in a [`PauseHistogram`]. Values below `SUB_BUCKETS` get
/// exact unit-width buckets; each of the remaining 60 octaves of the u64
/// range contributes `SUB_BUCKETS` log-spaced buckets.
pub const PAUSE_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// A log-bucketed pause histogram in the style of HDR histograms, with a
/// fixed bucket layout so serialized output is byte-stable across runs.
///
/// Layout: values `0..16` land in exact unit buckets `0..16`; a value
/// with leading bit `e >= 4` lands in octave `g = e - 3`, sub-bucket
/// `(v >> (e - 4)) & 15`, i.e. index `g * 16 + sub`. Bucket widths double
/// every octave, so the relative quantization error never exceeds
/// 1/16 = 6.25%. Alongside the buckets the histogram tracks the *exact*
/// count, sum, min and max, which reconcile against `GcStats`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PauseHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for PauseHistogram {
    fn default() -> PauseHistogram {
        PauseHistogram::new()
    }
}

impl PauseHistogram {
    /// An empty histogram.
    pub fn new() -> PauseHistogram {
        PauseHistogram {
            buckets: vec![0; PAUSE_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for `value` (fixed layout, see the type docs).
    pub fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let octave = (exp - (SUB_BITS - 1)) as usize;
        let sub = ((value >> (exp - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        octave * SUB_BUCKETS + sub
    }

    /// Inclusive `[low, high]` value range covered by bucket `index`.
    pub fn bucket_range(index: usize) -> (u64, u64) {
        if index < SUB_BUCKETS {
            return (index as u64, index as u64);
        }
        let octave = (index / SUB_BUCKETS) as u32;
        let sub = (index % SUB_BUCKETS) as u64;
        let width = 1u64 << (octave - 1);
        let low = (SUB_BUCKETS as u64 + sub) << (octave - 1);
        // `low + width` overflows u64 in the very last bucket; adding
        // `width - 1` stays in range (the top bucket ends at u64::MAX).
        (low, low + (width - 1))
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[PauseHistogram::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Exact number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at or below which `permille`/1000 of the observations
    /// fall, reported as the upper edge of the containing bucket (clamped
    /// to the exact max, so `percentile(1000) == max()`). Returns 0 on an
    /// empty histogram. Pure integer arithmetic: byte-stable.
    pub fn percentile(&self, permille: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the target observation, 1-based, rounding up so p100.0
        // covers the last observation and p0.x at least the first.
        let rank = ((self.count * permille).div_ceil(1000)).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let (_, high) = PauseHistogram::bucket_range(i);
                return high.min(self.max);
            }
        }
        self.max
    }

    /// Merges another histogram's observations into this one.
    pub fn merge(&mut self, other: &PauseHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterates the non-empty buckets as `(low, high, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, &b)| {
                let (low, high) = PauseHistogram::bucket_range(i);
                (low, high, b)
            })
    }
}

/// Streaming pause accumulator: feed it the event stream and it maintains
/// the pause histogram, the pause interval list for MMU, and the timeline
/// horizon.
///
/// A "pause" is one collection's `[start_cycles, end_cycles]` bracket on
/// the unified simulated timeline (client + GC cycles; client cycles do
/// not advance during a collection, so `end - start` equals the
/// collection's `gc_cycles`). Governor pressure rungs charge cycles
/// *outside* any collection bracket and are deliberately not pauses;
/// reconciliation against `GcStats::gc_cycles()` must add rung cycles
/// back (the same identity the telemetry tests check).
#[derive(Clone, Debug, Default)]
pub struct PauseMetrics {
    hist: PauseHistogram,
    /// Closed pause intervals `(start, end)` in timeline order.
    pauses: Vec<(u64, u64)>,
    open: Option<u64>,
    horizon: u64,
}

impl PauseMetrics {
    /// An empty accumulator.
    pub fn new() -> PauseMetrics {
        PauseMetrics::default()
    }

    /// Feeds one event. Only collection begin/end brackets matter; all
    /// other kinds are ignored.
    pub fn observe(&mut self, event: &Event) {
        match event {
            Event::CollectionBegin(b) => {
                self.open = Some(b.start_cycles);
                self.horizon = self.horizon.max(b.start_cycles);
            }
            Event::CollectionEnd(e) => {
                self.hist.record(e.gc_cycles);
                // If the begin bracket was dropped (ring overflow),
                // reconstruct the start from the end-side fields.
                let start = self
                    .open
                    .take()
                    .unwrap_or_else(|| e.end_cycles.saturating_sub(e.gc_cycles));
                self.pauses.push((start, e.end_cycles));
                self.horizon = self.horizon.max(e.end_cycles);
            }
            _ => {}
        }
    }

    /// Builds metrics from a complete event slice.
    pub fn from_events(events: &[Event]) -> PauseMetrics {
        let mut m = PauseMetrics::new();
        for e in events {
            m.observe(e);
        }
        m
    }

    /// Records a pause bracket directly (used by JSONL readers that parse
    /// lines without reconstructing `Event` values).
    pub fn push_pause(&mut self, start_cycles: u64, end_cycles: u64, gc_cycles: u64) {
        self.hist.record(gc_cycles);
        self.pauses.push((start_cycles, end_cycles));
        self.horizon = self.horizon.max(end_cycles);
    }

    /// Extends the timeline horizon past the last pause (e.g. to the
    /// run's final client+GC cycle total) so trailing mutator time counts
    /// toward utilization.
    pub fn set_horizon(&mut self, cycles: u64) {
        self.horizon = self.horizon.max(cycles);
    }

    /// The pause histogram.
    pub fn histogram(&self) -> &PauseHistogram {
        &self.hist
    }

    /// The timeline horizon (largest cycle position seen).
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Number of recorded pauses.
    pub fn pause_count(&self) -> usize {
        self.pauses.len()
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

/// Streaming time-to-safepoint accumulator: a [`PauseHistogram`] over
/// the `ttsp_cycles` field of `collection-begin` events.
///
/// TTSP is observational — it measures how far (in client cycles) each
/// collection landed from the mutator's last safepoint poll, and charges
/// nothing. Consumers construct this only when TTSP tracking was on for
/// the run; a zero observation is legitimate (the collection hit exactly
/// at a poll) and is recorded, even though the JSONL sink omits the
/// field for zero.
#[derive(Clone, Debug, Default)]
pub struct TtspMetrics {
    hist: PauseHistogram,
}

impl TtspMetrics {
    /// An empty accumulator.
    pub fn new() -> TtspMetrics {
        TtspMetrics::default()
    }

    /// Feeds one event. Only `collection-begin` matters.
    pub fn observe(&mut self, event: &Event) {
        if let Event::CollectionBegin(b) = event {
            self.hist.record(b.ttsp_cycles);
        }
    }

    /// Builds metrics from a complete event slice.
    pub fn from_events(events: &[Event]) -> TtspMetrics {
        let mut m = TtspMetrics::new();
        for e in events {
            m.observe(e);
        }
        m
    }

    /// Records one TTSP observation directly (used by JSONL readers; an
    /// omitted `ttsp_cycles` field reads as 0).
    pub fn push(&mut self, ttsp_cycles: u64) {
        self.hist.record(ttsp_cycles);
    }

    /// Folds another run's TTSP histogram into this one (multi-benchmark
    /// aggregation, mirroring [`PauseHistogram::merge`]).
    pub fn merge(&mut self, other: &PauseHistogram) {
        self.hist.merge(other);
    }

    /// The TTSP histogram.
    pub fn histogram(&self) -> &PauseHistogram {
        &self.hist
    }
}

/// One violated SLO bound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloViolation {
    /// Human-readable name of the violated bound, e.g. `"pause p99"` or
    /// `"MMU@1500000"`.
    pub metric: String,
    /// The observed value (cycles for pauses, permille for MMU).
    pub actual: u64,
    /// The configured bound it crossed.
    pub bound: u64,
}

impl std::fmt::Display for SloViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: actual {} violates bound {}",
            self.metric, self.actual, self.bound
        )
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
    /// Whether any bound is configured at all.
    pub fn is_empty(&self) -> bool {
        self.max_pause.is_empty() && self.min_mmu.is_empty()
    }

    /// Evaluates the spec against measured metrics, returning every
    /// violated bound (empty = pass).
    pub fn evaluate(&self, metrics: &PauseMetrics) -> Vec<SloViolation> {
        let mut out = Vec::new();
        for &(permille, bound) in &self.max_pause {
            let actual = metrics.histogram().percentile(permille);
            if actual > bound {
                out.push(SloViolation {
                    metric: format!("pause p{}", fmt_permille(permille)),
                    actual,
                    bound,
                });
            }
        }
        for &(window, floor) in &self.min_mmu {
            let actual = metrics.mmu(window);
            if actual < floor {
                out.push(SloViolation {
                    metric: format!("MMU@{window}"),
                    actual,
                    bound: floor,
                });
            }
        }
        out
    }
}

/// Formats a permille percentile the conventional way: `500` → `"50"`,
/// `999` → `"99.9"`.
pub fn fmt_permille(permille: u64) -> String {
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

    #[test]
    fn bucket_layout_is_exact_below_16_and_log_above() {
        for v in 0..16u64 {
            assert_eq!(PauseHistogram::bucket_index(v), v as usize);
            assert_eq!(PauseHistogram::bucket_range(v as usize), (v, v));
        }
        // [16, 32) is still exact: one value per sub-bucket.
        for v in 16..32u64 {
            let i = PauseHistogram::bucket_index(v);
            assert_eq!(PauseHistogram::bucket_range(i), (v, v));
        }
        // Octave boundaries.
        assert_eq!(PauseHistogram::bucket_index(32), 32);
        assert_eq!(PauseHistogram::bucket_range(32), (32, 33));
        assert_eq!(PauseHistogram::bucket_index(33), 32);
        assert_eq!(PauseHistogram::bucket_index(u64::MAX), PAUSE_BUCKETS - 1);
        // Every bucket's range round-trips through bucket_index.
        for i in 0..PAUSE_BUCKETS {
            let (low, high) = PauseHistogram::bucket_range(i);
            assert_eq!(PauseHistogram::bucket_index(low), i, "low of {i}");
            assert_eq!(PauseHistogram::bucket_index(high), i, "high of {i}");
        }
        // Relative error bound: bucket width <= low / 16.
        for i in SUB_BUCKETS..PAUSE_BUCKETS {
            let (low, high) = PauseHistogram::bucket_range(i);
            assert!((high - low) <= low / 16, "bucket {i} too wide");
        }
    }

    #[test]
    fn percentiles_are_exact_ranks() {
        let mut h = PauseHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        // p50 covers rank 50 → value 50; bucket [48,51] upper edge is 51.
        let p50 = h.percentile(500);
        assert!((50..=51).contains(&p50), "p50 = {p50}");
        assert_eq!(h.percentile(1000), 100, "p100 is the exact max");
        assert_eq!(h.percentile(10), 1, "p1 is the exact min");
        // Quantization error within the documented 6.25% bound.
        let p90 = h.percentile(900);
        assert!((90..=95).contains(&p90), "p90 = {p90}");
    }

    #[test]
    fn percentile_is_byte_stable_under_merge_order() {
        let mut a = PauseHistogram::new();
        let mut b = PauseHistogram::new();
        let mut whole = PauseHistogram::new();
        for v in [3u64, 17, 17, 400, 9000, 123_456, 3] {
            whole.record(v);
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
        for p in [0, 10, 500, 900, 990, 999, 1000] {
            assert_eq!(ab.percentile(p), whole.percentile(p));
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = PauseHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(500), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
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
        assert_eq!(m.pause_count(), 2);
        assert_eq!(m.histogram().count(), 2);
        assert_eq!(m.histogram().sum(), 150);
        assert_eq!(m.horizon(), 400);
        // Whole-run utilization: 150 pause cycles of 400 → 625 permille.
        assert_eq!(m.mmu(400), 625);
        assert_eq!(m.mmu(1000), 625, "window past horizon clamps");
    }

    #[test]
    fn pause_metrics_reconstructs_dropped_begin() {
        // End event with no preceding begin (ring dropped it).
        let m = PauseMetrics::from_events(&[end_event(5, 70, 1000)]);
        assert_eq!(m.pause_count(), 1);
        assert_eq!(m.mmu(1000), 930);
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
        let mut m = TtspMetrics::new();
        m.observe(&ttsp);
        if let Event::CollectionBegin(b) = &mut ttsp {
            b.collection = 2;
            b.ttsp_cycles = 0;
        }
        m.observe(&ttsp);
        m.push(10);
        assert_eq!(m.histogram().count(), 3);
        assert_eq!(m.histogram().sum(), 50);
        assert_eq!(m.histogram().max(), 40);
        assert_eq!(m.histogram().min(), 0, "zero TTSP is a real observation");
        // Non-begin events are ignored.
        m.observe(&end_event(2, 5, 200));
        assert_eq!(m.histogram().count(), 3);
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
        let violations = spec.evaluate(&m);
        assert_eq!(violations.len(), 2);
        assert_eq!(violations[0].metric, "pause p99.9");
        assert!(violations[0].actual > 50);
        assert_eq!(violations[1].metric, "MMU@200");
        assert_eq!(violations[1].bound, 900);
        assert!(SloSpec::default().evaluate(&m).is_empty());
        assert!(SloSpec::default().is_empty());
        assert_eq!(fmt_permille(500), "50");
        assert_eq!(fmt_permille(999), "99.9");
        assert_eq!(
            violations[1].to_string(),
            format!(
                "MMU@200: actual {} violates bound 900",
                violations[1].actual
            )
        );
    }
}
