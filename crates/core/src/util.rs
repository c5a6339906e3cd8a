//! Small helpers shared by the collectors.

use tilgc_obs::TelemetryAcc;
use tilgc_runtime::{CollectReason, CollectionInspection, GcStats};

/// Wire name of a collection trigger, for telemetry events.
pub(crate) fn reason_str(reason: CollectReason) -> &'static str {
    match reason {
        CollectReason::Forced => "forced",
        CollectReason::ForcedMajor => "forced-major",
        CollectReason::AllocFailure => "alloc-failure",
    }
}

/// Builds the telemetry end-of-collection event from the same snapshots
/// the inspection record is derived from, plus the collection's timeline
/// position and the plan's cumulative histograms.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_collection_end(
    before: &GcStats,
    after: &GcStats,
    insp: &CollectionInspection,
    telem: &TelemetryAcc,
    end_cycles: u64,
    wall_ns: u64,
    workers: u64,
    worker_copied_bytes: Vec<u64>,
    chunks_owned: u64,
    side_cleared_words: u64,
) -> tilgc_obs::CollectionEnd {
    tilgc_obs::CollectionEnd {
        collection: insp.collection,
        major: insp.was_major,
        depth: insp.depth_at_gc,
        claimed_prefix: insp.claimed_prefix,
        oracle_prefix: insp.oracle_prefix,
        copied_bytes: insp.copied_bytes,
        scanned_words: insp.scanned_words,
        pretenured_scanned_words: insp.pretenured_scanned_words,
        roots_found: insp.roots_found,
        frames_scanned: insp.frames_scanned,
        frames_reused: insp.frames_reused,
        slots_scanned: after.slots_scanned - before.slots_scanned,
        barrier_entries: after.barrier_entries - before.barrier_entries,
        markers_placed: after.markers_placed - before.markers_placed,
        gc_cycles: after.gc_cycles() - before.gc_cycles(),
        end_cycles,
        live_bytes_after: insp.live_bytes_after,
        wall_ns,
        size_hist: telem.size_hist,
        depth_hist: telem.depth_hist,
        workers,
        worker_copied_bytes,
        chunks_owned,
        side_cleared_words,
    }
}

/// Builds the post-collection inspection record from the cumulative
/// stats snapshot taken at the start of the collection (`before`), the
/// stats at its end (`after`), and the scan's prefix claims
/// (`claimed_prefix`, `oracle_prefix` from the
/// [`ScanOutcome`](crate::ScanOutcome)).
pub(crate) fn build_inspection(
    before: &GcStats,
    after: &GcStats,
    was_major: bool,
    depth_at_gc: usize,
    live_accounting_complete: bool,
    scan_claim: (usize, usize),
) -> CollectionInspection {
    CollectionInspection {
        collection: after.collections,
        was_major,
        depth_at_gc: depth_at_gc as u64,
        live_bytes_after: after.last_live_bytes,
        live_accounting_complete,
        copied_bytes: after.copied_bytes - before.copied_bytes,
        scanned_words: after.scanned_words - before.scanned_words,
        pretenured_scanned_words: after.pretenured_scanned_words - before.pretenured_scanned_words,
        roots_found: after.roots_found - before.roots_found,
        frames_scanned: after.frames_scanned - before.frames_scanned,
        frames_reused: after.frames_reused - before.frames_reused,
        claimed_prefix: scan_claim.0 as u64,
        oracle_prefix: scan_claim.1 as u64,
    }
}
