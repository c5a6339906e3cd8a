//! The work-packet scheduler for parallel collection (MMTk-style).
//!
//! A parallel collection fans out exactly one step, the
//! transitive-closure drain: the gray objects the serial steps queued
//! are split into packets on a shared [`PacketQueue`], `workers` threads
//! pull and scan them, and each scan's newly discovered gray objects go
//! back on the queue as fresh packets. Root forwarding and store-buffer
//! filtering are serial on every lane, by measurement: §5 makes the root
//! set of a minor collection tiny and the store buffer arrives sorted
//! and deduplicated, so a thread round around either cost several times
//! the work it split (EXPERIMENTS.md, *Parallel scaling*). Their copies
//! are attributed to worker 0 and seed the drain.
//!
//! **Packet lifecycle.** A packet is a `Vec` of up to
//! [`PACKET_OBJECTS`] gray objects. The drain is *generative* —
//! scanning a packet produces new packets — so it needs termination
//! detection: a worker that finds the queue empty parks on the queue's
//! condvar; when every worker is parked the queue flips to `done` and
//! all workers return ([`PacketQueue::pop_worker`]).
//!
//! **Copy allocation.** Workers never contend on the to-space bump
//! pointer: each holds a [`WorkerCopyAlloc`] that carves
//! [`CHUNK_WORDS`]-sized chunks off a [`SharedCursor`] (one CAS per
//! chunk) and bump-allocates copies inside its current chunk. Abandoned
//! chunk tails are *slack* — dead words below the frontier, excluded
//! from live accounting via [`Space::note_slack`](tilgc_mem::Space::note_slack).
//!
//! **Object forwarding** uses a claim/publish protocol over the atomic
//! memory view ([`SharedMemView`](tilgc_mem::SharedMemView)): CAS the
//! from-space header to the busy sentinel, copy the payload, then
//! release-publish the forwarding header. Losers spin until the
//! forwarding pointer appears. The protocol lives in the evacuator's
//! parallel drain (`evac.rs`); this module provides the scheduling
//! primitives.
//!
//! **Determinism contract.** `workers = 1` never enters this module:
//! the plans fall back to the serial Cheney lane, whose every counter
//! and golden output is byte-identical to the pre-parallel collector —
//! the *oracle* the differential tests and the torture harness compare
//! parallel lanes against. A parallel collection copies the same object
//! set and charges the same simulated cycles (worker deltas are merged
//! in worker-index order), but physical addresses and telemetry event
//! order may differ.
//!
//! **Serial fallback.** Parallel collection needs to-space headroom for
//! per-worker chunk slack. Plans engage it only when the destination
//! has `from_used + workers × 2 × CHUNK_WORDS` words free
//! ([`slack_budget_words`]); tight-heap collections (and collections
//! using profiling or a tenure threshold) run on the serial lane.
//!
//! **Fault tolerance.** Each worker's packet loop runs inside
//! `catch_unwind`; a panicking worker rolls back its in-progress
//! forwarding claim ([`PendingClaim`]), returns its in-flight packet to
//! the queue ([`PacketQueue::fail`]), and retires. A watchdog on the
//! coordinator marks unresponsive workers lost
//! ([`PacketQueue::mark_lost`]) on a wall-clock deadline, and workers
//! retire themselves when a per-worker simulated-cycle budget
//! ([`CycleBudget`]) is exceeded. Once losses reach the queue's
//! threshold the queue closes and the coordinator drains every
//! remaining packet on the exact serial path — the collection always
//! terminates with the serial oracle's answer (see
//! `Evacuator::par_section`). All queue locking recovers from
//! `PoisonError`, so no panic can wedge the pool.

mod alloc;
mod fault;
mod queue;

pub use alloc::{SharedCursor, WorkerCopyAlloc, CHUNK_WORDS};
pub use fault::{CycleBudget, SectionFaults, WorkerFaultKind, WorkerFaultSpec};
pub use queue::PacketQueue;

use tilgc_mem::Addr;

/// Maximum work items per packet. Small enough to balance load across
/// workers, large enough to amortize queue locking.
pub const PACKET_OBJECTS: usize = 64;

/// To-space headroom a parallel collection reserves beyond the
/// from-space live bound: room for every worker to hold a full chunk
/// plus a chunk of accumulated tail slack. Collections without this
/// headroom fall back to the serial lane.
pub fn slack_budget_words(workers: usize) -> usize {
    workers * 2 * CHUNK_WORDS
}

/// Splits `items` into packets of at most [`PACKET_OBJECTS`] items.
pub fn packetize<T>(items: Vec<T>) -> Vec<Vec<T>> {
    let mut packets = Vec::with_capacity(items.len().div_ceil(PACKET_OBJECTS).max(1));
    let mut it = items.into_iter();
    loop {
        let packet: Vec<T> = it.by_ref().take(PACKET_OBJECTS).collect();
        if packet.is_empty() {
            break;
        }
        packets.push(packet);
    }
    packets
}

/// Deterministically permutes packet order — the torture harness's
/// packet-reorder injection. A correct scheduler produces the same
/// reachable heap under any packet order, so this knob flushes hidden
/// ordering assumptions without changing what work is done.
pub fn reorder_packets<T>(packets: &mut [T]) {
    packets.reverse();
    // Interleave halves: [a b c d e f] -> [f e d c b a] -> [f d b a c e]
    // (a fixed shuffle is as good as a random one for order-independence
    // checks, and keeps the lane reproducible).
    let n = packets.len();
    for i in (1..n / 2).step_by(2) {
        packets.swap(i, n - 1 - i);
    }
}

/// One worker's private accounting for the parallel drain, merged into
/// `GcStats` (in worker-index order) after the workers join. Keeping
/// the charges out of the shared state makes the merged totals
/// identical to the serial lane's regardless of interleaving.
#[derive(Debug, Default)]
pub struct WorkerDelta {
    /// Bytes this worker copied.
    pub copied_bytes: u64,
    /// Simulated copy cycles (`copy_per_word` × words copied).
    pub copy_cycles: u64,
    /// Words this worker Cheney-scanned (gray-object scans).
    pub scanned_words: u64,
    /// Scan cycles (`scan_per_word` × words scanned).
    pub scan_cycles: u64,
    /// Gray objects the current packet's scans discovered, pushed back
    /// as fresh packets before the packet completes; what a failed
    /// worker leaves here goes to the coordinator's serial drain.
    pub gray: Vec<Addr>,
    /// Deferred telemetry: (site, bytes, from_nursery) per copy, fed to
    /// the accumulator after the join (host-side only, order-free).
    pub telem_copies: Vec<(u16, u64, bool)>,
    /// Abandoned chunk-tail words, folded into the space's slack.
    pub tail_slack: usize,
    /// The claim currently held by this worker's forward-in-progress
    /// (between the BUSY CAS and the forwarding publish). If the worker
    /// unwinds here, the coordinator rolls the claim back by
    /// republishing the original header (losers spinning on BUSY then
    /// re-claim) and refunds the copy destination as slack.
    pub pending_claim: Option<PendingClaim>,
}

/// One in-progress claim of the claim/publish forwarding protocol, kept
/// in [`WorkerDelta`] so a caught panic can roll it back.
#[derive(Debug, Clone, Copy)]
pub struct PendingClaim {
    /// The claimed from-space object (its header holds the BUSY
    /// sentinel).
    pub addr: Addr,
    /// The header word the claim replaced, republished on rollback.
    pub original: u64,
    /// Words already allocated for the copy destination (0 until the
    /// allocation succeeds); refunded as chunk slack on rollback.
    pub dest_words: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packetize_bounds_packet_size() {
        let packets = packetize((0..150).collect::<Vec<u32>>());
        assert_eq!(packets.len(), 3);
        assert!(packets.iter().all(|p| p.len() <= PACKET_OBJECTS));
        let flat: Vec<u32> = packets.into_iter().flatten().collect();
        assert_eq!(flat, (0..150).collect::<Vec<u32>>());
        assert!(packetize(Vec::<u32>::new()).is_empty());
    }

    #[test]
    fn reorder_preserves_the_packet_set() {
        let mut p: Vec<u32> = (0..7).collect();
        reorder_packets(&mut p);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<u32>>());
        assert_ne!(p, (0..7).collect::<Vec<u32>>(), "order actually changed");
    }
}
