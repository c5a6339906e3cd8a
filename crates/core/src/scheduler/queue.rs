//! The shared packet queue with idle-worker termination detection and
//! fault-tolerant worker retirement.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the guard from a poisoned lock instead of
/// propagating the panic. Every invariant the queue protects is
/// re-checked on each operation (the state is a plain work list plus
/// counters, never left half-updated across an unwind point), so a
/// poisoned lock carries no torn state — recovery is always safe here.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One worker's claimed-but-unfinished packets: the clone requeued if
/// the worker is lost, plus the claim time the watchdog ages against.
struct InFlight<T> {
    packet: T,
    since: Instant,
}

struct State<T> {
    packets: VecDeque<T>,
    idle: usize,
    /// Workers still participating (started minus lost/failed).
    live: usize,
    done: bool,
    /// Per-worker stacks of in-flight packets (clones kept so a lost
    /// worker's claimed work can be recovered).
    in_flight: Vec<Vec<InFlight<T>>>,
    /// Per-worker lost flags: a lost worker's pops return `None` and
    /// its completions are ignored.
    lost: Vec<bool>,
    /// Per-worker memo of the packets retirement requeued, so a *late*
    /// completion from a spuriously-lost worker can retract the
    /// still-queued duplicate.
    lost_requeued: Vec<Vec<T>>,
    /// Total workers lost; reaching `loss_threshold` closes the queue
    /// (remaining packets become leftovers for the serial path).
    lost_count: usize,
    loss_threshold: usize,
}

/// A blocking MPMC queue of work packets for one parallel drain.
///
/// Termination is the classic idle-count protocol: a worker that finds
/// the queue empty parks on the condvar; when every *live* worker is
/// parked at once no packet can ever appear again (only workers push),
/// so the last one to park flips `done` and wakes everyone.
///
/// **Fault tolerance.** [`pop_worker`](Self::pop_worker) records a
/// clone of the popped packet in the worker's in-flight slot;
/// [`complete`](Self::complete) discharges it. A worker that panics
/// calls [`fail`](Self::fail) (requeue in-flight work, retire); the
/// watchdog retires an unresponsive worker with
/// [`mark_lost`](Self::mark_lost). Retirement shrinks the live count so
/// the idle-count termination still fires, and once losses reach the
/// queue's threshold the queue closes — whatever work remains is
/// handed to the coordinator via
/// [`take_leftovers`](Self::take_leftovers) for the serial
/// (degradation) path. All locking recovers from poison: a panicking
/// worker can never wedge the pool.
pub struct PacketQueue<T> {
    state: Mutex<State<T>>,
    cond: Condvar,
    workers: usize,
}

impl<T: Clone> PacketQueue<T> {
    /// Creates a queue drained by `workers` poppers, closing after the
    /// first lost worker (the conservative degradation threshold: any
    /// loss hands the remaining packets to the exact serial path).
    pub fn new(workers: usize) -> PacketQueue<T> {
        PacketQueue::with_loss_threshold(workers, 1)
    }

    /// Creates a queue that tolerates `loss_threshold - 1` lost workers
    /// before closing.
    pub fn with_loss_threshold(workers: usize, loss_threshold: usize) -> PacketQueue<T> {
        assert!(workers > 0, "queue needs at least one worker");
        assert!(loss_threshold > 0, "a zero threshold would never open");
        PacketQueue {
            state: Mutex::new(State {
                packets: VecDeque::new(),
                idle: 0,
                live: workers,
                done: false,
                in_flight: (0..workers).map(|_| Vec::new()).collect(),
                lost: vec![false; workers],
                lost_requeued: (0..workers).map(|_| Vec::new()).collect(),
                lost_count: 0,
                loss_threshold,
            }),
            cond: Condvar::new(),
            workers,
        }
    }

    /// Seeds the queue before the workers start.
    pub fn seed(&self, packets: impl IntoIterator<Item = T>) {
        let mut st = lock_recover(&self.state);
        st.packets.extend(packets);
    }

    /// Pushes a freshly generated packet and wakes one parked worker.
    pub fn push(&self, packet: T) {
        let mut st = lock_recover(&self.state);
        st.packets.push_back(packet);
        drop(st);
        self.cond.notify_one();
    }

    /// Pops the next packet for worker `w`, blocking while the queue is
    /// empty but some worker is still active (and might generate more).
    /// Returns `None` once every live worker is idle — the drain is
    /// complete — or immediately if the worker has been marked lost.
    ///
    /// A clone of the packet is recorded in the worker's in-flight slot
    /// so the work survives if the worker is lost before calling
    /// [`complete`](Self::complete).
    ///
    /// `from_back` drains LIFO instead of FIFO; the packet-reorder
    /// fault injection gives odd-numbered workers a back-draining pop
    /// to shake out ordering assumptions.
    pub fn pop_worker(&self, w: usize, from_back: bool) -> Option<T> {
        let mut st = lock_recover(&self.state);
        loop {
            if st.done || st.lost[w] {
                return None;
            }
            let packet = if from_back {
                st.packets.pop_back()
            } else {
                st.packets.pop_front()
            };
            if let Some(p) = packet {
                st.in_flight[w].push(InFlight {
                    packet: p.clone(),
                    since: Instant::now(),
                });
                return Some(p);
            }
            st.idle += 1;
            if st.idle >= st.live {
                st.done = true;
                drop(st);
                self.cond.notify_all();
                return None;
            }
            st = self
                .cond
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            st.idle -= 1;
        }
    }

    /// Retires worker `w` after a caught panic: its in-flight packets
    /// return to the queue (newest first, so re-execution order matches
    /// a LIFO unwind) and the live count shrinks so termination still
    /// fires. Reaching the loss threshold closes the queue. Idempotent.
    pub fn fail(&self, w: usize) {
        self.retire(w);
    }

    /// The watchdog's retirement path for a worker that stopped
    /// responding: identical to [`fail`](Self::fail), but called from
    /// the coordinator. The worker's future pops return `None` and its
    /// late completions are ignored.
    pub fn mark_lost(&self, w: usize) {
        self.retire(w);
    }

    fn retire(&self, w: usize) {
        let mut st = lock_recover(&self.state);
        if st.lost[w] {
            return;
        }
        st.lost[w] = true;
        st.lost_count += 1;
        st.live -= 1;
        let requeued: Vec<T> = st.in_flight[w].drain(..).rev().map(|f| f.packet).collect();
        for p in requeued {
            st.lost_requeued[w].push(p.clone());
            st.packets.push_back(p);
        }
        if st.lost_count >= st.loss_threshold || st.idle >= st.live {
            st.done = true;
        }
        drop(st);
        self.cond.notify_all();
    }

    /// Whether the queue has terminated (drained, or past the loss
    /// threshold).
    pub fn is_done(&self) -> bool {
        lock_recover(&self.state).done
    }

    /// Live (not-lost) workers whose oldest in-flight packet is older
    /// than `deadline` — the watchdog's wall-clock staleness scan.
    pub fn stale_workers(&self, deadline: Duration) -> Vec<usize> {
        let st = lock_recover(&self.state);
        let now = Instant::now();
        (0..self.workers)
            .filter(|&w| {
                !st.lost[w]
                    && st.in_flight[w]
                        .first()
                        .is_some_and(|f| now.duration_since(f.since) >= deadline)
            })
            .collect()
    }

    /// Drains everything the workers left behind — queued packets plus
    /// any orphaned in-flight entries (a worker that popped but never
    /// completed nor failed) — for the coordinator's serial drain.
    /// Call after the workers have joined.
    pub fn take_leftovers(&self) -> Vec<T> {
        let mut st = lock_recover(&self.state);
        let mut left: Vec<T> = st.packets.drain(..).collect();
        for w in 0..self.workers {
            left.extend(st.in_flight[w].drain(..).map(|f| f.packet));
        }
        left
    }
}

impl<T: Clone + PartialEq> PacketQueue<T> {
    /// Discharges worker `w`'s most recent in-flight packet after it
    /// was fully processed. If the worker was marked lost mid-packet
    /// (a spurious watchdog firing), the requeued duplicate is removed
    /// from the queue when still present, narrowing the double-work
    /// window to packets another worker already took.
    pub fn complete(&self, w: usize) {
        let mut st = lock_recover(&self.state);
        if st.lost[w] {
            // Retirement drained the slot and requeued its packets; the
            // one this late completion discharges is the newest memo
            // entry. Retract the duplicate if no one has re-taken it.
            if let Some(p) = st.lost_requeued[w].pop() {
                if let Some(pos) = st.packets.iter().position(|q| *q == p) {
                    st.packets.remove(pos);
                }
            }
            return;
        }
        assert!(
            st.in_flight[w].pop().is_some(),
            "complete({w}) without a matching pop_worker"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Packets currently queued.
    fn queued<T>(q: &PacketQueue<T>) -> usize {
        lock_recover(&q.state).packets.len()
    }

    #[test]
    fn single_worker_drains_and_terminates() {
        let q: PacketQueue<u32> = PacketQueue::new(1);
        q.seed([1, 2, 3]);
        for expect in 1..=3 {
            assert_eq!(q.pop_worker(0, false), Some(expect));
            q.complete(0);
        }
        assert_eq!(
            q.pop_worker(0, false),
            None,
            "idle count hits workers => done"
        );
        assert_eq!(q.pop_worker(0, false), None, "stays done");
    }

    #[test]
    fn back_pop_drains_lifo() {
        let q: PacketQueue<u32> = PacketQueue::new(1);
        q.seed([1, 2, 3]);
        assert_eq!(q.pop_worker(0, true), Some(3));
        q.complete(0);
        assert_eq!(q.pop_worker(0, true), Some(2));
    }

    #[test]
    fn generative_drain_terminates_with_many_workers() {
        // Each packet of value v > 0 generates two packets of v - 1:
        // a tree of 2^v leaves, counted concurrently.
        const WORKERS: usize = 4;
        let q: PacketQueue<u32> = PacketQueue::new(WORKERS);
        q.seed([6]);
        let leaves = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let (q, leaves) = (&q, &leaves);
                s.spawn(move || {
                    while let Some(v) = q.pop_worker(w, w % 2 == 1) {
                        if v == 0 {
                            leaves.fetch_add(1, Ordering::Relaxed);
                        } else {
                            q.push(v - 1);
                            q.push(v - 1);
                        }
                        q.complete(w);
                    }
                });
            }
        });
        assert_eq!(leaves.load(Ordering::Relaxed), 64);
        assert_eq!(queued(&q), 0);
        assert_eq!(
            q.pop_worker(0, false),
            None,
            "terminated queue stays terminated"
        );
        assert!(q.take_leftovers().is_empty(), "nothing in flight remains");
    }

    #[test]
    fn stress_many_rounds_never_hang() {
        // Repeatedly run small generative drains; any missed-wakeup bug
        // in the termination protocol shows up as a hang here.
        for round in 0..200 {
            let q: PacketQueue<u32> = PacketQueue::new(3);
            q.seed([round % 5]);
            let popped = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for w in 0..3 {
                    let (q, popped) = (&q, &popped);
                    s.spawn(move || {
                        while let Some(v) = q.pop_worker(w, w == 1) {
                            popped.fetch_add(1, Ordering::Relaxed);
                            if v > 0 {
                                q.push(v - 1);
                            }
                            q.complete(w);
                        }
                    });
                }
            });
            assert_eq!(popped.load(Ordering::Relaxed) as u32, round % 5 + 1);
        }
    }

    #[test]
    fn failed_worker_requeues_in_flight_and_terminates() {
        // Threshold high enough that one loss does not close the queue:
        // the surviving worker must drain the requeued packet.
        let q: PacketQueue<u32> = PacketQueue::with_loss_threshold(2, 2);
        q.seed([10, 20]);
        assert_eq!(q.pop_worker(0, false), Some(10));
        q.fail(0); // worker 0 dies holding packet 10
        assert_eq!(q.pop_worker(0, false), None, "lost worker pops nothing");
        assert_eq!(q.pop_worker(1, false), Some(20));
        q.complete(1);
        assert_eq!(q.pop_worker(1, false), Some(10), "requeued packet");
        q.complete(1);
        assert_eq!(
            q.pop_worker(1, false),
            None,
            "sole live worker idle => done"
        );
        assert!(q.take_leftovers().is_empty());
    }

    #[test]
    fn loss_threshold_closes_queue_with_leftovers() {
        let q: PacketQueue<u32> = PacketQueue::new(2); // threshold 1
        q.seed([1, 2, 3]);
        assert_eq!(q.pop_worker(0, false), Some(1));
        q.mark_lost(0);
        assert!(q.is_done(), "first loss closes at the default threshold");
        assert_eq!(q.pop_worker(1, false), None);
        let mut left = q.take_leftovers();
        left.sort_unstable();
        assert_eq!(left, vec![1, 2, 3], "in-flight packet 1 was requeued");
        assert_eq!(lock_recover(&q.state).lost_count, 1);
    }

    #[test]
    fn orphaned_in_flight_surfaces_as_leftover() {
        // A worker that pops but neither completes nor fails (the
        // packet-drop injection) leaves the clone in its slot.
        let q: PacketQueue<u32> = PacketQueue::new(1);
        q.seed([7, 8]);
        assert_eq!(q.pop_worker(0, false), Some(7)); // dropped: no complete
        assert_eq!(q.pop_worker(0, false), Some(8));
        q.complete(0);
        assert_eq!(q.pop_worker(0, false), None);
        assert_eq!(q.take_leftovers(), vec![7], "orphan recovered");
    }

    #[test]
    fn late_completion_of_lost_worker_removes_duplicate() {
        let q: PacketQueue<u32> = PacketQueue::with_loss_threshold(2, 2);
        q.seed([5]);
        assert_eq!(q.pop_worker(0, false), Some(5));
        q.mark_lost(0); // spurious: worker 0 is actually still running
        assert_eq!(queued(&q), 1, "packet requeued");
        q.complete(0); // worker 0 finishes after all
        assert_eq!(queued(&q), 0, "duplicate removed before anyone re-ran it");
    }

    #[test]
    fn stale_worker_scan_finds_old_claims() {
        let q: PacketQueue<u32> = PacketQueue::new(2);
        q.seed([1]);
        assert_eq!(q.pop_worker(1, false), Some(1));
        assert!(q.stale_workers(Duration::from_secs(3600)).is_empty());
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(q.stale_workers(Duration::from_millis(1)), vec![1]);
        q.complete(1);
        assert!(q.stale_workers(Duration::ZERO).is_empty());
    }

    #[test]
    fn poisoned_lock_recovers() {
        // Poison the state mutex from a panicking thread, then verify
        // every entry point still works.
        let q: PacketQueue<u32> = PacketQueue::new(1);
        let qr = &q;
        let _ = std::thread::scope(|s| {
            s.spawn(move || {
                let _guard = qr.state.lock().unwrap();
                panic!("poison the queue");
            })
            .join()
        });
        assert!(q.state.is_poisoned(), "setup: lock actually poisoned");
        q.seed([4]);
        q.push(5);
        assert_eq!(q.pop_worker(0, false), Some(4));
        q.complete(0);
        assert_eq!(queued(&q), 1);
        assert_eq!(q.pop_worker(0, false), Some(5));
    }
}
