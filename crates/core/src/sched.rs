//! The bounded work queue under the serve scheduler.
//!
//! [`TaskQueue`] is the single synchronization object the worker pool in
//! [`crate::serve`] coordinates through. It is generic and public for one
//! reason: the `--cfg loom` model-checking suite (`tests/loom_serve.rs`)
//! drives it directly, exhaustively exploring thread interleavings to
//! prove the properties the serve layer relies on:
//!
//! - **No lost wakeups** — a [`TaskQueue::push`] racing a sleeping
//!   [`TaskQueue::next`] always wakes it; a retry pushed by the last
//!   running worker cannot strand a sleeper.
//! - **No lost wakeups on shed** — a rejected [`TaskQueue::offer`]
//!   settles its unit, and that settlement wakes sleepers exactly like a
//!   completed task would: capacity rejection cannot strand a worker.
//! - **Termination** — workers exit exactly when the queue is empty *and*
//!   every admitted unit of work has settled. An executing task may still
//!   push follow-up tasks, so an empty queue alone is **not** termination:
//!   the `outstanding` settlement counter closes that race.
//! - **No deadlock on pool exhaustion** — any number of workers over any
//!   number of tasks drains without wedging, including workers that go to
//!   sleep before the first push, and including deferred (backed-off)
//!   tasks whose release the fast-forward rule promotes when the main
//!   queue runs dry.
//!
//! The queue is built on the [`mc_sync`] shim, so an ordinary build uses
//! `std::sync` while the loom build swaps in model-checked primitives.
//! This file is the **only** sanctioned construction site of a raw
//! `VecDeque` work queue in the workspace — `xtask analyze`'s
//! `no-unbounded-queue` rule (allowlisted here) pushes every other queue
//! through this bounded, settlement-counted type.

use std::collections::VecDeque;

use mc_sync::{Condvar, Mutex};

/// A FIFO task queue with settlement-counted termination, an optional
/// capacity bound, and deferred (backed-off) entries.
///
/// `outstanding` counts admitted units of work that have not yet settled.
/// Executing a task may [`push`](TaskQueue::push) follow-ups (retries) at
/// the same settlement unit, defer them ([`push_deferred`](TaskQueue::push_deferred)),
/// or [`settle_one`](TaskQueue::settle_one) to retire the unit.
/// [`next`](TaskQueue::next) blocks while the queue is empty but work is
/// still outstanding, and returns `None` once `outstanding` reaches zero —
/// at which point every worker drains out.
#[derive(Debug)]
pub struct TaskQueue<T> {
    state: Mutex<QueueState<T>>,
    cv: Condvar,
}

#[derive(Debug)]
struct QueueState<T> {
    tasks: VecDeque<T>,
    /// Settlement units not yet retired; workers exit when the queue is
    /// empty *and* this reaches zero (an executing task may still push
    /// retries, so an empty queue alone is not termination).
    outstanding: usize,
    /// Hard bound on queued (non-deferred) tasks; [`TaskQueue::offer`]
    /// rejects beyond it. `None` = unbounded (retries always fit).
    capacity: Option<usize>,
    /// Monotone count of tasks handed out by [`TaskQueue::next`] — the
    /// logical dispatch clock deferred releases are keyed to.
    dispatched: u64,
    /// Backed-off tasks and the dispatch count at which each releases,
    /// in insertion order.
    deferred: Vec<(u64, T)>,
}

impl<T> QueueState<T> {
    /// Moves every due deferred task onto the main queue, preserving
    /// insertion order among equals.
    fn release_due(&mut self) {
        let mut i = 0;
        while i < self.deferred.len() {
            if self.deferred[i].0 <= self.dispatched {
                let (_, task) = self.deferred.remove(i);
                self.tasks.push_back(task);
            } else {
                i += 1;
            }
        }
    }

    /// The fast-forward rule: when the main queue is dry but deferred
    /// work exists, jump the dispatch clock to the earliest release
    /// instead of sleeping forever — backoff defers retries relative to
    /// *other queued work*, and with nothing else queued there is nothing
    /// left to defer behind.
    fn fast_forward(&mut self) {
        if let Some(&(release, _)) = self.deferred.iter().min_by_key(|&&(release, _)| release) {
            self.dispatched = self.dispatched.max(release);
        }
    }
}

impl<T> TaskQueue<T> {
    /// A queue seeded with `tasks`, expecting `outstanding` settlements.
    ///
    /// `outstanding` may exceed `tasks.len()` when some units start
    /// mid-flight, but every unit must eventually settle exactly once or
    /// [`next`](TaskQueue::next) never returns `None`.
    pub fn new(tasks: Vec<T>, outstanding: usize) -> Self {
        Self::bounded(tasks, outstanding, None)
    }

    /// [`TaskQueue::new`] with a capacity bound enforced by
    /// [`TaskQueue::offer`]. The seed is admitted unconditionally — the
    /// bound governs later offers, not the initial batch (admission
    /// shedding happens before the queue is built).
    pub fn bounded(tasks: Vec<T>, outstanding: usize, capacity: Option<usize>) -> Self {
        Self {
            state: Mutex::new(QueueState {
                tasks: tasks.into_iter().collect(),
                outstanding,
                capacity,
                dispatched: 0,
                deferred: Vec::new(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues a task (typically a retry at an existing settlement unit),
    /// waking one sleeping worker. Never bounded: a retry re-uses an
    /// already-admitted settlement unit.
    pub fn push(&self, task: T) {
        let mut st = self.state.lock().expect("queue lock");
        st.tasks.push_back(task);
        self.cv.notify_one();
    }

    /// Offers a task against the capacity bound: `false` means the queue
    /// is full and the task was **not** admitted — the caller must shed
    /// it and settle its unit itself (typically via
    /// [`settle_one`](TaskQueue::settle_one), whose wakeup keeps sleepers
    /// from stranding). Unbounded queues admit everything.
    #[must_use]
    pub fn offer(&self, task: T) -> bool {
        let mut st = self.state.lock().expect("queue lock");
        if let Some(cap) = st.capacity {
            if st.tasks.len() >= cap {
                return false;
            }
        }
        st.tasks.push_back(task);
        self.cv.notify_one();
        true
    }

    /// Enqueues a task that only becomes eligible after `delay` more
    /// dispatches (bounded-backoff retries). `delay == 0` is
    /// [`push`](TaskQueue::push). The delay is logical — measured on the
    /// dispatch clock, not wall time — and collapses when the queue runs
    /// dry (see the fast-forward rule), so backoff reorders work but
    /// never wedges the pool.
    pub fn push_deferred(&self, task: T, delay: u64) {
        let mut st = self.state.lock().expect("queue lock");
        if delay == 0 {
            st.tasks.push_back(task);
        } else {
            let release = st.dispatched.saturating_add(delay);
            st.deferred.push((release, task));
        }
        self.cv.notify_one();
    }

    /// Retires one settlement unit; when the last unit settles, every
    /// sleeping worker is woken so it can observe termination.
    pub fn settle_one(&self) {
        let mut st = self.state.lock().expect("queue lock");
        st.outstanding -= 1;
        if st.outstanding == 0 {
            self.cv.notify_all();
        }
    }

    /// The next task, blocking while the queue is empty but settlements
    /// are outstanding; `None` once everything has settled.
    pub fn next(&self) -> Option<T> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            st.release_due();
            if let Some(task) = st.tasks.pop_front() {
                st.dispatched += 1;
                return Some(task);
            }
            if st.outstanding == 0 {
                return None;
            }
            if !st.deferred.is_empty() {
                st.fast_forward();
                continue;
            }
            st = self.cv.wait(st).expect("queue lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn drains_fifo_then_terminates() {
        let queue = TaskQueue::new(vec![1, 2, 3], 3);
        assert_eq!(queue.next(), Some(1));
        queue.settle_one();
        assert_eq!(queue.next(), Some(2));
        queue.settle_one();
        assert_eq!(queue.next(), Some(3));
        queue.settle_one();
        assert_eq!(queue.next(), None);
        assert_eq!(queue.next(), None, "termination is sticky");
    }

    #[test]
    fn retry_extends_a_settlement_unit() {
        let queue = TaskQueue::new(vec!["first"], 1);
        assert_eq!(queue.next(), Some("first"));
        queue.push("retry");
        assert_eq!(queue.next(), Some("retry"));
        queue.settle_one();
        assert_eq!(queue.next(), None);
    }

    #[test]
    fn workers_drain_concurrently() {
        let queue = TaskQueue::new((0..64).collect(), 64);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    while let Some(task) = queue.next() {
                        if task % 8 == 0 {
                            queue.push(task + 1001);
                        } else {
                            done.fetch_add(1, Ordering::Relaxed);
                            queue.settle_one();
                        }
                    }
                });
            }
        });
        // 64 originals; the 8 multiples of 8 each re-queued one retry that
        // settled in their place.
        assert_eq!(done.load(Ordering::Relaxed), 64);
        assert_eq!(queue.next(), None);
    }

    #[test]
    fn offer_rejects_over_capacity_and_settlement_unblocks() {
        let queue = TaskQueue::bounded(vec![1], 2, Some(1));
        assert!(!queue.offer(2), "at capacity: the offer must be rejected");
        // The caller sheds and settles the rejected unit itself.
        queue.settle_one();
        assert_eq!(queue.next(), Some(1));
        queue.settle_one();
        assert_eq!(queue.next(), None, "shed settlement still counts toward termination");
        // Unbounded queues admit everything.
        let open = TaskQueue::new(vec![0], 3);
        assert!(open.offer(1));
        assert!(open.offer(2));
    }

    #[test]
    fn offer_capacity_frees_as_tasks_dispatch() {
        let queue = TaskQueue::bounded(vec![1, 2], 2, Some(2));
        assert!(!queue.offer(3));
        assert_eq!(queue.next(), Some(1));
        assert!(queue.offer(3), "dispatch frees a slot");
        queue.settle_one();
    }

    #[test]
    fn deferred_tasks_release_after_dispatches() {
        let queue = TaskQueue::new(vec!["a", "b", "c"], 4);
        assert_eq!(queue.next(), Some("a"));
        // Deferred by 2: "b" and "c" dispatch first.
        queue.push_deferred("retry", 2);
        assert_eq!(queue.next(), Some("b"));
        assert_eq!(queue.next(), Some("c"));
        assert_eq!(queue.next(), Some("retry"));
        for _ in 0..4 {
            queue.settle_one();
        }
        assert_eq!(queue.next(), None);
    }

    #[test]
    fn dry_queue_fast_forwards_deferred_work() {
        // Nothing else queued: a huge logical delay must not wedge.
        let queue = TaskQueue::new(vec!["only"], 1);
        assert_eq!(queue.next(), Some("only"));
        queue.push_deferred("retry", 1_000_000);
        assert_eq!(queue.next(), Some("retry"), "fast-forward promotes the earliest deferred");
        queue.settle_one();
        assert_eq!(queue.next(), None);
    }

    #[test]
    fn zero_delay_defer_is_an_ordinary_push() {
        let queue = TaskQueue::new(vec![10], 2);
        queue.push_deferred(20, 0);
        assert_eq!(queue.next(), Some(10));
        assert_eq!(queue.next(), Some(20));
        queue.settle_one();
        queue.settle_one();
        assert_eq!(queue.next(), None);
    }
}
