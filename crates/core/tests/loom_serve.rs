//! Bounded-exhaustive model checking of the serve scheduler's
//! concurrency core.
//!
//! Runs only under `--cfg loom` (the dedicated CI job):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p multicast-core --test loom_serve --release
//! ```
//!
//! Under that cfg the [`mc_sync`] shim resolves to the [`mc_loom`]
//! primitives, so the *production* [`TaskQueue`] and [`CostLedger`] —
//! not copies — are explored across every thread interleaving the
//! preemption bound admits (`LOOM_MAX_PREEMPTIONS`, default 2). The
//! properties proved here are exactly the ones `crate::serve::run_batch`
//! relies on; see DESIGN.md §8.
#![cfg(loom)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use mc_loom::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use mc_loom::sync::Arc;
use mc_loom::{explore, model, thread};

use mc_lm::cost::InferenceCost;
use mc_lm::metered::CostLedger;
use multicast_core::overload::{BreakerPolicy, BreakerState, CircuitBreaker};
use multicast_core::sched::TaskQueue;

/// Workers racing over a seeded queue: every task is consumed exactly
/// once, every worker terminates, in every interleaving.
#[test]
fn worker_pool_drains_without_lost_tasks_or_deadlock() {
    let stats = explore(|| {
        let queue = Arc::new(TaskQueue::new(vec![0usize, 1, 2], 3));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(task) = queue.next() {
                        seen.push(task);
                        queue.settle_one();
                    }
                    seen
                })
            })
            .collect();
        let mut all: Vec<usize> = Vec::new();
        for w in workers {
            all.extend(w.join().expect("worker"));
        }
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2], "each task settles exactly once");
        assert_eq!(queue.next(), None, "termination is observable after the drain");
    });
    assert!(stats.iterations > 1, "expected schedule exploration, got {stats:?}");
}

/// The termination race the `outstanding` counter exists for: with the
/// queue empty but one task mid-execution, a sleeping worker must not
/// miss the retry that task pushes. A lost `notify` here deadlocks, which
/// the checker reports.
#[test]
fn retry_pushed_while_peer_sleeps_is_not_lost() {
    model(|| {
        let queue = Arc::new(TaskQueue::new(vec![0usize], 1));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut done = 0usize;
                    while let Some(task) = queue.next() {
                        if task == 0 {
                            // First attempt fails validation: re-queue the
                            // retry instead of settling, as run_task does.
                            queue.push(1);
                        } else {
                            done += 1;
                            queue.settle_one();
                        }
                    }
                    done
                })
            })
            .collect();
        let done: usize = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        assert_eq!(done, 1, "the retried sample settles exactly once");
    });
}

/// Task ids of the fit → draw models below, shaped like
/// `serve::run_prepared`'s queue: a context's fit task is seeded ahead
/// of every draw, and its draws only exist once the fit releases them.
const FIT: usize = 0;
const DRAWS: [usize; 2] = [10, 11];
const OTHER: usize = 20;

/// No dependent draw is dequeued before its fit completes: the fit
/// stores its result, then releases its draws at the front of the queue,
/// while a sibling worker races for work — in every interleaving each
/// released draw sees the stored fit, every task runs exactly once and
/// every worker exits.
#[test]
fn no_draw_runs_before_its_fit_completes() {
    model(|| {
        // The fit and one draw of an already-resolved context, plus one
        // settlement per released draw.
        let queue = Arc::new(TaskQueue::new(vec![FIT, OTHER], 2 + DRAWS.len()));
        let fitted = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (queue, fitted) = (Arc::clone(&queue), Arc::clone(&fitted));
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(task) = queue.next() {
                        if task == FIT {
                            fitted.store(true, Ordering::SeqCst);
                            queue.push_front(DRAWS.to_vec());
                        } else if DRAWS.contains(&task) {
                            assert!(
                                fitted.load(Ordering::SeqCst),
                                "draw {task} ran before its fit"
                            );
                        }
                        seen.push(task);
                        queue.settle_one();
                    }
                    seen
                })
            })
            .collect();
        let mut all: Vec<usize> = Vec::new();
        for w in workers {
            all.extend(w.join().expect("worker"));
        }
        all.sort_unstable();
        assert_eq!(all, vec![FIT, DRAWS[0], DRAWS[1], OTHER], "each task runs exactly once");
        assert_eq!(queue.next(), None);
    });
}

/// A failed fit releases no draws and instead settles each dependent
/// sample itself, exactly once, then its own unit: the sibling worker,
/// possibly asleep on the empty queue, still observes termination and
/// every worker exits. One settlement short deadlocks here, which the
/// checker reports; one too many shows in the count.
#[test]
fn failed_fit_settles_each_dependent_once_and_workers_exit() {
    model(|| {
        let queue = Arc::new(TaskQueue::new(vec![FIT, OTHER], 2 + DRAWS.len()));
        let settled_for_fit = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (queue, settled) = (Arc::clone(&queue), Arc::clone(&settled_for_fit));
                thread::spawn(move || {
                    let mut ran = Vec::new();
                    while let Some(task) = queue.next() {
                        if task == FIT {
                            for _ in DRAWS {
                                settled.fetch_add(1, Ordering::SeqCst);
                                queue.settle_one();
                            }
                        } else {
                            ran.push(task);
                        }
                        queue.settle_one();
                    }
                    ran
                })
            })
            .collect();
        let mut ran: Vec<usize> = Vec::new();
        for w in workers {
            ran.extend(w.join().expect("worker"));
        }
        assert_eq!(ran, vec![OTHER], "a failed fit's draws never run");
        assert_eq!(settled_for_fit.load(Ordering::SeqCst), DRAWS.len());
        assert_eq!(queue.next(), None, "termination observable after the drain");
    });
}

/// Draws released at the front wake a sleeping worker: the worker may
/// reach the empty queue (fit dequeued, its draws not yet released) and
/// sleep before the release; a release that did not notify would strand
/// it, which the checker reports as a deadlock.
#[test]
fn released_draws_wake_a_sleeping_worker() {
    model(|| {
        let queue = Arc::new(TaskQueue::new(vec![FIT], 1 + DRAWS.len()));
        assert_eq!(queue.next(), Some(FIT));
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(task) = queue.next() {
                    seen.push(task);
                    queue.settle_one();
                }
                seen
            })
        };
        queue.push_front(DRAWS.to_vec());
        queue.settle_one();
        assert_eq!(worker.join().expect("worker"), DRAWS.to_vec(), "released in order");
    });
}

/// Pool exhaustion: more admitted work than workers still drains — a
/// single worker alone must observe termination after the last settle.
#[test]
fn single_worker_drains_backlog() {
    model(|| {
        let queue = Arc::new(TaskQueue::new(vec![0usize, 1, 2, 3], 4));
        let q = Arc::clone(&queue);
        let worker = thread::spawn(move || {
            let mut done = 0usize;
            while let Some(_task) = q.next() {
                done += 1;
                q.settle_one();
            }
            done
        });
        assert_eq!(worker.join().expect("worker"), 4);
    });
}

/// Panic isolation: a task whose execution panics is caught at the worker
/// (as `serve::finalize` catches resolve panics) and still settles, so
/// the failure resolves to an error without wedging the pool — the
/// sibling worker and the remaining tasks complete in every interleaving.
#[test]
fn panicking_task_settles_without_wedging_the_pool() {
    // The deliberate panics below would otherwise print one backtrace per
    // explored schedule.
    std::panic::set_hook(Box::new(|_| {}));
    model(|| {
        let queue = Arc::new(TaskQueue::new(vec![0usize, 1], 2));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let queue = Arc::clone(&queue);
                thread::spawn(move || {
                    let mut ok = 0usize;
                    let mut failed = 0usize;
                    while let Some(task) = queue.next() {
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            assert!(task != 0, "task 0 is the poisoned request");
                        }));
                        match outcome {
                            Ok(()) => ok += 1,
                            Err(_) => failed += 1,
                        }
                        // Settled either way: a panic resolves the sample
                        // as failed, it does not leak the settlement.
                        queue.settle_one();
                    }
                    (ok, failed)
                })
            })
            .collect();
        let (mut ok, mut failed) = (0, 0);
        for w in workers {
            let (o, f) = w.join().expect("worker");
            ok += o;
            failed += f;
        }
        assert_eq!((ok, failed), (1, 1), "both tasks settle, one as a failure");
        assert_eq!(queue.next(), None);
    });
    let _ = std::panic::take_hook();
}

/// Shedding must not lose wakeups: when a producer's `offer` races a
/// sleeping worker on a bounded queue, either the task is admitted (the
/// worker runs and settles it) or it is rejected and the *producer*
/// settles — in every interleaving the settlement count reaches the
/// outstanding total and the worker observes termination. A dropped
/// rejection (shed without settle) would deadlock here, which the checker
/// reports as a hang.
#[test]
fn shed_offer_never_loses_the_settlement_wakeup() {
    model(|| {
        // Capacity 1, one pre-admitted task, two expected settlements.
        let queue = Arc::new(TaskQueue::bounded(vec![0usize], 2, Some(1)));
        let worker = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                let mut seen = 0usize;
                while let Some(_task) = queue.next() {
                    seen += 1;
                    queue.settle_one();
                }
                seen
            })
        };
        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                if queue.offer(1) {
                    false
                } else {
                    // Rejected at capacity: the producer owns the
                    // settlement, exactly as `ServeHandle::submit` turns a
                    // full queue into an immediate typed outcome.
                    queue.settle_one();
                    true
                }
            })
        };
        let shed = producer.join().expect("producer");
        let seen = worker.join().expect("worker");
        assert_eq!(
            seen + usize::from(shed),
            2,
            "admitted tasks + shed settlements cover every expected settlement"
        );
        assert_eq!(queue.next(), None, "termination observable after the drain");
    });
}

/// Breaker trips are monotone and failure counts are never lost: two
/// workers recording failures concurrently, then a single settle at the
/// flush boundary, must see both failures and trip exactly once — in
/// every interleaving of the atomic counter updates.
#[test]
fn breaker_failure_counts_survive_racing_workers() {
    model(|| {
        let breaker = Arc::new(CircuitBreaker::new());
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let breaker = Arc::clone(&breaker);
                thread::spawn(move || breaker.record(false))
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        // trip_failures: 2 — a lost increment would keep the breaker
        // closed and fail the assertion.
        let policy = BreakerPolicy { trip_failures: 2, cooldown_flushes: 1 };
        let transition = breaker.settle_flush(policy);
        assert!(transition.is_some(), "both failures observed: the breaker trips");
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.trips(), 1, "exactly one trip for one window");
    });
}

/// Cost conservation including rejected requests: a shed submission
/// attributes exactly zero cost, an admitted one attributes exactly what
/// the ledger metered — so attributed == metered holds whichever side of
/// the capacity race each submission lands on.
#[test]
fn rejected_requests_conserve_cost_at_zero() {
    model(|| {
        let queue = Arc::new(TaskQueue::bounded(vec![7usize], 2, Some(1)));
        let ledger = Arc::new(CostLedger::new());
        let worker = {
            let queue = Arc::clone(&queue);
            let ledger = Arc::clone(&ledger);
            thread::spawn(move || {
                let mut attributed = InferenceCost::default();
                while let Some(task) = queue.next() {
                    let cost = InferenceCost {
                        prompt_tokens: 0,
                        generated_tokens: task as u64,
                        work_units: 1,
                    };
                    ledger.record(cost);
                    attributed.absorb(cost);
                    queue.settle_one();
                }
                attributed
            })
        };
        let producer = {
            let queue = Arc::clone(&queue);
            thread::spawn(move || {
                if !queue.offer(9) {
                    // Shed: zero cost, immediate settlement.
                    queue.settle_one();
                }
            })
        };
        producer.join().expect("producer");
        let attributed = worker.join().expect("worker");
        assert_eq!(
            ledger.snapshot(),
            attributed,
            "metered equals attributed; shed submissions contribute exactly zero"
        );
    });
}

/// Cost conservation: concurrent `record` calls from racing sessions
/// never lose tokens — the metered snapshot equals the sum of what each
/// thread attributed locally, across every interleaving of the atomic
/// operations.
#[test]
fn cost_ledger_conserves_attribution_across_interleavings() {
    model(|| {
        let ledger = Arc::new(CostLedger::new());
        let costs = [
            InferenceCost { prompt_tokens: 1, generated_tokens: 3, work_units: 5 },
            InferenceCost { prompt_tokens: 0, generated_tokens: 7, work_units: 11 },
        ];
        let workers: Vec<_> = costs
            .into_iter()
            .map(|cost| {
                let ledger = Arc::clone(&ledger);
                thread::spawn(move || {
                    // What run_task attributes to the request...
                    ledger.record(cost);
                    // ...is exactly what the model boundary metered.
                    cost
                })
            })
            .collect();
        let mut attributed = InferenceCost::default();
        for w in workers {
            attributed.absorb(w.join().expect("worker"));
        }
        assert_eq!(
            ledger.snapshot(),
            attributed,
            "attributed == metered must hold in every interleaving"
        );
    });
}
