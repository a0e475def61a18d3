//! The parallel Pieri homotopy of Fig. 6: master/slave over the virtual
//! tree.
//!
//! The master maintains (i) the job queue — a job is one tree edge, ready
//! as soon as the solution at its parent node has been computed; (ii) the
//! idle-slave queue — slaves that returned a result while the queue was
//! empty wait there and are *reactivated* when new jobs appear (without
//! this, a slave that happens to return a leaf early would sit out the
//! rest of the run, the unbalanced scenario Section III.D warns about);
//! and (iii) the termination protocol — the run ends when no job is
//! queued or in flight.
//!
//! The slaves are *virtual*: dispatching a job to slave `w` spawns it
//! onto the global work-stealing fork-join pool (see the vendored
//! `rayon`), tagged with `w` so the per-slave accounting of the paper is
//! preserved. This sources the actual CPU time from the shared pool —
//! `PIERI_NUM_THREADS` bounds hardware parallelism while `workers`
//! remains the number of ranks in the paper's protocol — and `workers`
//! may freely exceed the pool size, because a dispatched job never
//! blocks (it tracks its path and sends one result message). The one
//! requirement is that the *master* run outside the pool: it blocks on
//! the result channel without helping to drain the pool's queues, so a
//! call from inside a pool job could starve its own slaves. The entry
//! point asserts this instead of deadlocking.
//!
//! Start solutions travel inside the job messages, so a node's solution
//! lives only until its successor jobs have been generated — the memory
//! frugality of trees over posets that Section III.C describes. The
//! master records the peak queue length to make that argument measurable.
//!
//! **Determinism:** results arrive in scheduling order, which varies run
//! to run. Every job therefore carries its *lineage* — the path of
//! child-indices from its seed job down the tree, under which a parent's
//! lineage is a strict prefix of its children's — and the returned
//! records and root solutions are sorted by lineage. Output is thus
//! bitwise identical across runs and worker counts.

use crate::report::{ParallelReport, WorkerStats};
use crossbeam::channel;
use pieri_certify::CertifyPolicy;
use pieri_core::{JobRecord, PMap, Pattern, PieriProblem, PieriSolution, Poset};
use pieri_num::Complex64;
use pieri_tracker::TrackSettings;
use std::collections::VecDeque;
use std::time::Instant;

/// One unit of work: track the path extending `child`'s solution to
/// `pattern` (a tree edge), tagged with its position in the virtual tree.
struct Job {
    pattern: Pattern,
    child: Pattern,
    start: Vec<Complex64>,
    lineage: Vec<u32>,
}

/// Extra observables of a tree-parallel run.
#[derive(Debug, Clone, Default)]
pub struct TreeRunStats {
    /// Scheduler-level accounting.
    pub report: ParallelReport,
    /// Times a slave was parked on the idle queue because the job queue
    /// was empty while work was still in flight.
    pub idle_parks: usize,
    /// Times a parked slave was reactivated with a new job.
    pub reactivations: usize,
}

/// [`solve_tree_parallel_prepared`] with a [`CertifyPolicy`] knob: under
/// [`CertifyPolicy::full`] every tracking job re-tracks failed paths
/// (each slave inherits it through its `TrackSettings`), and the root
/// solutions — the ones the solve ships — are certified and
/// double-double-refined afterwards via [`pieri_core::certify_roots`].
/// The certification pass is sequential: `d(m,p,q)` root polishes are
/// trivial next to the tree they conclude.
///
/// # Panics
/// As [`solve_tree_parallel_prepared`].
pub fn solve_tree_parallel_certified(
    problem: &PieriProblem,
    poset: &Poset,
    settings: &TrackSettings,
    workers: usize,
    policy: &CertifyPolicy,
) -> (PieriSolution, TreeRunStats) {
    let track = policy.effective_settings(settings);
    let (mut solution, stats) = solve_tree_parallel_prepared(problem, poset, &track, workers);
    pieri_core::certify_roots(problem, &mut solution, policy);
    (solution, stats)
}

/// Solves a Pieri problem with the master/slave tree scheduler of Fig. 6,
/// against a pre-built poset (build it with [`Poset::build`]; the shape
/// cache of `pieri-service` keeps one per shape).
///
/// Produces the same solution set as [`pieri_core::solve_prepared`] (same
/// gamma, same homotopies, same endpoints up to tracking tolerance) — the
/// integration tests cross-check this — while exposing the parallel
/// observables of the paper. Records and solutions are returned in
/// lineage order, so the output is deterministic run to run.
///
/// # Panics
/// Panics when `workers == 0`, when `poset` was built for a different
/// shape, or when called from inside a pool worker (the master blocks on
/// its result channel without draining the pool, so an in-pool call
/// could starve its own slaves — see the module docs). A panic inside a
/// slave's tracking job is resumed on the caller once the remaining
/// in-flight jobs have drained, instead of hanging the master.
pub fn solve_tree_parallel_prepared(
    problem: &PieriProblem,
    poset: &Poset,
    settings: &TrackSettings,
    workers: usize,
) -> (PieriSolution, TreeRunStats) {
    assert!(workers >= 1, "need at least one worker");
    assert!(
        rayon::current_thread_index().is_none(),
        "solve_tree_parallel_prepared must be called from outside the worker pool"
    );
    let shape = problem.shape();
    assert_eq!(
        poset.shape(),
        shape,
        "poset was built for a different shape"
    );
    let t0 = Instant::now();
    let n = shape.conditions();
    let trivial = shape.trivial();

    let mut stats = vec![WorkerStats::default(); workers];
    let mut messages = 0usize;
    let mut peak_queue = 0usize;
    let mut idle_parks = 0usize;
    let mut reactivations = 0usize;
    let mut failures = 0usize;
    // (lineage, payload) pairs, sorted after the run for determinism.
    let mut tagged_records: Vec<(Vec<u32>, JobRecord)> = Vec::new();
    let mut tagged_roots: Vec<(Vec<u32>, Vec<Complex64>)> = Vec::new();

    // Result channel back to the master (worker id, lineage, pattern,
    // job outcome, busy time) — one message per job, like the MPI sends
    // of the paper. The outcome is Err when the job panicked: the master
    // holds a sender for the whole run, so the channel can never
    // disconnect, and a slave that died without sending would leave
    // `in_flight` stuck above zero and the master blocked forever.
    type JobOutcome = Result<(Option<Vec<Complex64>>, JobRecord), Box<dyn std::any::Any + Send>>;
    type ResultMsg = (usize, Vec<u32>, Pattern, JobOutcome, std::time::Duration);
    let (res_tx, res_rx) = channel::unbounded::<ResultMsg>();
    let mut slave_panic: Option<Box<dyn std::any::Any + Send>> = None;

    rayon::scope(|s| {
        // Seed the queue with the level-1 jobs (children of the trivial
        // pattern's solutions — the empty coefficient vector).
        let mut queue: VecDeque<Job> = poset
            .parents_in_poset(&trivial)
            .into_iter()
            .enumerate()
            .map(|(i, pattern)| Job {
                pattern,
                child: trivial.clone(),
                start: Vec::new(),
                lineage: vec![i as u32],
            })
            .collect();
        let mut idle: VecDeque<usize> = (0..workers).collect();
        // Slaves that returned a result while the queue was empty (the
        // III.D parking event) — distinct from merely being between
        // jobs, so `reactivations` counts real park-then-redispatch
        // transitions only.
        let mut parked = vec![false; workers];
        let mut in_flight = 0usize;

        // The master runs inline on the calling thread; each dispatch
        // spawns one pool job acting as slave `w` for that job.
        loop {
            // Hand out jobs to idle slaves, reactivating parked ones.
            while let (Some(&w), false) = (idle.front(), queue.is_empty()) {
                let job = queue.pop_front().expect("checked non-empty");
                idle.pop_front();
                if parked[w] {
                    reactivations += 1;
                    parked[w] = false;
                }
                let tx = res_tx.clone();
                s.spawn(move |_| {
                    let t = Instant::now();
                    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        // Pool threads are persistent: the thread-local
                        // workspace survives across jobs and slaves.
                        crate::workspace::with_worker_workspace(|ws| {
                            pieri_core::run_job(
                                problem,
                                &job.pattern,
                                &job.child,
                                &job.start,
                                settings,
                                ws,
                            )
                        })
                    }));
                    // The master outlives every in-flight job, so the
                    // receiver is always alive.
                    tx.send((w, job.lineage, job.pattern, outcome, t.elapsed()))
                        .expect("master alive");
                });
                messages += 1;
                in_flight += 1;
            }
            peak_queue = peak_queue.max(queue.len());
            if in_flight == 0 {
                break; // queue empty and nothing in flight: done.
            }
            // Wait for a result.
            let (w, lineage, pattern, outcome, busy) = res_rx.recv().expect("slaves alive");
            messages += 1;
            in_flight -= 1;
            let (sol, record) = match outcome {
                Ok(pair) => pair,
                Err(payload) => {
                    // Fail fast (after the scope drains the other
                    // in-flight jobs) rather than hanging the master.
                    slave_panic = Some(payload);
                    break;
                }
            };
            stats[w].jobs += 1;
            stats[w].busy += busy;
            let level = record.level;
            tagged_records.push((lineage.clone(), record));
            match sol {
                Some(x) => {
                    if level == n {
                        tagged_roots.push((lineage, x));
                    } else {
                        for (k, parent) in poset.parents_in_poset(&pattern).into_iter().enumerate()
                        {
                            let mut child_lineage = lineage.clone();
                            child_lineage.push(k as u32);
                            queue.push_back(Job {
                                pattern: parent,
                                child: pattern.clone(),
                                start: x.clone(),
                                lineage: child_lineage,
                            });
                        }
                    }
                }
                None => failures += 1,
            }
            if queue.is_empty() && in_flight > 0 {
                idle_parks += 1;
                parked[w] = true;
            }
            idle.push_back(w);
        }
        // Termination: in_flight == 0 means every spawned job has sent
        // its result, so the scope drains immediately. (On a slave
        // panic the scope still waits for the other in-flight jobs,
        // whose sends succeed because res_rx outlives the scope.)
    });
    drop(res_tx);
    if let Some(payload) = slave_panic {
        std::panic::resume_unwind(payload);
    }

    // Lineage order is scheduling-independent and puts every parent
    // before its children (prefix < extension in lexicographic order).
    tagged_records.sort_by(|a, b| a.0.cmp(&b.0));
    tagged_roots.sort_by(|a, b| a.0.cmp(&b.0));
    let records: Vec<JobRecord> = tagged_records.into_iter().map(|(_, r)| r).collect();
    let root_coeffs: Vec<Vec<Complex64>> = tagged_roots.into_iter().map(|(_, x)| x).collect();

    let root = shape.root();
    let maps: Vec<PMap> = root_coeffs
        .iter()
        .map(|x| PMap::from_coeffs(&root, x))
        .collect();
    let solution = PieriSolution {
        maps,
        coeffs: root_coeffs,
        records,
        failures,
        certificates: Vec::new(),
    };
    let stats = TreeRunStats {
        report: ParallelReport {
            workers: stats,
            wall: t0.elapsed(),
            messages,
            peak_queue,
        },
        idle_parks,
        reactivations,
    };
    (solution, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pieri_core::Shape;
    use pieri_num::seeded_rng;

    fn solve_tree(problem: &PieriProblem, workers: usize) -> (PieriSolution, TreeRunStats) {
        let poset = Poset::build(problem.shape());
        solve_tree_parallel_prepared(problem, &poset, &TrackSettings::default(), workers)
    }

    #[test]
    fn certified_tree_solve_certifies_every_root() {
        let mut rng = seeded_rng(990);
        let shape = Shape::new(2, 2, 1);
        let problem = PieriProblem::random(shape.clone(), &mut rng);
        let poset = Poset::build(&shape);
        let (solution, _) = solve_tree_parallel_certified(
            &problem,
            &poset,
            &TrackSettings::default(),
            3,
            &CertifyPolicy::full(),
        );
        assert_eq!(solution.maps.len(), 8);
        assert_eq!(solution.certificates.len(), 8);
        for (i, cert) in solution.certificates.iter().enumerate() {
            assert!(cert.is_certified(), "root {i}: {cert:?}");
            assert!(
                cert.residual() <= 1e-13,
                "root {i} refined residual {:e}",
                cert.residual()
            );
        }
        // Refinement must not move the solutions away from the
        // uncertified answer (it polishes in place).
        let (plain, _) =
            solve_tree_parallel_prepared(&problem, &poset, &TrackSettings::default(), 3);
        assert!(solutions_match(&solution, &plain, 1e-8));
    }

    /// Multiset match of solution coefficient vectors.
    fn solutions_match(a: &PieriSolution, b: &PieriSolution, tol: f64) -> bool {
        if a.maps.len() != b.maps.len() {
            return false;
        }
        let mut unmatched: Vec<&PMap> = b.maps.iter().collect();
        for m in &a.maps {
            let Some(pos) = unmatched.iter().position(|u| m.dist(u) < tol) else {
                return false;
            };
            unmatched.swap_remove(pos);
        }
        true
    }

    #[test]
    fn matches_sequential_2_2_0() {
        let mut rng = seeded_rng(720);
        let problem = PieriProblem::random(Shape::new(2, 2, 0), &mut rng);
        let seq = pieri_core::solve(&problem);
        let (par, stats) = solve_tree(&problem, 3);
        assert_eq!(par.failures, 0);
        assert!(solutions_match(&seq, &par, 1e-6));
        assert_eq!(
            stats.report.workers.iter().map(|w| w.jobs).sum::<usize>(),
            seq.records.len()
        );
    }

    #[test]
    fn matches_sequential_2_2_1() {
        let mut rng = seeded_rng(721);
        let problem = PieriProblem::random(Shape::new(2, 2, 1), &mut rng);
        let seq = pieri_core::solve(&problem);
        assert_eq!(seq.maps.len(), 8);
        let (par, stats) = solve_tree(&problem, 4);
        assert!(
            solutions_match(&seq, &par, 1e-6),
            "8 dynamic feedback laws agree"
        );
        // 37 jobs (Fig 4/5), each one send + one result, plus messages.
        assert_eq!(stats.report.messages, 2 * 37);
    }

    #[test]
    fn single_worker_tree_run() {
        let mut rng = seeded_rng(722);
        let problem = PieriProblem::random(Shape::new(3, 2, 0), &mut rng);
        let (par, stats) = solve_tree(&problem, 1);
        assert_eq!(par.maps.len(), 5);
        assert_eq!(stats.report.workers.len(), 1);
        assert_eq!(stats.report.workers[0].jobs, par.records.len());
        // A lone slave can never be parked while work is in flight.
        assert_eq!(stats.idle_parks, 0);
    }

    #[test]
    fn job_levels_respect_dependencies() {
        // A job at level k can only be recorded after some job at level
        // k−1 (its parent) — check the record order respects this.
        let mut rng = seeded_rng(723);
        let problem = PieriProblem::random(Shape::new(2, 2, 1), &mut rng);
        let (par, _) = solve_tree(&problem, 4);
        let mut seen_levels = [0usize; 10];
        for r in &par.records {
            if r.level > 1 {
                assert!(
                    seen_levels[r.level - 1] > 0,
                    "level {} job finished before any level {} job",
                    r.level,
                    r.level - 1
                );
            }
            seen_levels[r.level] += 1;
        }
    }

    #[test]
    fn reports_track_queue_and_idle_protocol() {
        let mut rng = seeded_rng(724);
        let problem = PieriProblem::random(Shape::new(2, 2, 1), &mut rng);
        let (_, stats) = solve_tree(&problem, 4);
        // The (2,2,1) tree fans out to width 8; with 4 workers the queue
        // must have backed up at least once.
        assert!(stats.report.peak_queue > 0);
    }

    #[test]
    fn terminates_with_more_workers_than_jobs() {
        // Stress: 16 virtual slaves on a tree whose widest level is far
        // narrower. Most slaves idle the whole run; the termination
        // protocol must still close the scope without stranding anyone,
        // whatever PIERI_NUM_THREADS says the real pool size is.
        let mut rng = seeded_rng(725);
        let problem = PieriProblem::random(Shape::new(2, 2, 0), &mut rng);
        let seq = pieri_core::solve(&problem);
        let (par, stats) = solve_tree(&problem, 16);
        assert_eq!(par.failures, 0);
        assert!(solutions_match(&seq, &par, 1e-6));
        assert_eq!(stats.report.workers.len(), 16);
        assert_eq!(
            stats.report.workers.iter().map(|w| w.jobs).sum::<usize>(),
            seq.records.len()
        );
    }

    #[test]
    fn unbalanced_tree_parks_slaves_without_stranding_them() {
        // Section III.D scenario: slaves that return a result while the
        // job queue is empty (but work is still in flight) are parked.
        // On (2,2,1) with 4 slaves the final-level drain guarantees such
        // parks deterministically. A reactivation — a *parked* slave
        // handed a fresh job — additionally needs a fast chain to reach
        // the root while slower chains still climb, which is genuinely
        // timing-dependent, so a deterministic test asserts the protocol
        // invariants instead: parks happen, reactivations never exceed
        // parks, and parking strands nobody — the run still terminates
        // with every job accounted for and nothing left in flight.
        let mut rng = seeded_rng(726);
        let problem = PieriProblem::random(Shape::new(2, 2, 1), &mut rng);
        let (par, stats) = solve_tree(&problem, 4);
        assert_eq!(par.failures, 0);
        assert!(stats.idle_parks > 0, "final drain parks slaves: {stats:?}");
        assert!(
            stats.reactivations <= stats.idle_parks,
            "only parked slaves can be reactivated: {stats:?}"
        );
        assert_eq!(par.records.len(), 37, "no job lost to a parked slave");
        assert_eq!(
            stats.report.workers.iter().map(|w| w.jobs).sum::<usize>(),
            37
        );
    }

    #[test]
    fn rejects_calls_from_inside_the_pool() {
        // The master blocks on its result channel without draining pool
        // queues, so running it on a pool worker could starve its own
        // slaves; it must fail fast instead of deadlocking.
        let mut rng = seeded_rng(728);
        let problem = PieriProblem::random(Shape::new(2, 2, 0), &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rayon::scope(|s| {
                s.spawn(|_| {
                    let _ = solve_tree(&problem, 1);
                });
            });
        }));
        assert!(result.is_err(), "in-pool call must panic, not hang");
    }

    #[test]
    fn output_is_deterministic_across_runs_and_worker_counts() {
        // Lineage ordering makes the result independent of scheduling:
        // bitwise-equal coefficients and identical record order for
        // repeated runs and for different virtual-slave counts.
        let mut rng = seeded_rng(727);
        let problem = PieriProblem::random(Shape::new(2, 2, 1), &mut rng);
        let (a, _) = solve_tree(&problem, 4);
        let (b, _) = solve_tree(&problem, 4);
        let (c, _) = solve_tree(&problem, 2);
        assert_eq!(a.coeffs, b.coeffs, "same worker count: bitwise equal");
        assert_eq!(a.coeffs, c.coeffs, "different worker count: bitwise equal");
        let levels = |s: &PieriSolution| s.records.iter().map(|r| r.level).collect::<Vec<_>>();
        assert_eq!(levels(&a), levels(&b));
        assert_eq!(levels(&a), levels(&c));
    }
}
