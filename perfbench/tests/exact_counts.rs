//! Exact-count self-test: two reduced runs with one seed report the
//! same tracker steps, Newton iterations, tree jobs, certified roots and
//! output digest; another seed changes the digest.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pieri_perfbench::{run, Config, Report, Workload};
use std::time::Instant;

fn reduced(workload: Workload, seed: u64, ops: usize) -> Report {
    let cfg = Config {
        ops,
        ..Config::new(workload, seed, 10, true)
    };
    let report = run(&cfg, Instant::now());
    assert!(report.correct(), "{:?}", report.errors);
    assert_eq!(report.attempted, ops);
    report
}

#[test]
fn cold_tree_counts_and_digest_repeat_exactly() {
    let a = reduced(Workload::ColdTree222, 3, 3);
    let b = reduced(Workload::ColdTree222, 3, 3);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.digest, b.digest);
    assert_eq!(
        a.counts.tree_jobs,
        3 * 157,
        "157 tree jobs per (2,2,2) solve"
    );
    assert_eq!(a.counts.certified_roots, 3 * 32, "d(2,2,2) = 32");
    assert!(a.counts.newton_iters > a.counts.tracker_steps / 3);
    let other = reduced(Workload::ColdTree222, 4, 3);
    assert_ne!(a.digest, other.digest, "another seed, other instances");
}

#[test]
fn warm_placement_counts_and_digest_repeat_exactly() {
    let a = reduced(Workload::WarmPlaceHttp, 3, 6);
    let b = reduced(Workload::WarmPlaceHttp, 3, 6);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.counts.tree_jobs, 0, "warm requests never run the tree");
    assert!(a.counts.tracker_steps > 0 && a.counts.newton_iters >= a.counts.tracker_steps);
    let other = reduced(Workload::WarmPlaceHttp, 4, 6);
    assert_ne!(a.digest, other.digest, "another seed, other requests");
}
