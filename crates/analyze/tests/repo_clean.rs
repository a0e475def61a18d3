//! The adoption gate, as a test: the analyzer run over the *actual*
//! workspace must come back clean — zero unsuppressed findings, every
//! `unsafe` site SAFETY-covered — with all eight rules active
//! (including the workspace-wide `lock-order` and
//! `no-blocking-in-nonblocking` passes). This is the same check CI's
//! `pieri-lint --deny` step enforces, kept inside `cargo test` so a
//! violation fails fast locally too.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use pieri_analyze::analyze_root;
use pieri_analyze::model::SourceFile;
use pieri_analyze::rules::all_rules;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn repo_has_zero_unsuppressed_findings() {
    let analysis = analyze_root(&workspace_root()).expect("scan workspace");
    assert!(
        analysis.files_scanned > 100,
        "suspiciously few files scanned: {}",
        analysis.files_scanned
    );
    let rendered: Vec<String> = analysis.findings.iter().map(|f| f.render()).collect();
    assert!(
        analysis.is_clean(),
        "pieri-lint findings in the repo:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn repo_unsafe_inventory_is_fully_covered() {
    let analysis = analyze_root(&workspace_root()).expect("scan workspace");
    let uncovered: Vec<String> = analysis
        .unsafe_sites
        .iter()
        .filter(|s| !s.covered)
        .map(|s| format!("{}:{} ({})", s.rel_path, s.line, s.kind.label()))
        .collect();
    assert!(
        uncovered.is_empty(),
        "unsafe sites without SAFETY comments:\n{}",
        uncovered.join("\n")
    );
    // The inventory must actually see the vendored runtime's sites —
    // an empty inventory would mean the walker or lexer went blind.
    assert!(
        analysis
            .unsafe_sites
            .iter()
            .any(|s| s.rel_path == "vendor/rayon/src/job.rs"),
        "expected unsafe sites in vendor/rayon/src/job.rs"
    );
}

#[test]
fn at_least_nine_rules_are_active() {
    assert!(all_rules().len() >= 9, "rule registry shrank");
}

/// The service's ranked locks are annotated where they are acquired, so
/// the `lock-order` pass actually covers the runtime's locks — if
/// someone strips the annotations the rule silently proves nothing, and
/// this test is what notices.
#[test]
fn service_lock_rank_annotations_cover_the_runtime() {
    let service_src = workspace_root().join("crates").join("service").join("src");
    let mut names: HashSet<String> = HashSet::new();
    for entry in std::fs::read_dir(&service_src).expect("list service sources") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read service source");
        let file = SourceFile::from_source(&path.display().to_string(), &text);
        for marker in file.bound_markers("lock-rank") {
            if let Some((name, _)) = marker.args.split_once(',') {
                names.insert(name.trim().to_string());
            }
        }
    }
    for expected in [
        "reactor-inbox",
        "reactor-completions",
        "engine-supervisor",
        "engine-queue",
        "engine-workers",
        "cache-slots",
        "cache-slot",
        "engine-handles",
        "http-accept",
        "client-conn",
        "chaos-plan",
        "chaos-rng",
    ] {
        assert!(
            names.contains(expected),
            "no lint:lock-rank({expected}, …) annotation found in crates/service/src \
             (have: {names:?})"
        );
    }
}

/// The reactor's event loop and its handlers must stay under the
/// `no-blocking-in-nonblocking` pass: every poll-loop/handler fn in
/// `reactor.rs` carries a `lint:nonblocking` marker. If the markers
/// are stripped, the rule silently audits nothing — this test pins a
/// floor on how much of the reactor is actually covered.
#[test]
fn reactor_handlers_are_marked_nonblocking() {
    let path = workspace_root()
        .join("crates")
        .join("service")
        .join("src")
        .join("reactor.rs");
    let text = std::fs::read_to_string(&path).expect("read reactor.rs");
    let file = SourceFile::from_source(&path.display().to_string(), &text);
    let marked = file.bound_markers("nonblocking").len();
    assert!(
        marked >= 14,
        "expected the poll loop, its handlers and the drain path (>= 14 fns) \
         to carry lint:nonblocking markers in reactor.rs; found {marked}"
    );
}

/// `pieri-trace` sits below the reactor in the lock order, so its locks
/// must be annotated (ranks 1–3, all under `reactor-inbox` at 4) and its
/// hot recording path must stay under the `no-blocking-in-nonblocking`
/// pass. Stripping either would let the tracer silently reintroduce the
/// blocking/lock-inversion hazards PR 10 was designed around.
#[test]
fn trace_crate_lock_ranks_and_nonblocking_markers_are_present() {
    let trace_src = workspace_root().join("crates").join("trace").join("src");
    let mut rank_names: HashSet<String> = HashSet::new();
    let mut nonblocking = 0usize;
    for entry in std::fs::read_dir(&trace_src).expect("list trace sources") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read trace source");
        let file = SourceFile::from_source(&path.display().to_string(), &text);
        for marker in file.bound_markers("lock-rank") {
            if let Some((name, _)) = marker.args.split_once(',') {
                rank_names.insert(name.trim().to_string());
            }
        }
        nonblocking += file.bound_markers("nonblocking").len();
    }
    for expected in ["trace-rings", "trace-ring", "trace-store", "trace-registry"] {
        assert!(
            rank_names.contains(expected),
            "no lint:lock-rank({expected}, …) annotation found in crates/trace/src \
             (have: {rank_names:?})"
        );
    }
    assert!(
        nonblocking >= 2,
        "expected the span-record fast path (>= 2 fns) to carry \
         lint:nonblocking markers in crates/trace/src; found {nonblocking}"
    );
}
