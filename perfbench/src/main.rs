//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (or all three in turn) and prints two JSON lines
//! per workload: run metadata with the output digest, then the result
//! object (`correct`, `attempted`, `failed`, `metrics`). Timed runs
//! (`--trace 0`) report the end-to-end metrics, traced runs
//! (`--trace 1`) the per-layer ones and write their spans under `out/`
//! in this crate's directory. Exits 1 when an answer was wrong, 2 on bad
//! arguments.

use pieri_perfbench::{run, Config, Workload};
use std::time::Instant;

const USAGE: &str = "usage: perfbench \
    --workload <cold-tree-222|warm-place-http|static-place-http|all> \
    --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Vec<Config>, String> {
    let mut workloads = Vec::new();
    let (mut seed, mut seconds, mut trace) = (0u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                workloads = vec![w];
            }
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workloads.is_empty() {
        return Err("--workload is required".into());
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(workloads
        .into_iter()
        .map(|w| Config::new(w, seed, seconds, trace))
        .collect())
}

fn main() {
    let mut started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let configs = parse(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mut correct = true;
    for cfg in &configs {
        let report = run(cfg, started);
        if let Some(spans) = &report.spans {
            let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            let path = dir.join(format!("spans-{}-{}.json", cfg.workload.name(), cfg.seed));
            match std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, spans.serialize()))
            {
                Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: could not write spans: {e}"),
            }
        }
        println!("{}", report.meta_json(cfg).serialize());
        println!("{}", report.result_json(cfg.trace).serialize());
        for e in &report.errors {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
        }
        correct &= report.correct();
        started = Instant::now();
    }
    if !correct {
        std::process::exit(1);
    }
}
