//! Experiment harness: one module per table/figure of the ICPP 2004
//! paper, shared by the `table*`/`fig*` binaries and `repro_all`.
//!
//! Every experiment follows the same pattern: run *real* computations on
//! this machine (path tracking, Pieri solves), then — where the paper's
//! numbers need a 128-CPU cluster — feed the measured per-job costs into
//! the discrete-event simulator (the `pieri-sim` crate docs give the
//! substitution argument). Each `run` function returns the rendered report so the
//! binaries stay one-line wrappers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

/// Common options for the experiment runners.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Run the larger configurations (closer to paper scale, slower).
    pub full: bool,
    /// RNG seed for workload generation and problem instances.
    pub seed: u64,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            full: false,
            seed: 2004,
        }
    }
}

impl Opts {
    /// Parses `--full` and `--seed N` from the process arguments.
    pub fn from_args() -> Self {
        let mut opts = Opts::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => opts.full = true,
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(opts.seed)
                }
                _ => {}
            }
        }
        opts
    }
}
