//! Shared scaffolding for the benchmark suite and the `experiments` binary.
//!
//! The paper is a theory paper: its "evaluation" is a set of theorems,
//! lemmas, and worked figures. The reproduction therefore validates each of
//! them *empirically* — `cargo run -p swap-bench --bin experiments` runs
//! E1–E15 (the `EXPERIMENTS` table of `src/bin/experiments.rs`) and prints
//! a paper-vs-measured comparison for each, while `cargo bench` times the
//! building blocks (crypto, graph algorithms, pebble games, full protocol
//! runs) with Criterion. Host time of the exchange end to end is judged by
//! `benchmark/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use swap_core::runner::{RunConfig, RunReport, SwapRunner};
use swap_core::setup::{SetupConfig, SwapSetup};
use swap_digraph::Digraph;
use swap_market::LeaderStrategy;
use swap_sim::SimRng;

/// Key height used across benches/experiments: 2^5 = 32 one-time keys,
/// enough for every leader count exercised while keeping keygen quick.
pub const BENCH_KEY_HEIGHT: u32 = 5;

/// A `SetupConfig` tuned for repeated experiment runs.
pub fn bench_setup_config() -> SetupConfig {
    SetupConfig {
        key_height: BENCH_KEY_HEIGHT,
        leader_strategy: LeaderStrategy::Greedy,
        ..SetupConfig::default()
    }
}

/// Provisions and runs one all-conforming swap over `digraph`.
///
/// # Panics
///
/// Panics if the digraph is not a valid swap (callers pass strongly
/// connected digraphs).
pub fn run_conforming(digraph: Digraph, seed: u64) -> RunReport {
    let setup = SwapSetup::generate(digraph, &bench_setup_config(), &mut SimRng::from_seed(seed))
        .expect("valid swap digraph");
    SwapRunner::new(setup, RunConfig::default()).run()
}

/// Formats a table row with right-aligned columns (helper for the
/// experiments binary).
pub fn fmt_row(cols: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (col, width) in cols.iter().zip(widths) {
        out.push_str(&format!("{col:>width$}  "));
    }
    out.trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use swap_digraph::generators;

    #[test]
    fn run_conforming_smoke() {
        let report = run_conforming(generators::herlihy_three_party(), 1);
        assert!(report.all_deal());
    }

    #[test]
    fn fmt_row_alignment() {
        let row = fmt_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(row, "  a    bb");
    }
}
