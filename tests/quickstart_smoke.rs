//! Smoke test executing the `quickstart` example's scenario inside the
//! test harness: the §1 three-party swap, seed 2018, all parties
//! conforming. `examples/quickstart.rs` runs this same flow as a binary
//! (CI executes it via `cargo run --example quickstart`); this test keeps
//! the scenario exercised by plain `cargo test` too.

use atomic_swaps::core::runner::RunConfig;
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::What;
use atomic_swaps::core::{Engine, ProtocolKind};
use atomic_swaps::digraph::generators;
use atomic_swaps::sim::SimRng;

#[test]
fn quickstart_scenario_runs_to_completion() {
    let digraph = generators::herlihy_three_party();
    let mut rng = SimRng::from_seed(2018);
    let setup = SwapSetup::generate(digraph, &SetupConfig::default(), &mut rng)
        .expect("the §1 digraph is a valid swap");
    let start = setup.spec.start;
    let worst_case = setup.spec.worst_case_duration();

    let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();

    assert!(report.all_deal(), "every conforming run must end in Deal");
    assert!(report.settled, "every contract must reach a terminal state");
    let completion = report.completion.expect("all-conforming swaps complete");
    assert!(completion - start <= worst_case, "Theorem 4.7's 2·diam·Δ bound must hold");
    // The timeline the example prints exists: three deploys, three triggers.
    let count =
        |is: fn(&What) -> bool| report.trace.events().iter().filter(|e| is(&e.what)).count();
    assert_eq!(count(|w| matches!(w, What::Published { .. })), 3);
    assert_eq!(count(|w| matches!(w, What::Triggered { .. })), 3);
}
