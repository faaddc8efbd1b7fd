//! Quickstart: the paper's §1 motivating example, end to end.
//!
//! Alice wants to pay for Carol's Cadillac in alt-coins, Bob bridges
//! alt-coins to bitcoin: a three-way swap on a directed cycle. This example
//! provisions three blockchains, runs the full hashkey protocol with every
//! party conforming, and prints the deploy/trigger timeline — which matches
//! Figures 1 and 2 of the paper tick for tick.
//!
//! Run with: `cargo run --example quickstart`

use atomic_swaps::core::runner::{RunConfig, SwapRunner};
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::What;
use atomic_swaps::digraph::generators;
use atomic_swaps::sim::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The swap digraph: alice → bob (alt-coins), bob → carol (bitcoin),
    // carol → alice (Cadillac title).
    let digraph = generators::herlihy_three_party();
    println!("Swap digraph:\n{}", digraph.render());

    let mut rng = SimRng::from_seed(2018);
    let setup = SwapSetup::generate(digraph, &SetupConfig::default(), &mut rng)?;
    println!(
        "Spec: {} parties, {} leader(s), diam(D) = {}, Δ = {} ticks, start = {}",
        setup.spec.digraph.vertex_count(),
        setup.spec.leaders.len(),
        setup.spec.diam,
        setup.spec.delta.ticks(),
        setup.spec.start,
    );
    let worst_case = setup.spec.worst_case_duration();
    let start = setup.spec.start;

    let report = SwapRunner::new(setup, RunConfig::default()).run();

    println!("\nExecution trace (compare Figures 1 and 2):");
    for event in report.trace.events() {
        if !matches!(event.what, What::Rejected { .. }) {
            println!("  {}", report.trace.render(event));
        }
    }

    println!("\nOutcomes:");
    for (i, outcome) in report.outcomes.iter().enumerate() {
        println!("  party {i}: {outcome}");
    }

    let completion = report.completion.expect("all-conforming swaps complete");
    println!(
        "\nCompleted {} after start (Theorem 4.7 bound: 2·diam·Δ = {}).",
        completion - start,
        worst_case,
    );
    assert!(report.all_deal(), "every conforming run must end in Deal");
    assert!(completion - start <= worst_case, "Theorem 4.7 must hold");
    println!("All swaps executed atomically ✓");
    Ok(())
}
