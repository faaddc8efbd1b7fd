//! The two-leader digraph of Figures 6–8: why hashkeys exist.
//!
//! Three parties trade across all six arcs, so the minimum feedback vertex
//! set has two vertexes. This example shows the whole §4 story on that
//! digraph:
//!
//! 1. no fixed per-arc timeout assignment exists (Figure 6, right),
//! 2. the admissible hashkey paths per arc (Figure 7),
//! 3. concurrent contract propagation from both leaders (Figure 8),
//! 4. the protocol nevertheless completing atomically.
//!
//! Run with: `cargo run --example two_leader`

use std::collections::BTreeSet;

use atomic_swaps::core::hashkey::HashkeyTable;
use atomic_swaps::core::runner::RunConfig;
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::timeout_assignment_feasible;
use atomic_swaps::core::{Engine, ProtocolKind};
use atomic_swaps::digraph::{generators, VertexId};
use atomic_swaps::pebble::LazyPebbleGame;
use atomic_swaps::sim::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let digraph = generators::two_leader_triangle();
    println!("Digraph (all six arcs among alice, bob, carol):\n{}", digraph.render());

    // --- Figure 6: timeouts alone cannot work. -------------------------
    let one_leader: BTreeSet<VertexId> = [VertexId::new(0)].into();
    let two_leaders: BTreeSet<VertexId> = [VertexId::new(0), VertexId::new(1)].into();
    println!(
        "Timeout assignment with leaders {{alice}}: {}",
        if timeout_assignment_feasible(&digraph, &one_leader) { "feasible" } else { "INFEASIBLE" }
    );
    println!(
        "Timeout assignment with leaders {{alice, bob}}: feasible = {} (but two secrets\n  now need per-path deadlines — hashkeys)",
        timeout_assignment_feasible(&digraph, &two_leaders)
    );

    // --- Figure 7: hashkey paths per arc. -------------------------------
    let leaders = [VertexId::new(0), VertexId::new(1)];
    let table = HashkeyTable::build(&digraph, &leaders);
    println!("\nAdmissible hashkeys per arc (Figure 7):");
    print!("{}", table.render(&digraph, &leaders));

    // --- Figure 8: concurrent propagation. ------------------------------
    println!("\nLazy pebble game from both leaders (Figure 8 rounds):");
    let leader_set: BTreeSet<VertexId> = leaders.iter().copied().collect();
    let mut game = LazyPebbleGame::new(&digraph, &leader_set);
    let mut round = 1;
    loop {
        let placed = game.step();
        if placed.is_empty() {
            break;
        }
        println!("  round {round}: contracts appear on {placed:?}");
        round += 1;
        if game.all_pebbled() {
            break;
        }
    }

    // --- And the protocol itself. ---------------------------------------
    let mut rng = SimRng::from_seed(6);
    let setup = SwapSetup::generate(digraph, &SetupConfig::default(), &mut rng)?;
    println!(
        "\nRunning the full protocol: leaders {:?}, diam = {}",
        setup.spec.leaders, setup.spec.diam
    );
    let start = setup.spec.start;
    let bound = setup.spec.worst_case_duration();
    let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
    for (i, outcome) in report.outcomes.iter().enumerate() {
        println!("  party {i}: {outcome}");
    }
    let completion = report.completion.expect("conforming run completes");
    println!("Completed {} after start (bound 2·diam·Δ = {}) ✓", completion - start, bound);
    assert!(report.all_deal());
    Ok(())
}
