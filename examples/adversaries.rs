//! Adversary gallery: what each kind of misbehavior costs, and to whom.
//!
//! Re-runs the two-leader swap of Figures 6–8 under every deviation the
//! paper's analysis contemplates — crashes at each protocol stage, secret
//! withholding, refusing to publish, premature secret leaks — and tabulates
//! the Figure 3 outcome each party receives. The safety theorem
//! (Theorem 4.9) is visible in every row: deviators may hurt themselves,
//! conforming parties never end Underwater.
//!
//! Run with: `cargo run --example adversaries`

use atomic_swaps::core::runner::RunConfig;
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::Behavior;
use atomic_swaps::core::{Engine, ProtocolKind};
use atomic_swaps::digraph::{generators, VertexId};
use atomic_swaps::sim::SimRng;

fn run_with(label: &str, configure: impl FnOnce(&mut RunConfig)) {
    let digraph = generators::two_leader_triangle();
    let mut rng = SimRng::from_seed(99);
    let setup = SwapSetup::generate(digraph, &SetupConfig::default(), &mut rng)
        .expect("two-leader triangle is a valid swap");
    let mut config = RunConfig::default();
    configure(&mut config);
    let deviators: Vec<VertexId> = config.behaviors.keys().copied().collect();
    let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
    print!("{label:<34}");
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let v = VertexId::new(i as u32);
        let marker = if deviators.contains(&v) { "*" } else { " " };
        print!(" {marker}{outcome:<11}");
    }
    println!();
    assert!(
        report.no_conforming_underwater(),
        "Theorem 4.9 violated under '{label}': {:?}",
        report.outcomes
    );
}

fn main() {
    println!("{:<34} {:<12} {:<12} {:<12}", "scenario (* = deviator)", "alice", "bob", "carol");
    println!("{}", "-".repeat(74));

    run_with("all conforming", |_| {});

    for round in [0, 1, 2, 3, 4, 5] {
        run_with(&format!("alice crashes at round {round}"), |c| {
            c.behaviors.insert(VertexId::new(0), Behavior::Halt { at_round: round });
        });
    }

    run_with("bob withholds his secret", |c| {
        c.behaviors.insert(VertexId::new(1), Behavior::WithholdSecret);
    });

    run_with("carol never publishes", |c| {
        c.behaviors.insert(VertexId::new(2), Behavior::NeverPublish { arcs: None });
    });

    run_with("alice leaks her secret early", |c| {
        c.behaviors.insert(VertexId::new(0), Behavior::PrematureReveal);
    });

    run_with("alice + bob both crash at 2", |c| {
        c.behaviors.insert(VertexId::new(0), Behavior::Halt { at_round: 2 });
        c.behaviors.insert(VertexId::new(1), Behavior::Halt { at_round: 2 });
    });

    run_with("bob publishes eagerly", |c| {
        c.behaviors.insert(VertexId::new(1), Behavior::EagerPublish);
    });

    run_with("alice publishes corrupt contract", |c| {
        c.corrupt_arcs.insert(atomic_swaps::digraph::ArcId::new(0));
    });

    println!("{}", "-".repeat(74));
    println!("No conforming party ended Underwater in any scenario (Theorem 4.9) ✓");
}
