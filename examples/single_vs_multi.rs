//! Single-leader timeouts vs general hashkeys (§4.6 ablation) — one
//! engine, two protocols.
//!
//! On single-leader digraphs the protocol can drop hashkeys entirely and
//! use classic HTLCs with the Lemma 4.13 timeout ladder — "reducing message
//! sizes and eliminating the need for digital signatures". Both variants
//! run on the *same* event-driven engine, named by a `ProtocolKind` passed
//! to `Engine::lockstep`: this example executes each digraph
//! family under both `ProtocolKind`s and compares bytes on-chain, message
//! bytes, and completion times, then lets the `Exchange` pick per cleared
//! cycle and prints its choices.
//!
//! Run with: `cargo run --example single_vs_multi`

use atomic_swaps::core::exchange::{Exchange, ExchangeConfig, ExchangeParty, ProtocolPolicy};
use atomic_swaps::core::runner::{RunConfig, RunReport};
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::{single_leader_of, Engine, ProtocolKind};
use atomic_swaps::digraph::{generators, Digraph};
use atomic_swaps::market::AssetKind;
use atomic_swaps::sim::SimRng;

fn run(digraph: Digraph, protocol: ProtocolKind) -> Result<RunReport, Box<dyn std::error::Error>> {
    let mut rng = SimRng::from_seed(11);
    let setup = SwapSetup::generate(digraph, &SetupConfig::default(), &mut rng)?;
    Ok(Engine::lockstep(setup, RunConfig::default(), protocol).run())
}

fn compare(name: &str, digraph: Digraph) -> Result<(), Box<dyn std::error::Error>> {
    assert!(single_leader_of(&digraph).is_some(), "family has a single leader");
    let simple = run(digraph.clone(), ProtocolKind::Htlc)?;
    let general = run(digraph, ProtocolKind::Hashkey)?;
    assert!(simple.all_deal() && general.all_deal());
    let done = |r: &RunReport| r.completion.expect("completes").ticks();
    println!(
        "{name:<14} {:>14} {:>14} {:>12} {:>12} {:>10} {:>10}",
        simple.storage.total_bytes(),
        general.storage.total_bytes(),
        simple.metrics.unlock_bytes,
        general.metrics.unlock_bytes,
        done(&simple),
        done(&general),
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<14} {:>14} {:>14} {:>12} {:>12} {:>10} {:>10}",
        "digraph", "htlc bytes", "hashkey bytes", "htlc msg", "hashkey msg", "htlc t", "hashkey t"
    );
    println!("{}", "-".repeat(92));
    compare("cycle(3)", generators::herlihy_three_party())?;
    compare("cycle(5)", generators::cycle(5))?;
    compare("cycle(8)", generators::cycle(8))?;
    compare("star(4)", generators::star(4))?;
    compare("flower(3,3)", generators::flower(3, 3))?;
    println!("{}", "-".repeat(92));
    println!(
        "The §4.6 variant stores and transmits orders of magnitude less — that is why\n\
         the paper singles out single-leader digraphs as the practical common case.\n"
    );

    // The exchange makes the choice per cleared cycle: simple trade cycles
    // are single-leader feasible and run on cheap HTLCs automatically.
    let mut rng = SimRng::from_seed(12);
    let mut exchange = Exchange::new(ExchangeConfig {
        protocol: ProtocolPolicy::Auto,
        ..ExchangeConfig::default()
    });
    for ring in 0..3usize {
        for p in 0..3 {
            exchange.submit(ExchangeParty::generate(
                &mut rng,
                4,
                AssetKind::new(format!("r{ring}k{p}")),
                AssetKind::new(format!("r{ring}k{}", (p + 1) % 3)),
            ));
        }
    }
    let executed = exchange.drive_until_quiescent()?;
    println!("Exchange epoch: {} cleared cycles, protocol chosen per cycle:", executed.len());
    for summary in &exchange.report().swaps {
        println!(
            "  {}: {} parties, {} leader(s) -> {}  (settled: {})",
            summary.swap, summary.parties, summary.leaders, summary.protocol, summary.settled
        );
    }
    assert!(exchange.report().swaps.iter().all(|s| s.protocol == ProtocolKind::Htlc));
    Ok(())
}
