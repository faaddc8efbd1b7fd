//! `experiments` — regenerates every evaluation artifact of the paper.
//!
//! Herlihy's paper is analytical; its "tables and figures" are worked
//! examples and complexity/impossibility theorems. Each experiment below
//! reproduces one of them on the simulated substrate and prints a
//! paper-vs-measured comparison. Run them all:
//!
//! ```text
//! cargo run --release -p swap-bench --bin experiments          # all
//! cargo run --release -p swap-bench --bin experiments e6       # one
//! ```
//!
//! Experiment ids follow DESIGN.md's index (E1–E14), plus E15 for the
//! event-driven engine's per-chain latency timing model, E16 for the
//! exchange pipeline (continuous clearing + pooled concurrent execution),
//! E17 for per-cycle protocol selection (§4.6 single-leader HTLCs vs the
//! general hashkey protocol on the same cleared books), E18 for
//! multi-epoch pipelining (stage-overlapped vs batch driving of a rolling
//! book, with per-stage wall-tick attribution), and E19 for the
//! worker-pool execution tier (sustained rolling-book throughput as the
//! multi-slot `Executing` budget sweeps 1/2/8/16 simulated workers), and
//! E20 for the incremental clearing index (indexed vs full-rescan clearing
//! throughput on churn books of 10²–10⁵ offers, with a 10⁶ smoke), and E21
//! for the identity registry + crypto hot path (rolling-book swaps/sec:
//! fresh per-wave keygen vs pool-minted identities vs the amortized
//! registry, with keygen-overlap attribution), and E22 for the journaled
//! transaction hot path (undo-log vs clone-the-world rollback tx/sec as
//! the asset registry scales 10²–10⁵), and E23 for the durable exchange
//! (WAL-on vs WAL-off host overhead and snapshot-based crash-recovery
//! time as the resident book scales 10²–10⁴).

use std::collections::BTreeSet;

use swap_bench::{bench_setup_config, fmt_row, run_conforming};
use swap_contract::SwapSpec;
use swap_core::hashkey::HashkeyTable;
use swap_core::runner::{RunConfig, SwapRunner};
use swap_core::setup::SwapSetup;
use swap_core::single_leader::timeout_assignment_feasible;
use swap_core::timing::PerChainLatency;
use swap_core::{assign_timeouts, Behavior, Engine, Outcome, ProtocolKind, SwapInstance};
use swap_crypto::{MssKeypair, Secret};
use swap_digraph::{generators, Digraph, FeedbackVertexSet, VertexId};
use swap_pebble::{EagerPebbleGame, LazyPebbleGame};
use swap_sim::{Delta, SimRng, SimTime};

/// One named experiment: its id and entry point.
type Experiment = (&'static str, fn() -> bool);

/// A named adversary constructor, parameterized by halting round.
type AdversaryKind = (&'static str, fn(u64) -> Behavior);

fn main() {
    let filter: Option<String> = std::env::args().nth(1);
    let mut results: Vec<(&str, bool)> = Vec::new();
    let experiments: Vec<Experiment> = vec![
        ("e1", e1_three_party_timeline),
        ("e2", e2_outcome_lattice),
        ("e3", e3_atomicity_under_adversaries),
        ("e4", e4_freeride_impossibility),
        ("e5", e5_pebble_games),
        ("e6", e6_completion_time),
        ("e7", e7_safety_sweep),
        ("e8", e8_space_complexity),
        ("e9", e9_communication),
        ("e10", e10_figure6_timeouts),
        ("e11", e11_figure7_hashkeys),
        ("e12", e12_figure8_propagation),
        ("e13", e13_deadlock_without_fvs),
        ("e14", e14_extensions),
        ("e15", e15_timing_models),
        ("e16", e16_exchange_pipeline),
        ("e17", e17_protocol_selection),
        ("e18", e18_multi_epoch_pipelining),
        ("e19", e19_rolling_book_worker_pool),
        ("e20", e20_incremental_clearing_index),
        ("e21", e21_identity_registry_throughput),
        ("e22", e22_journaled_tx_hot_path),
        ("e23", e23_durable_exchange),
    ];
    for &(id, run) in &experiments {
        if let Some(f) = &filter {
            if f != id && f != "all" {
                continue;
            }
        }
        println!("\n{}", "=".repeat(76));
        let ok = run();
        results.push((id, ok));
    }
    if results.is_empty() {
        let known: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "unknown experiment `{}`; expected one of {}, or `all`",
            filter.as_deref().unwrap_or(""),
            known.join(", ")
        );
        std::process::exit(2);
    }
    println!("\n{}", "=".repeat(76));
    println!("SUMMARY");
    let mut all_ok = true;
    for (id, ok) in &results {
        println!("  {id:<5} {}", if *ok { "PASS" } else { "FAIL" });
        all_ok &= ok;
    }
    if !all_ok {
        std::process::exit(1);
    }
}

/// E1 (Figures 1–2): the three-way swap deploys contracts at Δ, 2Δ, 3Δ and
/// triggers arcs at 4Δ, 5Δ, 6Δ.
fn e1_three_party_timeline() -> bool {
    println!("E1  Figures 1-2: three-party swap timeline");
    println!("    paper: contracts at +1Δ,+2Δ,+3Δ; triggers at +4Δ,+5Δ,+6Δ\n");
    let report = run_conforming(generators::herlihy_three_party(), 2018);
    let delta = 10.0;
    let mut ok = true;
    println!("    event                measured   paper");
    for (kind, expected) in
        [("contract.published", [1.0, 2.0, 3.0]), ("arc.triggered", [4.0, 5.0, 6.0])]
    {
        for (entry, exp) in report.trace.entries_of_kind(kind).zip(expected) {
            // Transactions execute mid-round; they are *visible* at the
            // round boundary, which is the paper's instant.
            let visible = (entry.time.ticks() as f64 / delta).ceil();
            let hit = (visible - exp).abs() < f64::EPSILON;
            ok &= hit;
            println!(
                "    {kind:<20} +{visible:.0}Δ        +{exp:.0}Δ   {}",
                if hit { "✓" } else { "✗" }
            );
        }
    }
    ok &= report.all_deal();
    println!("\n    all parties end in Deal: {}", report.all_deal());
    ok
}

/// E2 (Figure 3): the outcome classification and its partial order.
fn e2_outcome_lattice() -> bool {
    println!("E2  Figure 3: outcome classes and preference order");
    let mut ok = true;
    println!("    entering  leaving   class");
    for (e, l, expected) in [
        ((2, 2), (2, 2), Outcome::Deal),
        ((0, 2), (0, 2), Outcome::NoDeal),
        ((1, 2), (0, 2), Outcome::FreeRide),
        ((2, 2), (1, 2), Outcome::Discount),
        ((1, 2), (2, 2), Outcome::Underwater),
    ] {
        let got = Outcome::classify(e, l);
        ok &= got == expected;
        println!("    {e:?}    {l:?}    {got:<10} (expect {expected})");
    }
    // Partial order generators + FreeRide incomparability.
    let order_ok = Outcome::Deal.is_better_than(Outcome::NoDeal)
        && Outcome::Discount.is_better_than(Outcome::Deal)
        && Outcome::FreeRide.is_better_than(Outcome::NoDeal)
        && Outcome::NoDeal.is_better_than(Outcome::Underwater)
        && !Outcome::FreeRide.is_comparable_with(Outcome::Deal);
    println!("    partial order (Underwater < NoDeal < Deal < Discount;");
    println!("    NoDeal < FreeRide; FreeRide ∥ Deal): {order_ok}");
    ok && order_ok
}

/// E3 (Theorem 3.5 ⇐): on strongly connected digraphs, every implemented
/// adversary leaves all conforming parties ≥ NoDeal.
fn e3_atomicity_under_adversaries() -> bool {
    println!("E3  Theorem 3.5 (atomicity, forward direction)");
    println!("    adversary sweep on random strongly connected digraphs\n");
    let kinds: [AdversaryKind; 5] = [
        ("halt", |r| Behavior::Halt { at_round: r % 8 }),
        ("withhold-secret", |_| Behavior::WithholdSecret),
        ("never-publish", |_| Behavior::NeverPublish { arcs: None }),
        ("premature-reveal", |_| Behavior::PrematureReveal),
        ("eager-publish", |_| Behavior::EagerPublish),
    ];
    let mut ok = true;
    println!("    adversary          runs   conforming-underwater");
    for (name, make) in kinds {
        let mut runs = 0;
        let mut violations = 0;
        for seed in 0..12u64 {
            let n = 3 + (seed % 3) as usize;
            let digraph =
                generators::random_strongly_connected(n, 0.3, &mut SimRng::from_seed(seed));
            let setup = SwapSetup::generate(
                digraph,
                &bench_setup_config(),
                &mut SimRng::from_seed(seed ^ 0xE3),
            )
            .expect("valid");
            let mut config = RunConfig::default();
            config.behaviors.insert(VertexId::new((seed % n as u64) as u32), make(seed));
            let report = SwapRunner::new(setup, config).run();
            runs += 1;
            if !report.no_conforming_underwater() {
                violations += 1;
            }
        }
        ok &= violations == 0;
        println!("    {name:<18} {runs:>4}   {violations}");
    }
    println!("\n    paper: zero conforming parties end Underwater — measured: {ok}");
    ok
}

/// E4 (Lemma 3.4 / Theorem 3.5 ⇒): on a non-strongly-connected digraph the
/// cut-off coalition free-rides profitably, so no uniform protocol is
/// atomic.
fn e4_freeride_impossibility() -> bool {
    println!("E4  Lemma 3.4: free ride on a non-strongly-connected digraph");
    let digraph = generators::bridged_cycles();
    println!("    digraph: two 3-cycles X={{x0,x1,x2}}, Y={{y0,y1,y2}}, bridge x0→y0");
    let n = digraph.vertex_count();
    let mut rng = SimRng::from_seed(0xE4);
    let keypairs: Vec<MssKeypair> =
        (0..n).map(|_| MssKeypair::from_seed_with_height(rng.bytes32(), 5)).collect();
    let secrets: Vec<Secret> = (0..n).map(|_| Secret::random(&mut rng)).collect();
    let x0 = digraph.vertex_by_name("x0").unwrap();
    let y0 = digraph.vertex_by_name("y0").unwrap();
    let delta = Delta::from_ticks(10);
    let spec = SwapSpec {
        leaders: vec![x0, y0],
        hashlocks: vec![secrets[x0.index()].hashlock(), secrets[y0.index()].hashlock()],
        addresses: keypairs.iter().map(|k| k.public_key().address()).collect(),
        keys: keypairs.iter().map(|k| k.public_key()).collect(),
        start: SimTime::ZERO + delta.times(1),
        delta,
        diam: digraph.diameter() as u64,
        broadcast_arcs: false,
        digraph: digraph.clone(),
    };
    println!("    honest validation rejects the swap: {}", spec.validate().is_err());
    let setup = SwapSetup::from_parts(spec, keypairs, secrets, SimTime::ZERO);
    let bridge = digraph.arcs_between(x0, y0)[0];
    let mut config = RunConfig::default();
    for name in ["x0", "x1", "x2"] {
        let v = digraph.vertex_by_name(name).unwrap();
        config.behaviors.insert(v, Behavior::Direct { skip_arcs: vec![bridge] });
    }
    let report = SwapRunner::new(setup, config).run();
    println!("\n    party   outcome      (X = deviating coalition)");
    let mut ok = true;
    for v in digraph.vertices() {
        let name = digraph.name(v);
        let o = report.outcomes[v.index()];
        println!("    {name:<7} {o}");
        if name.starts_with('x') {
            ok &= o == Outcome::Deal || o == Outcome::Discount || o == Outcome::FreeRide;
        } else {
            ok &= o == Outcome::NoDeal;
        }
    }
    ok &= report.outcomes[x0.index()] == Outcome::Discount;
    println!("\n    coalition ≥ Deal while withholding the bridge; Y stuck at NoDeal: {ok}");
    ok
}

/// E5 (Lemmas 4.1–4.3, Corollary 4.4): both pebble games cover every arc
/// within diam(D) rounds.
fn e5_pebble_games() -> bool {
    println!("E5  §4.4 pebble games: coverage within diam(D) rounds\n");
    let widths = [14, 4, 5, 5, 11, 11, 6];
    println!(
        "    {}",
        fmt_row(
            ["family", "n", "|A|", "diam", "lazy", "eager", "ok"].map(String::from).as_ref(),
            &widths
        )
    );
    let mut ok = true;
    let mut rng = SimRng::from_seed(0xE5);
    let mut families: Vec<(String, Digraph)> = Vec::new();
    for n in [3usize, 5, 8, 12] {
        families.push((format!("cycle({n})"), generators::cycle(n)));
    }
    for n in [3usize, 4, 5, 6] {
        families.push((format!("complete({n})"), generators::complete(n)));
    }
    for n in [3usize, 6, 9] {
        families.push((
            format!("random({n})"),
            generators::random_strongly_connected(n, 0.3, &mut rng),
        ));
    }
    families.push(("two-leader".into(), generators::two_leader_triangle()));
    families.push(("flower(3,4)".into(), generators::flower(3, 4)));
    for (name, d) in families {
        let diam = d.diameter() as u64;
        let leaders: BTreeSet<VertexId> =
            FeedbackVertexSet::greedy(&d).into_vertices().into_iter().collect();
        let mut lazy = LazyPebbleGame::new(&d, &leaders);
        let lazy_rounds = lazy.run_to_completion().expect("FVS leaders");
        let mut eager = EagerPebbleGame::new(&d, VertexId::new(0));
        let eager_rounds = eager.run_to_completion().expect("strongly connected");
        let row_ok = lazy_rounds <= diam && eager_rounds <= diam;
        ok &= row_ok;
        println!(
            "    {}",
            fmt_row(
                &[
                    name,
                    d.vertex_count().to_string(),
                    d.arc_count().to_string(),
                    diam.to_string(),
                    lazy_rounds.to_string(),
                    eager_rounds.to_string(),
                    if row_ok { "✓".into() } else { "✗".into() },
                ],
                &widths
            )
        );
    }
    println!("\n    paper: rounds ≤ diam(D) for both games — measured: {ok}");
    ok
}

/// E6 (Theorem 4.7): all-conforming completion within 2·diam(D)·Δ.
fn e6_completion_time() -> bool {
    println!("E6  Theorem 4.7: completion ≤ 2·diam(D)·Δ\n");
    let widths = [14, 4, 5, 10, 10, 7, 6];
    println!(
        "    {}",
        fmt_row(
            ["family", "n", "diam", "measured", "bound", "ratio", "ok"].map(String::from).as_ref(),
            &widths
        )
    );
    let mut ok = true;
    let mut cases: Vec<(String, Digraph)> = Vec::new();
    for n in [3usize, 5, 7, 9] {
        cases.push((format!("cycle({n})"), generators::cycle(n)));
    }
    for n in [3usize, 4, 5] {
        cases.push((format!("complete({n})"), generators::complete(n)));
    }
    cases.push(("star(5)".into(), generators::star(5)));
    cases.push(("two-leader".into(), generators::two_leader_triangle()));
    cases.push(("flower(2,4)".into(), generators::flower(2, 4)));
    let mut rng = SimRng::from_seed(0xE6);
    for n in [4usize, 7, 10] {
        cases.push((
            format!("random({n})"),
            generators::random_strongly_connected(n, 0.25, &mut rng),
        ));
    }
    for (name, digraph) in cases {
        let n = digraph.vertex_count();
        let setup =
            SwapSetup::generate(digraph, &bench_setup_config(), &mut SimRng::from_seed(0xE6))
                .expect("valid");
        let diam = setup.spec.diam;
        let start = setup.spec.start;
        let bound = setup.spec.worst_case_duration();
        let report = SwapRunner::new(setup, RunConfig::default()).run();
        let completion = match report.completion {
            Some(c) => c - start,
            None => {
                ok = false;
                println!("    {name}: DID NOT COMPLETE");
                continue;
            }
        };
        let row_ok = report.all_deal() && completion <= bound;
        ok &= row_ok;
        println!(
            "    {}",
            fmt_row(
                &[
                    name,
                    n.to_string(),
                    diam.to_string(),
                    format!("{}", completion.ticks()),
                    format!("{}", bound.ticks()),
                    format!("{:.2}", completion.ticks() as f64 / bound.ticks() as f64),
                    if row_ok { "✓".into() } else { "✗".into() },
                ],
                &widths
            )
        );
    }
    println!("\n    paper: completion ≤ 2·diam·Δ — measured: {ok}");
    ok
}

/// E7 (Theorem 4.9): exhaustive halting-failure sweep; no conforming party
/// ever ends Underwater.
fn e7_safety_sweep() -> bool {
    println!("E7  Theorem 4.9: exhaustive halt injection\n");
    let mut total = 0u64;
    let mut violations = 0u64;
    for (name, digraph) in [
        ("three-party", generators::herlihy_three_party()),
        ("two-leader", generators::two_leader_triangle()),
        ("cycle(4)", generators::cycle(4)),
    ] {
        let n = digraph.vertex_count();
        let rounds = 2 * digraph.diameter() as u64 + 4;
        for victim in 0..n as u32 {
            for round in 0..rounds {
                let setup = SwapSetup::generate(
                    digraph.clone(),
                    &bench_setup_config(),
                    &mut SimRng::from_seed(0xE7),
                )
                .expect("valid");
                let mut config = RunConfig::default();
                config.behaviors.insert(VertexId::new(victim), Behavior::Halt { at_round: round });
                let report = SwapRunner::new(setup, config).run();
                total += 1;
                if !report.no_conforming_underwater() {
                    violations += 1;
                }
            }
        }
        println!("    {name:<12} swept {} halt schedules", n as u64 * rounds);
    }
    println!("\n    {total} runs, {violations} conforming-underwater violations");
    violations == 0
}

/// E8 (Theorem 4.10): bits stored on all blockchains grow as O(|A|²).
fn e8_space_complexity() -> bool {
    println!("E8  Theorem 4.10: O(|A|²) space\n");
    let widths = [14, 6, 12, 14];
    println!(
        "    {}",
        fmt_row(["family", "|A|", "bytes", "bytes/|A|^2"].map(String::from).as_ref(), &widths)
    );
    let mut ratios = Vec::new();
    for n in [3usize, 4, 5, 6, 7] {
        let digraph = generators::complete(n);
        let arcs = digraph.arc_count();
        let report = run_conforming(digraph, 0xE8);
        let bytes = report.storage.contract_bytes;
        let ratio = bytes as f64 / (arcs * arcs) as f64;
        ratios.push(ratio);
        println!(
            "    {}",
            fmt_row(
                &[
                    format!("complete({n})"),
                    arcs.to_string(),
                    bytes.to_string(),
                    format!("{ratio:.1}"),
                ],
                &widths
            )
        );
    }
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    let ok = max / min < 4.0;
    println!("\n    bytes/|A|² ratio band: [{min:.1}, {max:.1}] — near-constant: {ok}");
    ok
}

/// E9: communication is |A|·|L| hashkey messages.
fn e9_communication() -> bool {
    println!("E9  Communication: |A|·|L| unlock messages\n");
    let widths = [14, 5, 4, 8, 8, 12];
    println!(
        "    {}",
        fmt_row(
            ["family", "|A|", "|L|", "|A|·|L|", "unlocks", "bytes"].map(String::from).as_ref(),
            &widths
        )
    );
    let mut ok = true;
    for (name, digraph) in [
        ("cycle(5)", generators::cycle(5)),
        ("cycle(8)", generators::cycle(8)),
        ("two-leader", generators::two_leader_triangle()),
        ("complete(4)", generators::complete(4)),
        ("complete(5)", generators::complete(5)),
        ("star(5)", generators::star(5)),
    ] {
        let arcs = digraph.arc_count() as u64;
        let setup =
            SwapSetup::generate(digraph, &bench_setup_config(), &mut SimRng::from_seed(0xE9))
                .expect("valid");
        let leaders = setup.spec.leaders.len() as u64;
        let report = SwapRunner::new(setup, RunConfig::default()).run();
        let row_ok = report.metrics.unlock_calls == arcs * leaders;
        ok &= row_ok && report.all_deal();
        println!(
            "    {}",
            fmt_row(
                &[
                    name.to_string(),
                    arcs.to_string(),
                    leaders.to_string(),
                    (arcs * leaders).to_string(),
                    report.metrics.unlock_calls.to_string(),
                    report.metrics.unlock_bytes.to_string(),
                ],
                &widths
            )
        );
    }
    println!("\n    unlock calls = |A|·|L| in every conforming run: {ok}");
    ok
}

/// E10 (Figure 6 / §4.6): timeout assignment exists iff the follower
/// subdigraph is acyclic; the Lemma 4.13 ladder reproduces Figure 1.
fn e10_figure6_timeouts() -> bool {
    println!("E10 Figure 6: timeout feasibility\n");
    let tri = generators::herlihy_three_party();
    let alice = tri.vertex_by_name("alice").unwrap();
    let single: BTreeSet<VertexId> = [alice].into();
    let feasible_single = timeout_assignment_feasible(&tri, &single);
    let two = generators::two_leader_triangle();
    let one_claimed: BTreeSet<VertexId> = [VertexId::new(0)].into();
    let infeasible_two = !timeout_assignment_feasible(&two, &one_claimed);
    println!("    single-leader triangle, leader {{A}}: feasible = {feasible_single}");
    println!("    two-leader triangle, claiming only {{A}}: feasible = {}", !infeasible_two);
    let timeouts =
        assign_timeouts(&tri, alice, SimTime::ZERO, Delta::from_ticks(10)).expect("single leader");
    let ticks: Vec<u64> = timeouts.iter().map(|t| t.ticks() / 10).collect();
    println!("    Lemma 4.13 ladder on C₃ (in Δ): {ticks:?}  (paper: [6, 5, 4])");
    let ladder_ok = ticks == vec![6, 5, 4];
    // And the §4.6 protocol actually runs on it — through the same
    // event-driven engine as the hashkey protocol.
    let setup = SwapSetup::generate(tri, &bench_setup_config(), &mut SimRng::from_seed(0xE10))
        .expect("valid");
    let report = SwapInstance::new(0, setup, RunConfig::default())
        .with_protocol(ProtocolKind::Htlc)
        .run_lockstep();
    println!("    §4.6 protocol outcome: all Deal = {}", report.all_deal());
    feasible_single && infeasible_two && ladder_ok && report.all_deal()
}

/// E11 (Figure 7): hashkey path enumeration for the two-leader triangle.
fn e11_figure7_hashkeys() -> bool {
    println!("E11 Figure 7: hashkey paths of the two-leader digraph\n");
    let d = generators::two_leader_triangle();
    let leaders = [VertexId::new(0), VertexId::new(1)];
    let table = HashkeyTable::build(&d, &leaders);
    print!("{}", table.render(&d, &leaders));
    // Every arc must admit ≥1 hashkey per secret, and total counts match
    // the figure's enumeration.
    let mut ok = true;
    for row in &table.rows {
        for li in 0..leaders.len() {
            ok &= row.iter().any(|s| s.leader_index == li);
        }
    }
    println!("\n    every arc unlockable for every secret: {ok}");
    println!("    total admissible hashkeys: {}", table.total());
    ok
}

/// E12 (Figure 8): concurrent contract propagation from two leaders.
fn e12_figure8_propagation() -> bool {
    println!("E12 Figure 8: concurrent propagation, two leaders\n");
    let d = generators::two_leader_triangle();
    let leaders: BTreeSet<VertexId> = [VertexId::new(0), VertexId::new(1)].into();
    let mut game = LazyPebbleGame::new(&d, &leaders);
    let mut round = 1;
    let mut rounds_used = 0;
    loop {
        let placed = game.step();
        if placed.is_empty() {
            break;
        }
        let names: Vec<String> = placed
            .iter()
            .map(|&a| format!("{}→{}", d.name(d.head(a)), d.name(d.tail(a))))
            .collect();
        println!("    round {round}: {}", names.join(", "));
        rounds_used = round;
        round += 1;
        if game.all_pebbled() {
            break;
        }
    }
    // The protocol's observed publication rounds match.
    let report = run_conforming(generators::two_leader_triangle(), 0xE12);
    let publish_rounds: BTreeSet<u64> = report
        .trace
        .entries_of_kind("contract.published")
        .map(|e| e.time.ticks() / 10 + 1)
        .collect();
    println!(
        "    protocol publications visible at rounds: {publish_rounds:?} (pebbles: 1..={rounds_used})"
    );
    game.all_pebbled() && rounds_used == 2 && report.all_deal()
}

/// E13 (Theorem 4.12): leaders that are not an FVS deadlock Phase One.
fn e13_deadlock_without_fvs() -> bool {
    println!("E13 Theorem 4.12: non-FVS leader set deadlocks\n");
    let digraph = generators::two_leader_triangle();
    let n = digraph.vertex_count();
    let mut rng = SimRng::from_seed(0xE13);
    let keypairs: Vec<MssKeypair> =
        (0..n).map(|_| MssKeypair::from_seed_with_height(rng.bytes32(), 5)).collect();
    let secrets: Vec<Secret> = (0..n).map(|_| Secret::random(&mut rng)).collect();
    let alice = VertexId::new(0);
    let delta = Delta::from_ticks(10);
    let spec = SwapSpec {
        leaders: vec![alice],
        hashlocks: vec![secrets[0].hashlock()],
        addresses: keypairs.iter().map(|k| k.public_key().address()).collect(),
        keys: keypairs.iter().map(|k| k.public_key()).collect(),
        start: SimTime::ZERO + delta.times(1),
        delta,
        diam: digraph.diameter() as u64,
        broadcast_arcs: false,
        digraph: digraph.clone(),
    };
    println!("    honest validation rejects the spec: {}", spec.validate().is_err());
    let setup = SwapSetup::from_parts(spec, keypairs, secrets, SimTime::ZERO);
    let report = SwapRunner::new(setup, RunConfig::default()).run();
    let unpublished: Vec<String> = digraph
        .arcs()
        .filter(|a| !report.arc_triggered[a.id.index()])
        .map(|a| format!("{}→{}", digraph.name(a.head), digraph.name(a.tail)))
        .collect();
    println!("    arcs that never triggered (waits-for cycle): {unpublished:?}");
    println!("    published contracts: {}", report.metrics.contracts_published);
    let bob_carol_stuck = !report.arc_triggered.iter().all(|&t| t);
    let safe = report.no_conforming_underwater();
    println!("    deadlock observed: {bob_carol_stuck}; conforming safe: {safe}");
    bob_carol_stuck && safe
}

/// E14 (§5 remarks): extensions — multigraphs, broadcast short-circuit,
/// FVS heuristic quality, DoS lock-up cost.
fn e14_extensions() -> bool {
    println!("E14 §5 extensions\n");
    let mut ok = true;

    // Multigraph swap (Alice pays Bob on two distinct chains).
    let report = run_conforming(generators::multigraph_pair(), 0xE14);
    println!("    multigraph pair (parallel arcs): all Deal = {}", report.all_deal());
    ok &= report.all_deal();

    // Broadcast optimization: Phase Two span stays constant as n grows.
    let mut plain_spans = Vec::new();
    let mut broadcast_spans = Vec::new();
    for n in [4usize, 6, 8] {
        for broadcast in [false, true] {
            let mut setup = SwapSetup::generate(
                generators::cycle(n),
                &bench_setup_config(),
                &mut SimRng::from_seed(0xE14),
            )
            .expect("valid");
            setup.spec.broadcast_arcs = broadcast;
            let report = SwapRunner::new(setup, RunConfig::default()).run();
            let first = report.triggered_at.iter().filter_map(|&t| t).min().unwrap();
            let span = (report.completion.unwrap() - first).ticks();
            if broadcast {
                broadcast_spans.push(span);
            } else {
                plain_spans.push(span);
            }
        }
    }
    println!(
        "    phase-two span on cycles n=4,6,8: plain {plain_spans:?}, broadcast {broadcast_spans:?}"
    );
    let bc_ok = broadcast_spans.iter().all(|&s| s == broadcast_spans[0])
        && plain_spans.windows(2).all(|w| w[1] > w[0]);
    println!("    broadcast short-circuit keeps Phase Two constant: {bc_ok}");
    ok &= bc_ok;

    // FVS heuristic quality.
    println!("\n    FVS exact vs greedy:");
    let mut rng = SimRng::from_seed(0x14F);
    for n in [6usize, 8, 10] {
        let d = generators::random_strongly_connected(n, 0.3, &mut rng);
        let exact = FeedbackVertexSet::minimum(&d).map(|f| f.vertices().len());
        let greedy = FeedbackVertexSet::greedy(&d).vertices().len();
        println!("      random({n}): exact {exact:?}, greedy {greedy}");
        if let Some(e) = exact {
            ok &= greedy >= e;
        }
    }

    // DoS lock-up: an adversary who never completes ties up assets until
    // refund — measure the lock-up window.
    let setup = SwapSetup::generate(
        generators::herlihy_three_party(),
        &bench_setup_config(),
        &mut SimRng::from_seed(0xD05),
    )
    .expect("valid");
    let leader = setup.spec.leaders[0];
    let start = setup.spec.start;
    let dead = setup.spec.all_hashkeys_dead();
    let mut config = RunConfig::default();
    config.behaviors.insert(leader, Behavior::WithholdSecret);
    let report = SwapRunner::new(setup, config).run();
    let refund_time = report.trace.last_time_of_kind("arc.refunded");
    println!(
        "\n    DoS lock-up: assets escrowed from ~{start}, refundable at {dead}, refunded at {:?}",
        refund_time.map(|t| t.to_string())
    );
    ok &= refund_time.is_some() && report.no_conforming_underwater();
    ok
}

/// E15 (event-driven engine): the `PerChainLatency` timing model —
/// heterogeneous publish/confirm delays per chain under a dominating Δ.
/// Protocol outcomes and the Theorem 4.7 completion bound must survive
/// unchanged while trigger instants move off the lockstep mid-round grid,
/// and adversarial-timing schedules must stay safe (Theorem 4.9).
fn e15_timing_models() -> bool {
    println!("E15 Per-chain latency timing model (Δ dominates the worst chain)\n");
    let widths = [14, 10, 10, 8, 10, 6];
    println!(
        "    {}",
        fmt_row(
            ["family", "lockstep", "latency", "bound", "off-grid", "ok"].map(String::from).as_ref(),
            &widths
        )
    );
    let mut ok = true;
    for (name, digraph) in [
        ("cycle(6)", generators::cycle(6)),
        ("two-leader", generators::two_leader_triangle()),
        ("complete(4)", generators::complete(4)),
        ("flower(3,3)", generators::flower(3, 3)),
    ] {
        let rng = SimRng::from_seed(0xE15);
        let setup =
            SwapSetup::generate(digraph, &bench_setup_config(), &mut rng.clone()).expect("valid");
        let start = setup.spec.start;
        let delta = setup.spec.delta;
        let bound = setup.spec.worst_case_duration();
        let timing = PerChainLatency::sample(&setup, &rng);
        let lockstep = SwapRunner::new(setup.clone(), RunConfig::default()).run();
        let latency = Engine::new(setup, RunConfig::default(), timing).run();
        let lockstep_done = lockstep.completion.expect("conforming completes") - start;
        let latency_done = latency.completion.expect("conforming completes") - start;
        // Same protocol, different transaction instants: trigger times must
        // leave the lockstep mid-round grid somewhere. Offsets are taken
        // relative to round 0's opening (start − Δ) so the check holds for
        // any epoch alignment.
        let t0 = start - delta.duration();
        let off_grid = latency
            .triggered_at
            .iter()
            .flatten()
            .filter(|t| (**t - t0).ticks() % delta.ticks() != delta.ticks() / 2)
            .count();
        let row_ok = lockstep.all_deal()
            && latency.all_deal()
            && lockstep.outcomes == latency.outcomes
            && lockstep.metrics.unlock_calls == latency.metrics.unlock_calls
            && latency_done <= bound
            && off_grid > 0;
        ok &= row_ok;
        println!(
            "    {}",
            fmt_row(
                &[
                    name.to_string(),
                    lockstep_done.ticks().to_string(),
                    latency_done.ticks().to_string(),
                    bound.ticks().to_string(),
                    off_grid.to_string(),
                    if row_ok { "✓".into() } else { "✗".into() },
                ],
                &widths
            )
        );
    }

    // Adversarial timing sweep: halts and secret withholding under
    // heterogeneous latencies never drag a conforming party underwater.
    let mut runs = 0u64;
    let mut violations = 0u64;
    for seed in 0..8u64 {
        let digraph = generators::random_strongly_connected(
            3 + (seed % 3) as usize,
            0.3,
            &mut SimRng::from_seed(seed),
        );
        let n = digraph.vertex_count() as u64;
        let rng = SimRng::from_seed(seed ^ 0xE15);
        let setup =
            SwapSetup::generate(digraph, &bench_setup_config(), &mut rng.clone()).expect("valid");
        let timing = PerChainLatency::sample(&setup, &rng);
        let mut config = RunConfig::default();
        let behavior = if seed % 2 == 0 {
            Behavior::Halt { at_round: seed % 6 }
        } else {
            Behavior::WithholdSecret
        };
        config.behaviors.insert(VertexId::new((seed % n) as u32), behavior);
        let report = Engine::new(setup, config, timing).run();
        runs += 1;
        if !report.no_conforming_underwater() {
            violations += 1;
        }
    }
    ok &= violations == 0;
    println!("\n    adversarial-timing sweep: {runs} runs, {violations} conforming-underwater");
    println!("    outcomes invariant under chain heterogeneity, bounds hold: {ok}");
    ok
}

/// E16 (exchange pipeline): continuous clearing feeding parallel
/// multi-swap execution on the worker pool. Sweeps offer-book size ×
/// worker threads: every ring must clear and settle, and the aggregate
/// `ExchangeReport` must be byte-invariant under thread count (the pool is
/// a wall-clock knob, never a semantic one). Timings for the whole sweep
/// land in `target/BENCH_E16.json` via the hand-rolled JSON writer, for
/// the perf trajectory.
fn e16_exchange_pipeline() -> bool {
    use std::time::Instant;
    use swap_bench::json;
    use swap_core::exchange::{Exchange, ExchangeConfig, ExchangeParty};
    use swap_market::AssetKind;

    println!("E16 Exchange pipeline: offers → epoch clearing → pooled execution\n");
    let widths = [8, 8, 8, 8, 10, 12, 4];
    println!(
        "    {}",
        fmt_row(
            ["rings", "threads", "offers", "settled", "ms", "swaps/sec", "ok"]
                .map(String::from)
                .as_ref(),
            &widths
        )
    );

    // A book of `rings` disjoint 3-party cycles, deterministic per size.
    let book = |rings: usize| -> Vec<ExchangeParty> {
        let mut rng = SimRng::from_seed(0xE16 + rings as u64);
        let mut parties = Vec::with_capacity(rings * 3);
        for r in 0..rings {
            for p in 0..3 {
                parties.push(ExchangeParty::generate(
                    &mut rng,
                    4,
                    AssetKind::new(format!("r{r}k{p}")),
                    AssetKind::new(format!("r{r}k{}", (p + 1) % 3)),
                ));
            }
        }
        parties
    };

    let mut ok = true;
    struct Row {
        rings: usize,
        threads: usize,
        offers: usize,
        settled: u64,
        elapsed_ms: f64,
        swaps_per_sec: f64,
        report: swap_core::exchange::ExchangeReport,
    }
    let mut rows: Vec<Row> = Vec::new();
    for rings in [4usize, 8, 16] {
        let parties = book(rings);
        let mut baseline: Option<swap_core::exchange::ExchangeReport> = None;
        for threads in [1usize, 2, 4, 8] {
            let clock = Instant::now();
            let mut exchange = Exchange::new(ExchangeConfig { threads, ..Default::default() });
            for p in &parties {
                exchange.submit(p.clone());
            }
            let executed = exchange.drive_until_quiescent().expect("honest book clears");
            let elapsed = clock.elapsed();
            let report = exchange.into_report();
            let elapsed_ms = elapsed.as_secs_f64() * 1e3;
            let swaps_per_sec = executed.len() as f64 / elapsed.as_secs_f64();
            let row_ok = report.swaps_settled == rings as u64
                && report.swaps_refunded == 0
                && baseline.as_ref().map_or(true, |b| *b == report);
            ok &= row_ok;
            println!(
                "    {}",
                fmt_row(
                    &[
                        rings.to_string(),
                        threads.to_string(),
                        parties.len().to_string(),
                        report.swaps_settled.to_string(),
                        format!("{elapsed_ms:.1}"),
                        format!("{swaps_per_sec:.1}"),
                        if row_ok { "✓".into() } else { "✗".into() },
                    ],
                    &widths
                )
            );
            baseline.get_or_insert_with(|| report.clone());
            rows.push(Row {
                rings,
                threads,
                offers: parties.len(),
                settled: report.swaps_settled,
                elapsed_ms,
                swaps_per_sec,
                report,
            });
        }
        // The pipeline's semantic concurrency, independent of host cores:
        // all in-flight swaps share one epoch wall, so the epoch costs one
        // swap's simulated duration instead of the sum.
        let report = &rows.last().expect("just pushed").report;
        let delta_ticks = ExchangeConfig::default().delta.ticks();
        let sequential_ticks: u64 = report.swaps.iter().map(|s| (s.rounds + 1) * delta_ticks).sum();
        println!(
            "    {rings} in-flight swaps: {} sim ticks per epoch vs {} run back-to-back ({:.1}×)",
            report.wall_ticks,
            sequential_ticks,
            sequential_ticks as f64 / report.wall_ticks as f64
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("    host parallelism: {cores} core(s) — thread-count wall-clock gains need > 1");

    let doc = json::object(|o| {
        o.field_str("experiment", "e16")
            .field_str("name", "exchange pipeline: book size × worker threads")
            .field_usize(
                "host_parallelism",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .field_array("rows", |arr| {
                for row in &rows {
                    arr.push_object(|o| {
                        o.field_usize("rings", row.rings)
                            .field_usize("threads", row.threads)
                            .field_usize("offers", row.offers)
                            .field_u64("swaps_settled", row.settled)
                            .field_f64("elapsed_ms", row.elapsed_ms)
                            .field_f64("swaps_per_sec", row.swaps_per_sec)
                            .field_object("report", |r| {
                                json::exchange_report_fields(r, &row.report)
                            });
                    });
                }
            });
    });
    match json::write_bench_json("E16", &doc) {
        Ok(path) => println!("\n    wrote {}", path.display()),
        Err(e) => {
            println!("\n    could not write BENCH_E16.json: {e}");
            ok = false;
        }
    }
    println!("    reports invariant under thread count, all rings settled: {ok}");
    ok
}

/// E17 (protocol axis): single-leader HTLCs vs the general hashkey
/// protocol on the same cleared-book sweep. The exchange auto-selects per
/// cycle (every simple trade cycle is single-leader feasible, so auto
/// books run entirely on HTLCs); the forced-hashkey baseline runs the
/// identical books through the general protocol. Both must settle every
/// ring; the HTLC path must store and transmit strictly less. Timings and
/// byte counts land in `target/BENCH_E17.json`.
fn e17_protocol_selection() -> bool {
    use std::time::Instant;
    use swap_bench::json;
    use swap_core::exchange::{Exchange, ExchangeConfig, ExchangeParty, ProtocolPolicy};
    use swap_core::ProtocolKind;
    use swap_market::AssetKind;

    println!("E17 Protocol selection: §4.6 HTLCs vs hashkeys on cleared books\n");
    let widths = [8, 14, 8, 12, 12, 10, 4];
    println!(
        "    {}",
        fmt_row(
            ["rings", "policy", "settled", "storage B", "unlock B", "ms", "ok"]
                .map(String::from)
                .as_ref(),
            &widths
        )
    );

    // Books of disjoint rings with mixed cycle lengths, deterministic per
    // size; ring r has 2 + (r mod 4) parties.
    let book = |rings: usize| -> Vec<ExchangeParty> {
        let mut rng = SimRng::from_seed(0xE17 + rings as u64);
        let mut parties = Vec::new();
        for r in 0..rings {
            let len = 2 + r % 4;
            for p in 0..len {
                parties.push(ExchangeParty::generate(
                    &mut rng,
                    4,
                    AssetKind::new(format!("r{r}k{p}")),
                    AssetKind::new(format!("r{r}k{}", (p + 1) % len)),
                ));
            }
        }
        parties
    };

    struct Row {
        rings: usize,
        policy: &'static str,
        settled: u64,
        storage_bytes: usize,
        unlock_bytes: u64,
        elapsed_ms: f64,
    }
    let mut ok = true;
    let mut rows: Vec<Row> = Vec::new();
    for rings in [4usize, 8, 16] {
        let parties = book(rings);
        let mut per_policy: Vec<swap_core::exchange::ExchangeReport> = Vec::new();
        for (policy, label) in
            [(ProtocolPolicy::Auto, "auto"), (ProtocolPolicy::ForceHashkey, "force-hashkey")]
        {
            let clock = Instant::now();
            let mut exchange =
                Exchange::new(ExchangeConfig { protocol: policy, ..Default::default() });
            for p in &parties {
                exchange.submit(p.clone());
            }
            exchange.drive_until_quiescent().expect("honest book clears");
            let elapsed_ms = clock.elapsed().as_secs_f64() * 1e3;
            let report = exchange.into_report();
            let expected = match policy {
                ProtocolPolicy::Auto => ProtocolKind::Htlc,
                ProtocolPolicy::ForceHashkey => ProtocolKind::Hashkey,
            };
            let unlock_bytes: u64 = report.swaps.iter().map(|s| s.metrics.unlock_bytes).sum();
            let row_ok = report.swaps_settled == rings as u64
                && report.swaps_refunded == 0
                && report.swaps.iter().all(|s| s.protocol == expected);
            ok &= row_ok;
            println!(
                "    {}",
                fmt_row(
                    &[
                        rings.to_string(),
                        label.to_string(),
                        report.swaps_settled.to_string(),
                        report.storage.total_bytes().to_string(),
                        unlock_bytes.to_string(),
                        format!("{elapsed_ms:.1}"),
                        if row_ok { "✓".into() } else { "✗".into() },
                    ],
                    &widths
                )
            );
            rows.push(Row {
                rings,
                policy: label,
                settled: report.swaps_settled,
                storage_bytes: report.storage.total_bytes(),
                unlock_bytes,
                elapsed_ms,
            });
            per_policy.push(report);
        }
        // The §4.6 win, measured: auto (all-HTLC) stores and transmits
        // strictly less than the forced-hashkey baseline on the same book.
        let auto = &per_policy[0];
        let forced = &per_policy[1];
        let cheaper = auto.storage.total_bytes() < forced.storage.total_bytes();
        ok &= cheaper;
        println!(
            "    {rings} rings: htlc/hashkey storage = {:.3}, settled {} = {}",
            auto.storage.total_bytes() as f64 / forced.storage.total_bytes() as f64,
            auto.swaps_settled,
            forced.swaps_settled,
        );
        ok &= auto.swaps_settled == forced.swaps_settled;
    }

    let doc = json::object(|o| {
        o.field_str("experiment", "e17")
            .field_str("name", "protocol selection: htlc auto-select vs forced hashkey")
            .field_array("rows", |arr| {
                for row in &rows {
                    arr.push_object(|o| {
                        o.field_usize("rings", row.rings)
                            .field_str("policy", row.policy)
                            .field_u64("swaps_settled", row.settled)
                            .field_usize("storage_bytes", row.storage_bytes)
                            .field_u64("unlock_bytes", row.unlock_bytes)
                            .field_f64("elapsed_ms", row.elapsed_ms);
                    });
                }
            });
    });
    match json::write_bench_json("E17", &doc) {
        Ok(path) => println!("\n    wrote {}", path.display()),
        Err(e) => {
            println!("\n    could not write BENCH_E17.json: {e}");
            ok = false;
        }
    }
    println!("    auto-selection settles everything on HTLCs, strictly cheaper: {ok}");
    ok
}

/// E18 (multi-epoch pipelining): stage-overlapped vs batch driving of a
/// rolling book. Five submission waves roll through the exchange; batch
/// driving drains each epoch before the next wave is submitted, pipelined
/// driving submits wave w+1 the instant epoch w enters `Executing`, so
/// epoch w+1's clearing and provisioning run in the shadow of epoch w's
/// execution. Stage latencies are modeled explicitly (`StageCosts`), and
/// the per-stage wall-tick attribution must sum to the total in both
/// modes. The pipelined total must be *strictly* lower than batch at every
/// worker count {1, 2, 8}, and identical across worker counts (sharding
/// is host wall-clock only). Results land in `target/BENCH_E18.json`.
fn e18_multi_epoch_pipelining() -> bool {
    use std::time::Instant;
    use swap_bench::json;
    use swap_core::exchange::{
        EpochStage, Exchange, ExchangeConfig, ExchangeParty, ExchangeReport, StageCosts, StepEvent,
    };
    use swap_market::AssetKind;

    const WAVES: usize = 5;
    const WAVE_RINGS: usize = 3;

    println!("E18 Multi-epoch pipelining: overlapped vs batch driving, {WAVES}-wave book\n");
    let widths = [8, 11, 8, 8, 10, 26, 10, 4];
    println!(
        "    {}",
        fmt_row(
            ["workers", "mode", "epochs", "settled", "wall", "clear/prov/exec/settle", "ms", "ok"]
                .map(String::from)
                .as_ref(),
            &widths
        )
    );

    let costs = StageCosts {
        clearing_base: 10,
        clearing_per_examined: 1,
        clearing_per_cycle: 1,
        provisioning_base: 5,
        provisioning_per_party: 1,
        settling_base: 5,
        settling_per_swap: 1,
    };
    // Wave w: disjoint rings with mixed cycle lengths 2..=4, deterministic.
    let wave = |w: usize| -> Vec<ExchangeParty> {
        let mut rng = SimRng::from_seed(0xE18 + w as u64);
        let mut parties = Vec::new();
        for r in 0..WAVE_RINGS {
            let len = 2 + (w + r) % 3;
            for p in 0..len {
                parties.push(ExchangeParty::generate(
                    &mut rng,
                    4,
                    AssetKind::new(format!("w{w}r{r}k{p}")),
                    AssetKind::new(format!("w{w}r{r}k{}", (p + 1) % len)),
                ));
            }
        }
        parties
    };

    let drive = |threads: usize, pipelined: bool| -> ExchangeReport {
        let mut exchange =
            Exchange::new(ExchangeConfig { threads, stage_costs: costs, ..Default::default() });
        if pipelined {
            let mut next = 0usize;
            for p in wave(next) {
                exchange.submit(p);
            }
            next += 1;
            loop {
                match exchange.step().expect("pipeline advances") {
                    StepEvent::StageEntered { stage: EpochStage::Executing, .. }
                        if next < WAVES =>
                    {
                        for p in wave(next) {
                            exchange.submit(p);
                        }
                        next += 1;
                    }
                    StepEvent::Quiescent => break,
                    _ => {}
                }
            }
            assert_eq!(next, WAVES, "every wave injected");
        } else {
            for w in 0..WAVES {
                for p in wave(w) {
                    exchange.submit(p);
                }
                exchange.drive_until_quiescent().expect("honest book settles");
            }
        }
        exchange.into_report()
    };

    struct Row {
        workers: usize,
        mode: &'static str,
        epochs: u64,
        settled: u64,
        wall_ticks: u64,
        elapsed_ms: f64,
        report: ExchangeReport,
    }
    let mut ok = true;
    let mut rows: Vec<Row> = Vec::new();
    let total_swaps = (WAVES * WAVE_RINGS) as u64;
    let mut pipelined_fingerprint: Option<String> = None;
    for workers in [1usize, 2, 8] {
        let mut walls = [0u64; 2];
        for (slot, (mode, pipelined)) in
            [("batch", false), ("pipelined", true)].into_iter().enumerate()
        {
            let clock = Instant::now();
            let report = drive(workers, pipelined);
            let elapsed_ms = clock.elapsed().as_secs_f64() * 1e3;
            walls[slot] = report.wall_ticks;
            let attribution_sums = report.stage_ticks.total() == report.wall_ticks;
            let row_ok = report.swaps_settled == total_swaps
                && report.swaps_refunded == 0
                && attribution_sums;
            ok &= row_ok;
            if pipelined {
                // Sharding must not change the simulated pipeline at all.
                let fp = format!("{report:?}");
                match &pipelined_fingerprint {
                    None => pipelined_fingerprint = Some(fp),
                    Some(base) => ok &= *base == fp,
                }
            }
            println!(
                "    {}",
                fmt_row(
                    &[
                        workers.to_string(),
                        mode.to_string(),
                        report.epochs.to_string(),
                        report.swaps_settled.to_string(),
                        report.wall_ticks.to_string(),
                        format!(
                            "{}/{}/{}/{}",
                            report.stage_ticks.clearing,
                            report.stage_ticks.provisioning,
                            report.stage_ticks.executing,
                            report.stage_ticks.settling
                        ),
                        format!("{elapsed_ms:.1}"),
                        if row_ok { "✓".into() } else { "✗".into() },
                    ],
                    &widths
                )
            );
            rows.push(Row {
                workers,
                mode,
                epochs: report.epochs,
                settled: report.swaps_settled,
                wall_ticks: report.wall_ticks,
                elapsed_ms,
                report,
            });
        }
        let strictly_lower = walls[1] < walls[0];
        ok &= strictly_lower;
        println!(
            "    workers={workers}: pipelined {} vs batch {} sim ticks ({:.2}x) — strictly lower: \
             {strictly_lower}",
            walls[1],
            walls[0],
            walls[0] as f64 / walls[1] as f64
        );
    }

    let doc = json::object(|o| {
        o.field_str("experiment", "e18")
            .field_str("name", "multi-epoch pipelining: overlapped vs batch driving")
            .field_usize("waves", WAVES)
            .field_usize("rings_per_wave", WAVE_RINGS)
            .field_array("rows", |arr| {
                for row in &rows {
                    arr.push_object(|o| {
                        o.field_usize("workers", row.workers)
                            .field_str("mode", row.mode)
                            .field_u64("epochs", row.epochs)
                            .field_u64("swaps_settled", row.settled)
                            .field_u64("wall_ticks", row.wall_ticks)
                            .field_f64("elapsed_ms", row.elapsed_ms)
                            .field_object("report", |r| {
                                json::exchange_report_fields(r, &row.report)
                            });
                    });
                }
            });
    });
    match json::write_bench_json("E18", &doc) {
        Ok(path) => println!("\n    wrote {}", path.display()),
        Err(e) => {
            println!("\n    could not write BENCH_E18.json: {e}");
            ok = false;
        }
    }
    println!("    pipelining strictly beats batch at every worker count, attribution sums: {ok}");
    ok
}

/// E19 (rolling-book worker pool): sustained throughput of the multi-slot
/// execution tier. Six submission waves roll through the exchange exactly
/// as in E18 (wave w+1 lands the instant epoch w enters `Executing`), and
/// the simulated execution budget — `executing_slots`, the tier's "sim
/// workers" — sweeps {1, 2, 8, 16}. More slots let more epochs reside in
/// `Executing` at once, so the simulated wall shrinks and sustained
/// swaps-per-kilotick rises monotonically from 1 → 8 (strictly at 1 → 2
/// and 2 → 8); at ≥ 2 slots at least two epochs are concurrently resident
/// (`executing_peak ≥ 2`). Host pool workers {1, 2, 8} are swept at every
/// slot count and must leave the report byte-identical — host threads buy
/// wall-clock only, never a different trace. Per-stage attribution must
/// sum to the wall everywhere. Results land in `target/BENCH_E19.json`.
fn e19_rolling_book_worker_pool() -> bool {
    use std::time::Instant;
    use swap_bench::json;
    use swap_core::exchange::{
        EpochStage, Exchange, ExchangeConfig, ExchangeParty, ExchangeReport, StageCosts, StepEvent,
    };
    use swap_market::AssetKind;

    const WAVES: usize = 6;
    const WAVE_RINGS: usize = 3;

    println!("E19 Rolling-book worker pool: execution slots × host threads, {WAVES}-wave book\n");
    let widths = [7, 9, 8, 8, 12, 6, 10, 8, 4];
    println!(
        "    {}",
        fmt_row(
            ["slots", "threads", "settled", "wall", "swaps/ktick", "peak", "occupancy", "ms", "ok"]
                .map(String::from)
                .as_ref(),
            &widths
        )
    );

    // Cheap stage latencies: clearing/provisioning/settling are visible in
    // the attribution but execution dominates, so epochs pile up behind
    // the `Executing` budget and the slot count is the bottleneck.
    let costs = StageCosts {
        clearing_base: 2,
        clearing_per_examined: 0,
        clearing_per_cycle: 0,
        provisioning_base: 2,
        provisioning_per_party: 0,
        settling_base: 2,
        settling_per_swap: 0,
    };
    // Wave w: disjoint rings with mixed cycle lengths 2..=4, deterministic.
    let wave = |w: usize| -> Vec<ExchangeParty> {
        let mut rng = SimRng::from_seed(0xE19 + w as u64);
        let mut parties = Vec::new();
        for r in 0..WAVE_RINGS {
            let len = 2 + (w + r) % 3;
            for p in 0..len {
                parties.push(ExchangeParty::generate(
                    &mut rng,
                    4,
                    AssetKind::new(format!("w{w}r{r}k{p}")),
                    AssetKind::new(format!("w{w}r{r}k{}", (p + 1) % len)),
                ));
            }
        }
        parties
    };

    let drive = |threads: usize, slots: usize| -> ExchangeReport {
        let mut exchange = Exchange::new(ExchangeConfig {
            threads,
            executing_slots: slots,
            stage_costs: costs,
            ..Default::default()
        });
        let mut next = 0usize;
        for p in wave(next) {
            exchange.submit(p);
        }
        next += 1;
        loop {
            match exchange.step().expect("pipeline advances") {
                StepEvent::StageEntered { stage: EpochStage::Executing, .. } if next < WAVES => {
                    for p in wave(next) {
                        exchange.submit(p);
                    }
                    next += 1;
                }
                StepEvent::Quiescent => break,
                _ => {}
            }
        }
        assert_eq!(next, WAVES, "every wave injected");
        exchange.into_report()
    };

    struct Row {
        slots: usize,
        threads: usize,
        settled: u64,
        wall_ticks: u64,
        swaps_per_ktick: f64,
        elapsed_ms: f64,
        swaps_per_sec: f64,
        report: ExchangeReport,
    }
    let mut ok = true;
    let mut rows: Vec<Row> = Vec::new();
    let total_swaps = (WAVES * WAVE_RINGS) as u64;
    let mut wall_of_slots: Vec<(usize, u64)> = Vec::new();
    for slots in [1usize, 2, 8, 16] {
        let mut fingerprint: Option<String> = None;
        for threads in [1usize, 2, 8] {
            let clock = Instant::now();
            let report = drive(threads, slots);
            let elapsed = clock.elapsed();
            let elapsed_ms = elapsed.as_secs_f64() * 1e3;
            let swaps_per_sec = report.swaps_settled as f64 / elapsed.as_secs_f64();
            let swaps_per_ktick = report.swaps_settled as f64 * 1e3 / report.wall_ticks as f64;
            let occupancy = report.executing_resident_ticks as f64 / report.wall_ticks as f64;
            let attribution_sums = report.stage_ticks.total() == report.wall_ticks;
            // Host workers must not change the simulated trace at all.
            let fp = format!("{report:?}");
            let invariant = fingerprint.get_or_insert_with(|| fp.clone()) == &fp;
            let row_ok = report.swaps_settled == total_swaps
                && report.swaps_refunded == 0
                && attribution_sums
                && (slots == 1 || report.executing_peak >= 2)
                && invariant;
            ok &= row_ok;
            println!(
                "    {}",
                fmt_row(
                    &[
                        slots.to_string(),
                        threads.to_string(),
                        report.swaps_settled.to_string(),
                        report.wall_ticks.to_string(),
                        format!("{swaps_per_ktick:.2}"),
                        report.executing_peak.to_string(),
                        format!("{occupancy:.2}"),
                        format!("{elapsed_ms:.1}"),
                        if row_ok { "✓".into() } else { "✗".into() },
                    ],
                    &widths
                )
            );
            rows.push(Row {
                slots,
                threads,
                settled: report.swaps_settled,
                wall_ticks: report.wall_ticks,
                swaps_per_ktick,
                elapsed_ms,
                swaps_per_sec,
                report,
            });
        }
        let wall = rows.last().expect("just pushed").wall_ticks;
        wall_of_slots.push((slots, wall));
    }

    // The acceptance curve: the same book settles the same swaps, so
    // sustained swaps/ktick improves exactly as the wall shrinks — it must
    // never regress as slots grow, and strictly improve through 1 → 2 → 8.
    let wall_at = |slots: usize| {
        wall_of_slots.iter().find(|&&(s, _)| s == slots).expect("swept slot count").1
    };
    let monotone = wall_of_slots.windows(2).all(|w| w[1].1 <= w[0].1);
    let strict = wall_at(2) < wall_at(1) && wall_at(8) < wall_at(2);
    ok &= monotone && strict;
    println!(
        "    sim walls by slots: {} — monotone: {monotone}, strict 1→2→8: {strict}",
        wall_of_slots.iter().map(|(s, w)| format!("{s}:{w}")).collect::<Vec<_>>().join("  ")
    );

    let doc = json::object(|o| {
        o.field_str("experiment", "e19")
            .field_str("name", "rolling-book worker pool: execution slots × host threads")
            .field_usize("waves", WAVES)
            .field_usize("rings_per_wave", WAVE_RINGS)
            .field_usize(
                "host_parallelism",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .field_array("rows", |arr| {
                for row in &rows {
                    arr.push_object(|o| {
                        o.field_usize("slots", row.slots)
                            .field_usize("threads", row.threads)
                            .field_u64("swaps_settled", row.settled)
                            .field_u64("wall_ticks", row.wall_ticks)
                            .field_f64("swaps_per_ktick", row.swaps_per_ktick)
                            .field_u64("executing_peak", row.report.executing_peak)
                            .field_f64("elapsed_ms", row.elapsed_ms)
                            .field_f64("swaps_per_sec", row.swaps_per_sec)
                            .field_object("report", |r| {
                                json::exchange_report_fields(r, &row.report)
                            });
                    });
                }
            });
    });
    match json::write_bench_json("E19", &doc) {
        Ok(path) => println!("\n    wrote {}", path.display()),
        Err(e) => {
            println!("\n    could not write BENCH_E19.json: {e}");
            ok = false;
        }
    }
    println!("    throughput monotone in slots, ≥2 epochs resident, report thread-invariant: {ok}");
    ok
}

/// E20 (incremental clearing index): clearing throughput as the book
/// scales 10² → 10⁵ (plus a 10⁶ smoke). Each run buries a small hot churn
/// set — mutual pairs for the two-cycle fast path plus one three-cycle
/// for the general matcher — inside an inert tail of offers whose kinds
/// have no counterparties, then times `clear()` alone over repeated
/// submit/clear/settle rounds. Each book is run twice: once publishing
/// the production planner's plan (`plan`, the incremental index, row
/// label `indexed`) and once publishing its specification's
/// (`plan_full_rescan`, row label `full-rescan`). The rescan re-examines
/// the whole open book every epoch, so its throughput collapses linearly
/// in the tail; the index touches only the active kinds, so its per-epoch
/// work is flat and measured `offers_examined` stays at the churn size.
/// Both planners must emit byte-identical cycle sequences, and at 10⁵
/// the index must clear ≥ 10× the offers/sec of the rescan. A second
/// part threads the measured work into the exchange pipeline: under
/// per-examined stage costs the dusted book is priced by its matchable
/// region, not its size, and zero-cost reports stay byte-identical across
/// host threads. Results land in `target/BENCH_E20.json`.
fn e20_incremental_clearing_index() -> bool {
    use std::time::Instant;
    use swap_bench::json;
    use swap_core::exchange::{Exchange, ExchangeConfig, ExchangeParty, StageCosts};
    use swap_crypto::{Digest32, MssPublicKey, Secret};
    use swap_market::{AssetKind, ClearPlan, ClearingService, Offer};

    type Planner = fn(&ClearingService) -> ClearPlan;
    const INDEXED: (&str, Planner) = ("indexed", ClearingService::plan);
    const FULL_RESCAN: (&str, Planner) = ("full-rescan", ClearingService::plan_full_rescan);

    const PAIRS: usize = 8;
    const TRI: usize = 3;
    const CHURN: usize = 2 * PAIRS + TRI;

    println!("E20 Incremental clearing index: churn throughput vs book size\n");
    let widths = [9, 12, 7, 10, 10, 7, 12, 11, 9, 4];
    println!(
        "    {}",
        fmt_row(
            [
                "book",
                "mode",
                "clears",
                "presented",
                "examined",
                "cycles",
                "offers/s",
                "cycles/s",
                "ms",
                "ok",
            ]
            .map(String::from)
            .as_ref(),
            &widths
        )
    );

    // Synthetic identity: a key minted straight from a root digest
    // (`MssPublicKey::from_root`) — valid address, no 2^h keygen, so
    // million-party books are buildable. Tail parties are shared mod 10⁴
    // to keep the per-address index compact at the smoke size.
    let synth = |tag: u64, gives: AssetKind, wants: AssetKind| -> Offer {
        let mut root = [0u8; 32];
        root[..8].copy_from_slice(&tag.to_le_bytes());
        root[8] = 0xE2;
        Offer {
            key: MssPublicKey::from_root(Digest32(root), 20),
            hashlock: Secret::from_bytes(preimage_tag(tag)).hashlock(),
            gives,
            wants,
        }
    };

    struct Row {
        book: usize,
        mode: &'static str,
        clears: u64,
        presented: u64,
        examined: u64,
        cycles: u64,
        elapsed_ms: f64,
        offers_per_sec: f64,
        cycles_per_sec: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut ok = true;
    let speedup_at = |rows: &[Row], book: usize| -> f64 {
        let rate = |mode: &str| {
            rows.iter().find(|r| r.book == book && r.mode == mode).map_or(0.0, |r| r.offers_per_sec)
        };
        rate(INDEXED.0) / rate(FULL_RESCAN.0).max(1e-12)
    };

    // One measured run: an inert tail of `book - CHURN` offers, then
    // `rounds` of submit-churn / clear / settle. Only plan + commit is
    // timed. Returns the cycle-sequence fingerprint for the
    // cross-planner pin.
    let run = |book: usize, rounds: u64, (mode, planner): (&'static str, Planner)| {
        let mut svc = ClearingService::new();
        let mut tag = 0u64;
        let mut fresh = |gives: AssetKind, wants: AssetKind| {
            tag += 1;
            synth(tag, gives, wants)
        };
        // Tail kinds are given but never wanted (and vice versa), so no
        // cycle can ever include them: the tail is open yet inert.
        for i in 0..book.saturating_sub(CHURN) {
            let shared = 1_000_000_000 + (i % 10_000) as u64;
            svc.submit(synth(shared, AssetKind::new("tail-gives"), AssetKind::new("tail-wants")));
        }
        let mut fingerprint = Vec::new();
        let (mut presented, mut examined, mut cycles) = (0u64, 0u64, 0u64);
        let mut elapsed = std::time::Duration::ZERO;
        for _ in 0..rounds {
            for p in 0..PAIRS {
                let (a, b) =
                    (AssetKind::new(format!("hot{p}a")), AssetKind::new(format!("hot{p}b")));
                svc.submit(fresh(a.clone(), b.clone()));
                svc.submit(fresh(b, a));
            }
            for t in 0..TRI {
                let gives = AssetKind::new(format!("tri{t}"));
                let wants = AssetKind::new(format!("tri{}", (t + 1) % TRI));
                svc.submit(fresh(gives, wants));
            }
            presented += svc.open_count() as u64;
            let clock = Instant::now();
            let plan = planner(&svc);
            let swaps = svc.commit(plan, Delta::from_ticks(10), SimTime::ZERO).expect("clears");
            elapsed += clock.elapsed();
            let stats = svc.last_clear_stats().expect("cleared once");
            examined += stats.offers_examined;
            cycles += stats.cycles_emitted;
            for swap in &swaps {
                fingerprint.push(format!("{:?}{:?}", swap.id, swap.offer_of_vertex));
                svc.settle_swap(swap.id).expect("fresh swap settles");
            }
        }
        let secs = elapsed.as_secs_f64().max(1e-9);
        let row = Row {
            book,
            mode,
            clears: rounds,
            presented,
            examined,
            cycles,
            elapsed_ms: secs * 1e3,
            offers_per_sec: presented as f64 / secs,
            cycles_per_sec: cycles as f64 / secs,
        };
        (row, fingerprint)
    };

    let print_row = |row: &Row, row_ok: bool| {
        println!(
            "    {}",
            fmt_row(
                &[
                    row.book.to_string(),
                    row.mode.to_string(),
                    row.clears.to_string(),
                    row.presented.to_string(),
                    row.examined.to_string(),
                    row.cycles.to_string(),
                    format!("{:.0}", row.offers_per_sec),
                    format!("{:.0}", row.cycles_per_sec),
                    format!("{:.2}", row.elapsed_ms),
                    if row_ok { "✓".into() } else { "✗".into() },
                ],
                &widths
            )
        );
    };

    let mut planners_agree = true;
    for (book, rounds) in
        [(100usize, 12u64), (1_000, 12), (10_000, 12), (100_000, 12), (1_000_000, 2)]
    {
        let (indexed, fp_indexed): (Row, Vec<String>) = run(book, rounds, INDEXED);
        let (full, fp_full) = run(book, rounds, FULL_RESCAN);
        let agree = fp_indexed == fp_full;
        planners_agree &= agree;
        // The index's measured work is the churn set, independent of the
        // tail; the rescan's grows with the book.
        let flat = indexed.examined < full.examined || book <= CHURN;
        let row_ok = agree && flat && indexed.cycles == full.cycles;
        ok &= row_ok;
        print_row(&indexed, row_ok);
        print_row(&full, row_ok);
        rows.push(indexed);
        rows.push(full);
    }
    let speedup = speedup_at(&rows, 100_000);
    let gate = speedup >= 10.0;
    ok &= gate;
    println!(
        "    indexed vs full-rescan offers/s at 10^5: {speedup:.0}x (target >= 10x): {}",
        if gate { "✓" } else { "✗" }
    );
    println!("    cycle sequences byte-identical across planners at every size: {planners_agree}");

    // Part two: the measured work priced into the pipeline. The dusted
    // book costs the exchange `clearing_base + examined + cycles`
    // simulated ticks — the matchable pair, not the 60 dust offers a
    // rescan would have walked — while zero costs keep reports
    // byte-identical across host pool widths.
    let dusted = |rng: &mut SimRng| -> Vec<ExchangeParty> {
        let mut parties = vec![
            ExchangeParty::generate(rng, 4, AssetKind::new("btc"), AssetKind::new("eth")),
            ExchangeParty::generate(rng, 4, AssetKind::new("eth"), AssetKind::new("btc")),
        ];
        for _ in 0..60 {
            parties.push(ExchangeParty::generate(
                rng,
                4,
                AssetKind::new("dust-gives"),
                AssetKind::new("dust-wants"),
            ));
        }
        parties
    };
    let drive = |threads: usize, costs: StageCosts| {
        let mut exchange =
            Exchange::new(ExchangeConfig { threads, stage_costs: costs, ..Default::default() });
        let mut rng = SimRng::from_seed(0xE20);
        let parties = dusted(&mut rng);
        let book = parties.len() as u64;
        for p in parties {
            exchange.submit(p);
        }
        exchange.drive_until_quiescent().expect("the pair settles");
        (exchange.into_report(), book)
    };
    let measured = StageCosts {
        clearing_base: 1,
        clearing_per_examined: 1,
        clearing_per_cycle: 1,
        ..Default::default()
    };
    let (priced_report, book) = drive(2, measured);
    let indexed_ticks = priced_report.stage_ticks.clearing;
    let priced = indexed_ticks < book;
    ok &= priced;
    println!(
        "    measured clearing ticks on the dusted book: {indexed_ticks} < {book} open offers: {}",
        if priced { "✓" } else { "✗" }
    );
    let mut invariant = true;
    let mut baseline: Option<String> = None;
    for threads in [1usize, 2, 8] {
        let fp = format!("{:?}", drive(threads, StageCosts::default()).0);
        invariant &= baseline.get_or_insert_with(|| fp.clone()) == &fp;
    }
    ok &= invariant;
    println!("    zero-cost reports byte-identical across 1/2/8 threads: {invariant}");

    let doc = json::object(|o| {
        o.field_str("experiment", "e20")
            .field_str("name", "incremental clearing index: churn throughput vs book size")
            .field_usize("churn_offers_per_round", CHURN)
            .field_f64("speedup_at_1e5", speedup)
            .field_bool("modes_agree", planners_agree)
            .field_u64("indexed_clearing_ticks", indexed_ticks)
            .field_bool("zero_cost_reports_invariant", invariant)
            .field_usize(
                "host_parallelism",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .field_array("rows", |arr| {
                for row in &rows {
                    arr.push_object(|o| {
                        o.field_usize("book", row.book)
                            .field_str("mode", row.mode)
                            .field_u64("clears", row.clears)
                            .field_u64("offers_presented", row.presented)
                            .field_u64("offers_examined", row.examined)
                            .field_u64("cycles", row.cycles)
                            .field_f64("elapsed_ms", row.elapsed_ms)
                            .field_f64("offers_per_sec", row.offers_per_sec)
                            .field_f64("cycles_per_sec", row.cycles_per_sec);
                    });
                }
            });
    });
    match json::write_bench_json("E20", &doc) {
        Ok(path) => println!("\n    wrote {}", path.display()),
        Err(e) => {
            println!("\n    could not write BENCH_E20.json: {e}");
            ok = false;
        }
    }
    println!("    index flat in book size, planners byte-identical, >=10x at 10^5: {ok}");
    ok
}

/// A distinct 32-byte hashlock preimage per synthetic-offer tag.
fn preimage_tag(tag: u64) -> [u8; 32] {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&tag.to_be_bytes());
    bytes[8] = 0x20;
    bytes
}

/// E21 (identity registry + crypto hot path): host swaps/sec on the E19
/// six-wave rolling book, three arms over identical trade terms:
///
/// * `fresh-inline` — the pre-registry baseline shape: every wave
///   regenerates its parties on the driving thread, so each of the 54
///   submissions pays a full `2^h` MSS keygen inside the measured window.
/// * `fresh-pool` — same fresh addresses, but minted *by the exchange* on
///   the worker pool (`submit_seeded`): waves ≥ 1 queue their keygen while
///   the previous wave's swaps execute, so
///   `mints_overlapping_execution = 45` and the keygen hides under
///   execution.
/// * `registry` — wave 0 registers each of the 9 addresses once
///   (pool-minted); waves ≥ 1 `resubmit` the same identities with fresh
///   secrets and terms. Keygen is paid once per *identity* instead of once
///   per wave, and provisioning leases disjoint one-time leaf windows.
///
/// Gates: every arm settles the same 18 swaps with a thread-invariant
/// report; the two fresh arms share one byte-identical simulated trace
/// (where the keys come from is a host-side detail the simulation must not
/// notice); and the registry arm sustains ≥ 5× the fresh-inline baseline's
/// swaps/sec. The registry arm's simulated wall is *longer* — a reused
/// address is reserved while its swap is in flight, so each wave's
/// resubmissions defer to the clearing after the previous wave settles.
/// That epoch serialization is the semantic price of one identity per
/// trader (a party can't be mid-swap twice), and the host still comes out
/// far ahead because keygen dominates. Results land in
/// `target/BENCH_E21.json`.
fn e21_identity_registry_throughput() -> bool {
    use std::time::Instant;
    use swap_bench::json;
    use swap_core::exchange::{
        EpochStage, Exchange, ExchangeConfig, ExchangeParty, ExchangeReport, PartySeed, StageCosts,
        StepEvent,
    };
    use swap_crypto::Address;
    use swap_market::AssetKind;

    const WAVES: usize = 6;
    const WAVE_RINGS: usize = 3;
    const KEY_HEIGHT: u32 = 6;
    const GATE: f64 = 5.0;

    println!(
        "E21 Identity registry + crypto hot path: rolling-book swaps/sec, {WAVES}-wave book\n"
    );
    let widths = [13, 9, 8, 6, 7, 8, 8, 10, 4];
    println!(
        "    {}",
        fmt_row(
            ["arm", "threads", "settled", "wall", "minted", "overlap", "ms", "swaps/sec", "ok"]
                .map(String::from)
                .as_ref(),
            &widths
        )
    );

    let costs = StageCosts {
        clearing_base: 2,
        provisioning_base: 2,
        settling_base: 2,
        ..Default::default()
    };
    // The trade terms of wave w: three disjoint rings, mixed cycle lengths
    // 2..=4 — always 9 slots per wave, so the registry arm can map wave
    // slot i onto the same identity every wave.
    let kinds = |w: usize| -> Vec<(AssetKind, AssetKind)> {
        let mut out = Vec::new();
        for r in 0..WAVE_RINGS {
            let len = 2 + (w + r) % 3;
            for p in 0..len {
                out.push((
                    AssetKind::new(format!("w{w}r{r}k{p}")),
                    AssetKind::new(format!("w{w}r{r}k{}", (p + 1) % len)),
                ));
            }
        }
        out
    };
    let fresh_seeds = |w: usize| -> Vec<PartySeed> {
        let mut rng = SimRng::from_seed(0xE21 + w as u64);
        kinds(w)
            .into_iter()
            .map(|(gives, wants)| PartySeed {
                seed: rng.bytes32(),
                key_height: KEY_HEIGHT,
                secret: Secret::random(&mut rng),
                gives,
                wants,
            })
            .collect()
    };

    #[derive(Clone, Copy, PartialEq)]
    enum Arm {
        FreshInline,
        FreshPool,
        Registry,
    }
    let label = |arm: Arm| match arm {
        Arm::FreshInline => "fresh-inline",
        Arm::FreshPool => "fresh-pool",
        Arm::Registry => "registry",
    };

    let drive = |arm: Arm, threads: usize| -> ExchangeReport {
        let mut exchange = Exchange::new(ExchangeConfig {
            threads,
            executing_slots: 8,
            stage_costs: costs,
            ..Default::default()
        });
        let mut secret_rng = SimRng::from_seed(0x5EC2E2);
        let mut registered: Vec<Address> = Vec::new();
        let inject = |exchange: &mut Exchange,
                      registered: &mut Vec<Address>,
                      secret_rng: &mut SimRng,
                      w: usize| {
            match arm {
                Arm::FreshInline => {
                    let mut rng = SimRng::from_seed(0xE21 + w as u64);
                    for (gives, wants) in kinds(w) {
                        exchange
                            .submit(ExchangeParty::generate(&mut rng, KEY_HEIGHT, gives, wants));
                    }
                }
                Arm::FreshPool => {
                    exchange.submit_seeded(fresh_seeds(w));
                }
                Arm::Registry if w == 0 => {
                    registered
                        .extend(exchange.submit_seeded(fresh_seeds(0)).into_iter().map(|(_, a)| a));
                }
                Arm::Registry => {
                    for (i, (gives, wants)) in kinds(w).into_iter().enumerate() {
                        exchange
                            .resubmit(registered[i], Secret::random(secret_rng), gives, wants)
                            .expect("every identity registered in wave 0");
                    }
                }
            }
        };
        inject(&mut exchange, &mut registered, &mut secret_rng, 0);
        let mut next = 1usize;
        loop {
            match exchange.step().expect("pipeline advances") {
                StepEvent::StageEntered { stage: EpochStage::Executing, .. } if next < WAVES => {
                    inject(&mut exchange, &mut registered, &mut secret_rng, next);
                    next += 1;
                }
                StepEvent::Quiescent => break,
                _ => {}
            }
        }
        assert_eq!(next, WAVES, "every wave injected");
        exchange.into_report()
    };

    struct Row {
        arm: &'static str,
        threads: usize,
        elapsed_ms: f64,
        swaps_per_sec: f64,
        report: ExchangeReport,
    }
    let total_swaps = (WAVES * WAVE_RINGS) as u64;
    let mut ok = true;
    let mut rows: Vec<Row> = Vec::new();
    let mut best: Vec<(&'static str, f64)> = Vec::new();
    let mut walls: Vec<u64> = Vec::new();
    for arm in [Arm::FreshInline, Arm::FreshPool, Arm::Registry] {
        let mut fingerprint: Option<String> = None;
        let mut best_sps = 0f64;
        for threads in [1usize, 2, 8] {
            let clock = Instant::now();
            let report = drive(arm, threads);
            let elapsed = clock.elapsed();
            let elapsed_ms = elapsed.as_secs_f64() * 1e3;
            let swaps_per_sec = report.swaps_settled as f64 / elapsed.as_secs_f64();
            best_sps = best_sps.max(swaps_per_sec);
            let fp = format!("{report:?}");
            let invariant = fingerprint.get_or_insert_with(|| fp.clone()) == &fp;
            let arm_ok = match arm {
                // The baseline mints nothing through the exchange.
                Arm::FreshInline => {
                    report.identities_minted == 0 && report.identities_registered == total_swaps * 3
                }
                // Pool-minted fresh identities: every wave after the first
                // queues its keygen while the previous wave executes.
                Arm::FreshPool => {
                    report.identities_minted == total_swaps * 3
                        && report.mints_overlapping_execution == total_swaps * 3 - 9
                }
                // Nine identities, minted once, leased every wave.
                Arm::Registry => {
                    report.identities_minted == 9
                        && report.identities_registered == 9
                        && report.leaves_leased > 0
                }
            };
            let row_ok = report.swaps_settled == total_swaps
                && report.swaps_refunded == 0
                && report.swaps_exhausted == 0
                && report.stage_ticks.total() == report.wall_ticks
                && invariant
                && arm_ok;
            ok &= row_ok;
            println!(
                "    {}",
                fmt_row(
                    &[
                        label(arm).to_string(),
                        threads.to_string(),
                        report.swaps_settled.to_string(),
                        report.wall_ticks.to_string(),
                        report.identities_minted.to_string(),
                        report.mints_overlapping_execution.to_string(),
                        format!("{elapsed_ms:.1}"),
                        format!("{swaps_per_sec:.0}"),
                        if row_ok { "✓".into() } else { "✗".into() },
                    ],
                    &widths
                )
            );
            walls.push(report.wall_ticks);
            rows.push(Row { arm: label(arm), threads, elapsed_ms, swaps_per_sec, report });
        }
        best.push((label(arm), best_sps));
    }

    // Where fresh keys are minted (inline vs pool) is a host-side detail:
    // both fresh arms must produce one byte-identical simulated trace.
    let fresh_wall = walls[0];
    let fresh_walls_agree = walls[..6].iter().all(|&w| w == fresh_wall);
    ok &= fresh_walls_agree;
    // The registry arm reuses addresses, and a reserved address defers its
    // next offer to the clearing after its in-flight swap settles — so its
    // epochs serialize and its simulated wall is strictly longer. Assert
    // the direction so the trade-off stays visible in the artifact.
    let registry_wall = walls[6];
    let registry_serializes =
        walls[6..].iter().all(|&w| w == registry_wall) && registry_wall > fresh_wall;
    ok &= registry_serializes;

    // The headline gate: amortized identities beat per-wave fresh keygen
    // by at least 5× in sustained host throughput.
    let sps_of = |name: &str| best.iter().find(|(n, _)| *n == name).expect("arm measured").1;
    let speedup = sps_of("registry") / sps_of("fresh-inline");
    let gate_met = speedup >= GATE;
    ok &= gate_met;
    println!(
        "\n    fresh walls identical: {fresh_walls_agree}; registry serializes \
         ({registry_wall} > {fresh_wall} ticks): {registry_serializes}; registry vs \
         fresh-inline: {speedup:.1}x (gate ≥ {GATE:.0}x: {gate_met})"
    );

    let doc = json::object(|o| {
        o.field_str("experiment", "e21")
            .field_str("name", "identity registry + crypto hot path: rolling-book swaps/sec")
            .field_usize("waves", WAVES)
            .field_usize("rings_per_wave", WAVE_RINGS)
            .field_u64("key_height", KEY_HEIGHT as u64)
            .field_f64("gate", GATE)
            .field_f64("speedup_vs_fresh", speedup)
            .field_u64("fresh_wall_ticks", fresh_wall)
            .field_u64("registry_wall_ticks", registry_wall)
            .field_usize(
                "host_parallelism",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .field_array("rows", |arr| {
                for row in &rows {
                    arr.push_object(|o| {
                        o.field_str("arm", row.arm)
                            .field_usize("threads", row.threads)
                            .field_u64("swaps_settled", row.report.swaps_settled)
                            .field_u64("wall_ticks", row.report.wall_ticks)
                            .field_u64("identities_minted", row.report.identities_minted)
                            .field_u64(
                                "mints_overlapping_execution",
                                row.report.mints_overlapping_execution,
                            )
                            .field_u64("leaves_leased", row.report.leaves_leased)
                            .field_f64("elapsed_ms", row.elapsed_ms)
                            .field_f64("swaps_per_sec", row.swaps_per_sec)
                            .field_object("report", |r| {
                                json::exchange_report_fields(r, &row.report)
                            });
                    });
                }
            });
    });
    match json::write_bench_json("E21", &doc) {
        Ok(path) => println!("\n    wrote {}", path.display()),
        Err(e) => {
            println!("\n    could not write BENCH_E21.json: {e}");
            ok = false;
        }
    }
    println!("    registry ≥ 5× fresh keygen, overlap attributed, traces thread-invariant: {ok}");
    ok
}

/// E22 (journaled transaction hot path): host tx/sec on one chain as the
/// asset registry scales 10² → 10⁵, under a fixed churn workload of
/// succeeding escrow toggles, failing calls (the rollback path), and
/// fresh contract publishes. The chain records an undo log of the ops a
/// transaction actually performs, so its per-tx cost is O(delta) and its
/// tx/sec stays flat across four decades. Gate: every size executes and
/// rolls back exactly the counts the workload prescribes. The tx/sec
/// spread across sizes is printed and recorded but gates nothing: it
/// times ~10 ms windows, which a shared host moves past any fixed bound,
/// and `benchmark/`'s bounded `chain.*_us` metrics watch the same cost.
/// (That a rolled-back transaction leaves no trace is the chain
/// proptest's job, not this experiment's.) Rates are host-dependent; the
/// counters and the gate are not. Results land in
/// `target/BENCH_E22.json`.
fn e22_journaled_tx_hot_path() -> bool {
    use std::time::Instant;
    use swap_bench::churn::{rigged_chain, Churn, ChurnCall};
    use swap_bench::json;
    use swap_chain::{AssetDescriptor, Blockchain, ContractId};
    use swap_crypto::{Address, Digest32};

    println!("E22 Journaled tx hot path: tx/sec vs registry size\n");
    let widths = [9, 10, 7, 10, 9, 9, 10, 4];
    println!(
        "    {}",
        fmt_row(
            ["assets", "mode", "ops", "tx/s", "executed", "rolled", "ms", "ok"]
                .map(String::from)
                .as_ref(),
            &widths
        )
    );

    let home = Address::from_digest(Digest32([0xE2; 32]));

    // The fixed churn workload: per 8 ops, six succeeding toggles, one
    // failing call (a rollback), one fresh publish (mint + escrow).
    let churn = |chain: &mut Blockchain<Churn>, id: ContractId, ops: u64| {
        let mut tick = 10u64;
        for i in 0..ops {
            tick += 1;
            let now = SimTime::from_ticks(tick);
            match i % 8 {
                3 => {
                    chain
                        .call_contract(id, home, ChurnCall::Fail, now, 16)
                        .expect_err("churn fail rejects");
                }
                7 => {
                    let asset = chain.mint_asset(AssetDescriptor::unique("c"), home, now);
                    chain
                        .publish_contract(Churn { asset, home, held: false }, home, now)
                        .expect("fresh churn publishes");
                }
                _ => {
                    chain
                        .call_contract(id, home, ChurnCall::Toggle, now, 16)
                        .map(<[_]>::len)
                        .expect("toggle succeeds");
                }
            }
        }
    };

    struct Row {
        assets: usize,
        elapsed_ms: f64,
        tx_per_sec: f64,
        executed: u64,
        rolled_back: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut ok = true;

    // A publish op seals two transactions (mint + publish), a failing
    // call seals none.
    const OPS: u64 = 20_000;
    for assets in [100usize, 1_000, 10_000, 100_000] {
        let (mut chain, id) = rigged_chain(home, assets);
        churn(&mut chain, id, 256); // warm caches outside the window
        let (executed0, rolled0) = (chain.txs_executed(), chain.txs_rolled_back());
        let clock = Instant::now();
        churn(&mut chain, id, OPS);
        let secs = clock.elapsed().as_secs_f64().max(1e-9);
        let row = Row {
            assets,
            elapsed_ms: secs * 1e3,
            tx_per_sec: OPS as f64 / secs,
            executed: chain.txs_executed() - executed0,
            rolled_back: chain.txs_rolled_back() - rolled0,
        };
        let counted = row.executed == OPS && row.rolled_back == OPS / 8;
        ok &= counted;
        println!(
            "    {}",
            fmt_row(
                &[
                    row.assets.to_string(),
                    "Journal".into(),
                    OPS.to_string(),
                    format!("{:.0}", row.tx_per_sec),
                    row.executed.to_string(),
                    row.rolled_back.to_string(),
                    format!("{:.2}", row.elapsed_ms),
                    if counted { "✓".into() } else { "✗".into() },
                ],
                &widths
            )
        );
        rows.push(row);
    }

    let (min, max) = rows
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), r| (lo.min(r.tx_per_sec), hi.max(r.tx_per_sec)));
    let spread = max / min.max(1e-12);
    println!("\n    journal tx/s spread across 10^2..10^5: {spread:.2}x (host timing, not gated)");

    let doc = json::object(|o| {
        o.field_str("experiment", "e22")
            .field_str("name", "journaled tx hot path: tx/sec vs registry size")
            .field_f64("journal_spread", spread)
            .field_usize(
                "host_parallelism",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .field_array("rows", |arr| {
                for row in &rows {
                    arr.push_object(|o| {
                        o.field_usize("assets", row.assets)
                            .field_str("mode", "Journal")
                            .field_u64("ops", OPS)
                            .field_f64("elapsed_ms", row.elapsed_ms)
                            .field_f64("tx_per_sec", row.tx_per_sec)
                            .field_u64("executed", row.executed)
                            .field_u64("rolled_back", row.rolled_back);
                    });
                }
            });
    });
    match json::write_bench_json("E22", &doc) {
        Ok(path) => println!("\n    wrote {}", path.display()),
        Err(e) => {
            println!("\n    could not write BENCH_E22.json: {e}");
            ok = false;
        }
    }
    println!("    journal flat in registry size, counters as prescribed: {ok}");
    ok
}

/// E23 (durable exchange): WAL-on vs WAL-off host overhead and
/// crash-recovery time as the resident book scales 10² → 10⁴. Each size
/// drives the same rolling churn (8 waves of 4 mutual pairs resubmitting
/// over a dust book of `n` never-matching offers) three ways: plain,
/// journaled to a `swap-store` WAL with periodic snapshots, and recovered
/// from that store. All three must yield byte-identical reports; at
/// n = 10⁴ journaling must keep ≥ 0.5× the plain throughput and recovery
/// (snapshot + WAL tail, no keygen) must beat re-running from genesis.
fn e23_durable_exchange() -> bool {
    use std::time::Instant;
    use swap_bench::json;
    use swap_core::exchange::{
        EpochStage, Exchange, ExchangeConfig, ExchangeReport, JournalConfig, PartySeed, StageCosts,
        StepEvent,
    };
    use swap_crypto::Address;
    use swap_market::AssetKind;

    const SIZES: [usize; 3] = [100, 1_000, 10_000];
    const WAVES: usize = 8;
    const PAIRS: usize = 4;
    const CHURN_HEIGHT: u32 = 6;
    const DUST_HEIGHT: u32 = 2;
    const SNAPSHOT_EVERY: u64 = 4;
    const OVERHEAD_GATE: f64 = 2.0; // WAL-on wall ≤ 2× WAL-off (≥ 0.5× throughput)

    println!(
        "E23 Durable exchange: WAL overhead + recovery time, {WAVES}-wave churn over dust books\n"
    );
    let widths = [7, 8, 6, 8, 9, 9, 9, 9, 4];
    println!(
        "    {}",
        fmt_row(
            ["n", "settled", "tail", "snap_B", "off_ms", "on_ms", "rec_ms", "speedup", "ok"]
                .map(String::from)
                .as_ref(),
            &widths
        )
    );

    let costs = StageCosts {
        clearing_base: 2,
        provisioning_base: 2,
        settling_base: 2,
        ..Default::default()
    };
    let config = || ExchangeConfig {
        threads: 2,
        executing_slots: 4,
        stage_costs: costs,
        ..Default::default()
    };
    // The churn terms: 4 mutual pairs, so every wave clears 4 two-party
    // swaps while the dust book just sits in the index.
    let churn_kinds = || -> Vec<(AssetKind, AssetKind)> {
        (0..PAIRS)
            .flat_map(|p| {
                let a = AssetKind::new(format!("p{p}a"));
                let b = AssetKind::new(format!("p{p}b"));
                [(a.clone(), b.clone()), (b, a)]
            })
            .collect()
    };
    let churn_seeds = || -> Vec<PartySeed> {
        let mut rng = SimRng::from_seed(0xE23);
        churn_kinds()
            .into_iter()
            .map(|(gives, wants)| PartySeed {
                seed: rng.bytes32(),
                key_height: CHURN_HEIGHT,
                secret: Secret::random(&mut rng),
                gives,
                wants,
            })
            .collect()
    };
    let dust_seeds = |n: usize| -> Vec<PartySeed> {
        let mut rng = SimRng::from_seed(0xD057);
        (0..n)
            .map(|i| PartySeed {
                seed: rng.bytes32(),
                key_height: DUST_HEIGHT,
                secret: Secret::random(&mut rng),
                gives: AssetKind::new(format!("dust{i}")),
                wants: AssetKind::new("void".to_string()),
            })
            .collect()
    };

    let drive = |n: usize, journal: Option<JournalConfig>| -> Exchange {
        let mut exchange = match journal {
            Some(j) => Exchange::with_journal(config(), j).expect("journal store opens"),
            None => Exchange::new(config()),
        };
        exchange.submit_seeded(dust_seeds(n));
        let churn: Vec<Address> =
            exchange.submit_seeded(churn_seeds()).into_iter().map(|(_, a)| a).collect();
        let kinds = churn_kinds();
        let mut secret_rng = SimRng::from_seed(0x5EC23);
        let mut next = 1usize;
        loop {
            match exchange.step().expect("pipeline advances") {
                StepEvent::StageEntered { stage: EpochStage::Executing, .. } if next < WAVES => {
                    for (i, (gives, wants)) in kinds.iter().enumerate() {
                        exchange
                            .resubmit(
                                churn[i],
                                Secret::random(&mut secret_rng),
                                gives.clone(),
                                wants.clone(),
                            )
                            .expect("churn identity registered in wave 0");
                    }
                    next += 1;
                }
                StepEvent::Quiescent => break,
                _ => {}
            }
        }
        assert_eq!(next, WAVES, "every wave injected");
        exchange
    };

    struct Row {
        n: usize,
        tail_records: u64,
        commands_replayed: u64,
        snapshot_seq: Option<u64>,
        snapshot_bytes: u64,
        identical: bool,
        wal_off_ms: f64,
        wal_on_ms: f64,
        recover_ms: f64,
        report: ExchangeReport,
    }
    let total_swaps = (WAVES * PAIRS) as u64;
    let mut ok = true;
    let mut rows: Vec<Row> = Vec::new();
    for &n in &SIZES {
        let journal = || JournalConfig {
            snapshot_every: SNAPSHOT_EVERY,
            ..JournalConfig::new(format!("target/e23/n{n}"))
        };

        let clock = Instant::now();
        let plain = drive(n, None).into_report();
        let wal_off_ms = clock.elapsed().as_secs_f64() * 1e3;

        let clock = Instant::now();
        let mut durable = drive(n, Some(journal()));
        durable.sync_journal().expect("journal syncs");
        let wal_on_ms = clock.elapsed().as_secs_f64() * 1e3;
        let journaled = durable.report().clone();
        drop(durable);

        let clock = Instant::now();
        let recovered = Exchange::recover(config(), journal()).expect("store recovers");
        let recover_ms = clock.elapsed().as_secs_f64() * 1e3;

        let snapshot_bytes: u64 = std::fs::read_dir(&journal().dir)
            .map(|dir| {
                dir.flatten()
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        let identical = plain == journaled && *recovered.exchange.report() == journaled;
        let row_ok = identical
            && journaled.swaps_settled == total_swaps
            && journaled.swaps_refunded == 0
            && journaled.swaps_exhausted == 0
            && journaled.offers_submitted >= n as u64 + total_swaps * 2
            && recovered.stats.snapshot_seq.is_some()
            && !recovered.stats.torn_tail;
        ok &= row_ok;
        println!(
            "    {}",
            fmt_row(
                &[
                    n.to_string(),
                    journaled.swaps_settled.to_string(),
                    recovered.stats.records_replayed.to_string(),
                    snapshot_bytes.to_string(),
                    format!("{wal_off_ms:.1}"),
                    format!("{wal_on_ms:.1}"),
                    format!("{recover_ms:.1}"),
                    format!("{:.1}x", wal_off_ms / recover_ms),
                    if row_ok { "✓".into() } else { "✗".into() },
                ],
                &widths
            )
        );
        rows.push(Row {
            n,
            tail_records: recovered.stats.records_replayed,
            commands_replayed: recovered.stats.commands_replayed,
            snapshot_seq: recovered.stats.snapshot_seq,
            snapshot_bytes,
            identical,
            wal_off_ms,
            wal_on_ms,
            recover_ms,
            report: journaled,
        });
    }

    // The headline gates, judged at the largest book only.
    let gate_row = rows.last().expect("sizes non-empty");
    let overhead = gate_row.wal_on_ms / gate_row.wal_off_ms;
    let speedup = gate_row.wal_off_ms / gate_row.recover_ms;
    let overhead_ok = overhead <= OVERHEAD_GATE;
    let recover_ok = gate_row.recover_ms < gate_row.wal_off_ms;
    ok &= overhead_ok && recover_ok;
    println!(
        "\n    at n = {}: WAL overhead {overhead:.2}x (gate ≤ {OVERHEAD_GATE:.0}x: {overhead_ok}); \
         recovery {speedup:.1}x faster than genesis re-run (gate > 1x: {recover_ok})",
        gate_row.n
    );

    let doc = json::object(|o| {
        o.field_str("experiment", "e23")
            .field_str("name", "durable exchange: WAL overhead + crash recovery time")
            .field_usize("waves", WAVES)
            .field_usize("churn_pairs", PAIRS)
            .field_u64("snapshot_every", SNAPSHOT_EVERY)
            .field_f64("overhead_gate", OVERHEAD_GATE)
            .field_f64("wal_overhead", overhead)
            .field_f64("recovery_speedup", speedup)
            .field_usize(
                "host_parallelism",
                std::thread::available_parallelism().map_or(1, |n| n.get()),
            )
            .field_array("rows", |arr| {
                for row in &rows {
                    arr.push_object(|o| {
                        o.field_usize("n", row.n)
                            .field_u64("epochs", row.report.epochs)
                            .field_u64("offers_submitted", row.report.offers_submitted)
                            .field_u64("swaps_settled", row.report.swaps_settled)
                            .field_u64("wal_tail_records", row.tail_records)
                            .field_u64("commands_replayed", row.commands_replayed)
                            .field_bool("snapshot_loaded", row.snapshot_seq.is_some())
                            .field_u64("snapshot_seq", row.snapshot_seq.unwrap_or(0))
                            .field_u64("snapshot_bytes", row.snapshot_bytes)
                            .field_bool("reports_identical", row.identical)
                            .field_f64("wal_off_ms", row.wal_off_ms)
                            .field_f64("wal_on_ms", row.wal_on_ms)
                            .field_f64("wal_overhead", row.wal_on_ms / row.wal_off_ms)
                            .field_f64("recover_ms", row.recover_ms)
                            .field_f64("recovery_speedup", row.wal_off_ms / row.recover_ms)
                            .field_object("report", |r| {
                                json::exchange_report_fields(r, &row.report)
                            });
                    });
                }
            });
    });
    match json::write_bench_json("E23", &doc) {
        Ok(path) => println!("\n    wrote {}", path.display()),
        Err(e) => {
            println!("\n    could not write BENCH_E23.json: {e}");
            ok = false;
        }
    }
    println!("    reports byte-identical, WAL ≤ 2x, recovery beats genesis re-run: {ok}");
    ok
}
