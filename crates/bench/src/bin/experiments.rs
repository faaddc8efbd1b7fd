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
//! E1–E14 follow the paper's figures and theorems in order; E15 adds the
//! event-driven engine's per-chain latency timing model. Any number of ids
//! may be named. Host time is not measured here — `benchmark/` judges it —
//! and the exchange's determinism gates live in `cargo test`.

use std::collections::BTreeSet;

use swap_bench::{bench_setup_config, fmt_row, run_conforming};
use swap_contract::SwapSpec;
use swap_core::hashkey::HashkeyTable;
use swap_core::runner::{RunConfig, SwapRunner};
use swap_core::setup::SwapSetup;
use swap_core::single_leader::timeout_assignment_feasible;
use swap_core::timing::PerChainLatency;
use swap_core::{assign_timeouts, Behavior, Engine, Outcome, ProtocolKind, SwapInstance, What};
use swap_crypto::{MssKeypair, Secret};
use swap_digraph::{generators, Digraph, FeedbackVertexSet, VertexId};
use swap_pebble::{EagerPebbleGame, LazyPebbleGame};
use swap_sim::{Delta, SimRng, SimTime};

/// One named experiment: its id and entry point.
type Experiment = (&'static str, fn() -> bool);

/// A named adversary constructor, parameterized by halting round.
type AdversaryKind = (&'static str, fn(u64) -> Behavior);

/// Every experiment, in the order a full run executes them.
const EXPERIMENTS: &[Experiment] = &[
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
];

/// The experiments `args` name, each once and in table order; no argument,
/// or `all` among them, selects the whole table. The first id the table
/// does not hold is the error, which says where E16–E23 went.
fn select(experiments: &[Experiment], args: &[String]) -> Result<Vec<Experiment>, String> {
    for arg in args {
        if arg != "all" && !experiments.iter().any(|(id, _)| id == arg) {
            let retired = arg.strip_prefix('e').and_then(|n| n.parse::<u32>().ok());
            return Err(if matches!(retired, Some(16..=23)) {
                format!(
                    "experiment `{arg}` is retired: host timing is `benchmark/`, \
                     determinism is `cargo test`"
                )
            } else {
                let known: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
                format!(
                    "unknown experiment `{arg}`; expected any of {}, or `all`",
                    known.join(", ")
                )
            });
        }
    }
    let everything = args.is_empty() || args.iter().any(|arg| arg == "all");
    Ok(experiments
        .iter()
        .filter(|(id, _)| everything || args.iter().any(|arg| arg == id))
        .copied()
        .collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = select(EXPERIMENTS, &args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    let mut results: Vec<(&str, bool)> = Vec::new();
    for (id, run) in selected {
        println!("\n{}", "=".repeat(76));
        results.push((id, run()));
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
    let is_publish: fn(&What) -> bool = |w| matches!(w, What::Published { .. });
    let is_trigger: fn(&What) -> bool = |w| matches!(w, What::Triggered { .. });
    for (is_row, expected) in [(is_publish, [1.0, 2.0, 3.0]), (is_trigger, [4.0, 5.0, 6.0])] {
        for (event, exp) in report.trace.events().iter().filter(|e| is_row(&e.what)).zip(expected) {
            let kind = event.what.kind();
            // Transactions execute mid-round; they are *visible* at the
            // round boundary, which is the paper's instant.
            let visible = (event.time.ticks() as f64 / delta).ceil();
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
        .events()
        .iter()
        .filter(|e| matches!(e.what, What::Published { .. }))
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
    let events = report.trace.events().iter();
    let refund_time =
        events.rev().find(|e| matches!(e.what, What::Refunded { .. })).map(|e| e.time);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|arg| arg.to_string()).collect();
        select(EXPERIMENTS, &args).map(|chosen| chosen.into_iter().map(|(id, _)| id).collect())
    }

    #[test]
    fn select_takes_any_number_of_ids() {
        assert_eq!(ids(&[]).unwrap().len(), 15);
        assert_eq!(ids(&["all"]).unwrap().len(), 15);
        assert_eq!(ids(&["e3", "all"]).unwrap().len(), 15);
        assert_eq!(ids(&["e6"]).unwrap(), ["e6"]);
        // Every named id runs, once, in table order.
        assert_eq!(ids(&["e7", "e3", "e7"]).unwrap(), ["e3", "e7"]);
    }

    #[test]
    fn select_refuses_the_first_unknown_id() {
        let unknown = ids(&["e3", "e99", "nope"]).unwrap_err();
        assert!(unknown.contains("`e99`") && unknown.contains("e15"), "{unknown}");
        for retired in ["e16", "e20", "e23"] {
            let message = ids(&["e1", retired]).unwrap_err();
            assert!(message.contains("retired") && message.contains("benchmark/"), "{message}");
        }
        assert!(!ids(&["e24"]).unwrap_err().contains("retired"));
    }
}
