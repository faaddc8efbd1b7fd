//! The paper's claims, each checked once, end to end across crates:
//! digraph → crypto → chains → contracts → protocol.
//!
//! Herlihy's evaluation is analytical — Lemma 3.4, Theorems 3.5 and
//! 4.7–4.12, Figures 1–8 and the §5 remarks — so each test below reproduces
//! one claim on the simulated substrate. The fifteen that carry an
//! experiment id (E1–E15) print a paper-vs-measured table:
//!
//! ```text
//! cargo test --release --test paper -- --nocapture --test-threads=1
//! ```

use std::collections::BTreeSet;
use std::fmt::Display;

use atomic_swaps::contract::SwapSpec;
use atomic_swaps::core::hashkey::HashkeyTable;
use atomic_swaps::core::runner::{RunConfig, RunReport};
use atomic_swaps::core::setup::{SetupConfig, SwapSetup};
use atomic_swaps::core::single_leader::timeout_assignment_feasible;
use atomic_swaps::core::timing::PerChainLatency;
use atomic_swaps::core::waitsfor::{deadlock_witness, deadlocked_vertices};
use atomic_swaps::core::{assign_timeouts, Actor, Behavior, Engine, Outcome, ProtocolKind, What};
use atomic_swaps::crypto::{MssKeypair, Secret};
use atomic_swaps::digraph::{generators, Digraph, FeedbackVertexSet, VertexId};
use atomic_swaps::pebble::{EagerPebbleGame, LazyPebbleGame};
use atomic_swaps::sim::{Delta, SimRng, SimTime};

/// Key height of the tabled runs: 2^5 = 32 one-time keys, enough for every
/// leader count exercised while keeping keygen quick.
const KEY_HEIGHT: u32 = 5;

/// Provisions `digraph` for a tabled run: height-5 keys, and the greedy
/// feedback vertex set as leaders.
fn setup(digraph: Digraph, seed: u64) -> SwapSetup {
    let leaders = FeedbackVertexSet::greedy(&digraph).into_vertices().into_iter().collect();
    let config =
        SetupConfig { key_height: KEY_HEIGHT, leaders: Some(leaders), ..SetupConfig::default() };
    SwapSetup::generate(digraph, &config, &mut SimRng::from_seed(seed)).expect("valid swap")
}

/// Provisions and runs one all-conforming swap over `digraph`.
fn run_conforming(digraph: Digraph, seed: u64) -> RunReport {
    Engine::lockstep(setup(digraph, seed), RunConfig::default(), ProtocolKind::Hashkey).run()
}

/// The untabled checks' setup: height-4 keys and the default exact minimum
/// leaders.
fn fast_config() -> SetupConfig {
    SetupConfig { key_height: 4, ..SetupConfig::default() }
}

/// A swap whose spec is assembled by hand, so that it can break what honest
/// validation enforces: `leaders` need not be a feedback vertex set, nor
/// `digraph` strongly connected.
fn hand_built(digraph: &Digraph, leaders: Vec<VertexId>, seed: u64) -> SwapSetup {
    let n = digraph.vertex_count();
    let mut rng = SimRng::from_seed(seed);
    let keypairs: Vec<MssKeypair> =
        (0..n).map(|_| MssKeypair::from_seed_with_height(rng.bytes32(), KEY_HEIGHT)).collect();
    let secrets: Vec<Secret> = (0..n).map(|_| Secret::random(&mut rng)).collect();
    let delta = Delta::from_ticks(10);
    let spec = SwapSpec {
        hashlocks: leaders.iter().map(|l| secrets[l.index()].hashlock()).collect(),
        leaders,
        addresses: keypairs.iter().map(|k| k.public_key().address()).collect(),
        keys: keypairs.iter().map(|k| k.public_key()).collect(),
        start: SimTime::ZERO + delta.times(1),
        delta,
        diam: digraph.diameter() as u64,
        broadcast_arcs: false,
        digraph: digraph.clone(),
    };
    SwapSetup::from_parts(spec, keypairs, secrets, SimTime::ZERO)
}

/// One table row, each column right-aligned to its width.
fn fmt_row(cols: &[&dyn Display], widths: &[usize]) -> String {
    let mut out = String::new();
    for (col, width) in cols.iter().zip(widths) {
        out.push_str(&format!("{col:>width$}  "));
    }
    out.trim_end().to_string()
}

/// A named adversary constructor, parameterized by halting round.
type AdversaryKind = (&'static str, fn(u64) -> Behavior);

/// A table's `ok` column.
fn tick(ok: bool) -> &'static str {
    if ok {
        "✓"
    } else {
        "✗"
    }
}

/// E1 (Figures 1–2): the three-way swap deploys contracts at +1Δ, +2Δ, +3Δ
/// and triggers arcs at +4Δ, +5Δ, +6Δ.
#[test]
fn figures_1_2_three_party_timeline() {
    println!("\nE1  Figures 1-2: three-party swap timeline");
    println!("    paper: contracts at +1Δ,+2Δ,+3Δ; triggers at +4Δ,+5Δ,+6Δ\n");
    let report = run_conforming(generators::herlihy_three_party(), 2018);
    let delta = 10;
    println!("    event                measured   paper");
    let is_publish: fn(&What) -> bool = |w| matches!(w, What::Published { .. });
    let is_trigger: fn(&What) -> bool = |w| matches!(w, What::Triggered { .. });
    let mut measured = Vec::new();
    for (is_row, expected) in [(is_publish, [1, 2, 3]), (is_trigger, [4, 5, 6])] {
        for (event, exp) in report.trace.events().iter().filter(|e| is_row(&e.what)).zip(expected) {
            let kind = event.what.kind();
            // Transactions execute mid-round; they are *visible* at the
            // round boundary, which is the paper's instant.
            let visible = event.time.ticks().div_ceil(delta);
            println!("    {kind:<20} +{visible}Δ        +{exp}Δ   {}", tick(visible == exp));
            measured.push(visible);
        }
    }
    println!("\n    all parties end in Deal: {}", report.all_deal());
    assert_eq!(measured, [1, 2, 3, 4, 5, 6]);
    assert!(report.all_deal(), "{:?}", report.outcomes);
}

/// E2 (Figure 3): the outcome classification and its partial order.
#[test]
fn figure_3_outcome_lattice() {
    println!("\nE2  Figure 3: outcome classes and preference order");
    println!("    entering  leaving   class");
    for (e, l, expected) in [
        ((2, 2), (2, 2), Outcome::Deal),
        ((0, 2), (0, 2), Outcome::NoDeal),
        ((1, 2), (0, 2), Outcome::FreeRide),
        ((2, 2), (1, 2), Outcome::Discount),
        ((1, 2), (2, 2), Outcome::Underwater),
    ] {
        let got = Outcome::classify(e, l);
        println!("    {e:?}    {l:?}    {got:<10} (expect {expected})");
        assert_eq!(got, expected);
    }
    // Partial order generators + FreeRide incomparability.
    let order_ok = Outcome::Deal.is_better_than(Outcome::NoDeal)
        && Outcome::Discount.is_better_than(Outcome::Deal)
        && Outcome::FreeRide.is_better_than(Outcome::NoDeal)
        && Outcome::NoDeal.is_better_than(Outcome::Underwater)
        && !Outcome::FreeRide.is_comparable_with(Outcome::Deal);
    println!("    partial order (Underwater < NoDeal < Deal < Discount;");
    println!("    NoDeal < FreeRide; FreeRide ∥ Deal): {order_ok}");
    assert!(order_ok);
}

/// E3 (Theorem 3.5 ⇐): on strongly connected digraphs, every implemented
/// adversary leaves all conforming parties ≥ NoDeal.
#[test]
fn theorem_3_5_atomicity_under_adversaries() {
    println!("\nE3  Theorem 3.5 (atomicity, forward direction)");
    println!("    adversary sweep on random strongly connected digraphs\n");
    let kinds: [AdversaryKind; 5] = [
        ("halt", |r| Behavior::Halt { at_round: r % 8 }),
        ("withhold-secret", |_| Behavior::WithholdSecret),
        ("never-publish", |_| Behavior::NeverPublish { arcs: None }),
        ("premature-reveal", |_| Behavior::PrematureReveal),
        ("eager-publish", |_| Behavior::EagerPublish),
    ];
    println!("    adversary          runs   conforming-underwater");
    let runs = 12u64;
    let mut violations = Vec::new();
    for (name, make) in kinds {
        let before = violations.len();
        for seed in 0..runs {
            let n = 3 + (seed % 3) as usize;
            let digraph =
                generators::random_strongly_connected(n, 0.3, &mut SimRng::from_seed(seed));
            let mut config = RunConfig::default();
            config.behaviors.insert(VertexId::new((seed % n as u64) as u32), make(seed));
            let report =
                Engine::lockstep(setup(digraph, seed ^ 0xE3), config, ProtocolKind::Hashkey).run();
            if !report.no_conforming_underwater() {
                violations.push(format!("{name}, seed {seed}: {:?}", report.outcomes));
            }
        }
        println!("    {name:<18} {runs:>4}   {}", violations.len() - before);
    }
    let ok = violations.is_empty();
    println!("\n    paper: zero conforming parties end Underwater — measured: {ok}");
    assert!(ok, "{violations:#?}");
}

/// E4, Lemma 3.4 / Theorem 3.5 (impossibility direction): on a digraph
/// that is *not* strongly connected, the cut-off coalition X profits by
/// triggering its internal arcs and withholding the bridge — a free ride no
/// protocol can prevent.
#[test]
fn lemma_3_4_freeride_on_non_strongly_connected() {
    println!("\nE4  Lemma 3.4: free ride on a non-strongly-connected digraph");
    // x0,x1,x2 form a cycle, y0,y1,y2 form a cycle, one bridge x0→y0.
    let digraph = generators::bridged_cycles();
    println!("    digraph: two 3-cycles X={{x0,x1,x2}}, Y={{y0,y1,y2}}, bridge x0→y0");
    assert!(!digraph.is_strongly_connected());
    let x0 = digraph.vertex_by_name("x0").unwrap();
    let y0 = digraph.vertex_by_name("y0").unwrap();
    // Leaders: one per cycle (an FVS of the full digraph), so the spec is
    // well-formed except for strong connectivity.
    let setup = hand_built(&digraph, vec![x0, y0], 0xE4);
    let rejected = setup.spec.validate().is_err();
    println!("    honest validation rejects the swap: {rejected}");
    assert!(rejected, "spec must be rejected by honest parties");
    // The X coalition bypasses contracts entirely: direct transfers inside
    // X, nothing across the bridge.
    let bridge = digraph.arcs_between(x0, y0)[0];
    let mut config = RunConfig::default();
    for name in ["x0", "x1", "x2"] {
        let v = digraph.vertex_by_name(name).unwrap();
        config.behaviors.insert(v, Behavior::Direct { skip_arcs: vec![bridge] });
    }
    let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
    println!("\n    party   outcome      (X = deviating coalition)");
    for v in digraph.vertices() {
        let (name, o) = (digraph.name(v), report.outcomes[v.index()]);
        println!("    {name:<7} {o}");
        if name.starts_with('x') {
            // Every coalition member does at least as well as Deal.
            assert!(
                matches!(o, Outcome::Deal | Outcome::Discount | Outcome::FreeRide),
                "{name}: {o}"
            );
        } else {
            // y0 never sees the bridge contract, so the whole Y ring stalls
            // and refunds.
            assert_eq!(o, Outcome::NoDeal, "{name}");
        }
    }
    // One direct transfer per X-internal arc (the bridge is withheld), and
    // nothing else moves an asset without a contract.
    assert_eq!(report.metrics.direct_transfers, 3, "X ring moves its 3 internal arcs directly");
    // x0 strictly better than Deal: entering arc triggered, bridge withheld.
    let x0_outcome = report.outcomes[x0.index()];
    assert_eq!(x0_outcome, Outcome::Discount, "x0 keeps the bridge asset: {x0_outcome}");
    println!("\n    coalition ≥ Deal while withholding the bridge; Y stuck at NoDeal: true");
}

/// E5 (Lemmas 4.1–4.3, Corollary 4.4): both pebble games cover every arc
/// within diam(D) rounds.
#[test]
fn lemmas_4_1_to_4_3_pebble_games_cover_within_diam() {
    println!("\nE5  §4.4 pebble games: coverage within diam(D) rounds\n");
    let widths = [14, 4, 5, 5, 11, 11, 6];
    println!(
        "    {}",
        fmt_row(&[&"family", &"n", &"|A|", &"diam", &"lazy", &"eager", &"ok"], &widths)
    );
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
        let leaders = FeedbackVertexSet::greedy(&d).into_vertices();
        let lazy = LazyPebbleGame::new(&d, &leaders).run_to_completion().expect("FVS leaders");
        let eager = EagerPebbleGame::new(&d, VertexId::new(0))
            .run_to_completion()
            .expect("strongly connected");
        let row_ok = lazy <= diam && eager <= diam;
        let cols: [&dyn Display; 7] =
            [&name, &d.vertex_count(), &d.arc_count(), &diam, &lazy, &eager, &tick(row_ok)];
        println!("    {}", fmt_row(&cols, &widths));
        assert!(row_ok, "{name}: lazy {lazy}, eager {eager} rounds, diam {diam}");
    }
    println!("\n    paper: rounds ≤ diam(D) for both games — measured: true");
}

/// E6, Theorem 4.7: with all parties conforming, every contract triggers
/// within `2·diam(D)·Δ` of the protocol start, across digraph families.
#[test]
fn theorem_4_7_completion_bound_across_families() {
    println!("\nE6  Theorem 4.7: completion ≤ 2·diam(D)·Δ\n");
    let widths = [14, 4, 5, 10, 10, 7, 6];
    let header: [&dyn Display; 7] =
        [&"family", &"n", &"diam", &"measured", &"bound", &"ratio", &"ok"];
    println!("    {}", fmt_row(&header, &widths));
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
    cases.push(("three-party".into(), generators::herlihy_three_party()));
    cases.push(("cycle(6)".into(), generators::cycle(6)));
    cases.push(("star(4)".into(), generators::star(4)));
    cases.push(("flower(2,3)".into(), generators::flower(2, 3)));
    cases.push(("multigraph".into(), generators::multigraph_pair()));
    for (name, digraph) in cases {
        let n = digraph.vertex_count();
        let setup = setup(digraph, 0xE6);
        let (diam, start, bound) =
            (setup.spec.diam, setup.spec.start, setup.spec.worst_case_duration());
        let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
        let completion = report.completion.unwrap_or_else(|| panic!("{name} incomplete")) - start;
        let row_ok = report.all_deal() && completion <= bound;
        let ratio = format!("{:.2}", completion.ticks() as f64 / bound.ticks() as f64);
        let cols: [&dyn Display; 7] =
            [&name, &n, &diam, &completion.ticks(), &bound.ticks(), &ratio, &tick(row_ok)];
        println!("    {}", fmt_row(&cols, &widths));
        assert!(report.all_deal(), "{name}: {:?}", report.outcomes);
        assert!(completion <= bound, "{name}: completed {completion} after start, bound {bound}");
    }
    println!("\n    paper: completion ≤ 2·diam·Δ — measured: true");
}

/// E7, Theorem 4.9: no conforming party ends Underwater, under an
/// exhaustive sweep of single-party halting failures (every party × every
/// round up to `2·diam + 4`).
#[test]
fn theorem_4_9_exhaustive_halt_sweep() {
    println!("\nE7  Theorem 4.9: exhaustive halt injection\n");
    let mut total = 0u64;
    let mut violations = Vec::new();
    for (name, digraph) in [
        ("three-party", generators::herlihy_three_party()),
        ("two-leader", generators::two_leader_triangle()),
        ("cycle(4)", generators::cycle(4)),
    ] {
        let n = digraph.vertex_count() as u32;
        let rounds = 2 * digraph.diameter() as u64 + 4;
        let provisioned = setup(digraph, 0xE7);
        for party in 0..n {
            for round in 0..rounds {
                let mut config = RunConfig::default();
                config.behaviors.insert(VertexId::new(party), Behavior::Halt { at_round: round });
                let report =
                    Engine::lockstep(provisioned.clone(), config, ProtocolKind::Hashkey).run();
                total += 1;
                if !report.no_conforming_underwater() {
                    violations.push(format!(
                        "{name}: party {party} halted at {round}: {:?}",
                        report.outcomes
                    ));
                }
            }
        }
        println!("    {name:<12} swept {} halt schedules", u64::from(n) * rounds);
    }
    println!("\n    {total} runs, {} conforming-underwater violations", violations.len());
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Theorem 4.9 under *pairs* of simultaneous deviators.
#[test]
fn theorem_4_9_two_deviator_combinations() {
    let digraph = generators::two_leader_triangle();
    let deviations: Vec<Behavior> = vec![
        Behavior::Halt { at_round: 2 },
        Behavior::WithholdSecret,
        Behavior::NeverPublish { arcs: None },
        Behavior::PrematureReveal,
        Behavior::EagerPublish,
    ];
    for a in 0..3u32 {
        for b in 0..3u32 {
            if a == b {
                continue;
            }
            for da in &deviations {
                for db in &deviations {
                    let setup = SwapSetup::generate(
                        digraph.clone(),
                        &fast_config(),
                        &mut SimRng::from_seed(200),
                    )
                    .expect("valid");
                    let mut config = RunConfig::default();
                    config.behaviors.insert(VertexId::new(a), da.clone());
                    config.behaviors.insert(VertexId::new(b), db.clone());
                    let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
                    assert!(
                        report.no_conforming_underwater(),
                        "deviators {a}:{da:?} {b}:{db:?} → {:?}",
                        report.outcomes
                    );
                }
            }
        }
    }
}

/// E8, Theorem 4.10: total contract storage grows quadratically with |A|
/// (each of the |A| contracts stores an O(|A|) digraph copy).
#[test]
fn theorem_4_10_quadratic_space() {
    println!("\nE8  Theorem 4.10: O(|A|²) space\n");
    let widths = [14, 6, 12, 14];
    println!("    {}", fmt_row(&[&"family", &"|A|", &"bytes", &"bytes/|A|^2"], &widths));
    let mut measured: Vec<(usize, usize)> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    for n in [3usize, 4, 5, 6, 7] {
        let digraph = generators::complete(n);
        let arcs = digraph.arc_count();
        let bytes = run_conforming(digraph, 0xE8).storage.contract_bytes;
        let ratio = bytes as f64 / (arcs * arcs) as f64;
        let cols: [&dyn Display; 4] =
            [&format!("complete({n})"), &arcs, &bytes, &format!("{ratio:.1}")];
        println!("    {}", fmt_row(&cols, &widths));
        measured.push((arcs, bytes));
        ratios.push(ratio);
    }
    // bytes / |A|² stays within a narrow constant band.
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    let near_constant = max / min < 4.0;
    println!("\n    bytes/|A|² ratio band: [{min:.1}, {max:.1}] — near-constant: {near_constant}");
    assert!(
        near_constant,
        "bytes/|A|² should be near-constant, got ratios {ratios:?} from {measured:?}"
    );
    // And it really is superlinear: growing |A| should grow the bytes
    // much faster.
    let (a0, b0) = measured[0];
    let (a1, b1) = measured[measured.len() - 1];
    let arc_factor = a1 as f64 / a0 as f64;
    let byte_factor = b1 as f64 / b0 as f64;
    assert!(byte_factor > 1.5 * arc_factor, "{measured:?}");
}

/// E9, the abstract's communication bound: conforming runs perform exactly
/// |A|·|L| unlock calls (each arc receives one hashkey per leader secret).
#[test]
fn communication_is_arcs_times_leaders() {
    println!("\nE9  Communication: |A|·|L| unlock messages\n");
    let widths = [14, 5, 4, 8, 8, 12];
    let header: [&dyn Display; 6] = [&"family", &"|A|", &"|L|", &"|A|·|L|", &"unlocks", &"bytes"];
    println!("    {}", fmt_row(&header, &widths));
    for (name, digraph) in [
        ("cycle(5)", generators::cycle(5)),
        ("cycle(8)", generators::cycle(8)),
        ("two-leader", generators::two_leader_triangle()),
        ("complete(4)", generators::complete(4)),
        ("complete(5)", generators::complete(5)),
        ("star(5)", generators::star(5)),
        ("three-party", generators::herlihy_three_party()),
    ] {
        let arcs = digraph.arc_count() as u64;
        let setup = setup(digraph, 0xE9);
        let leaders = setup.spec.leaders.len() as u64;
        let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
        let metrics = &report.metrics;
        let cols: [&dyn Display; 6] = [
            &name,
            &arcs,
            &leaders,
            &(arcs * leaders),
            &metrics.unlock_calls,
            &metrics.unlock_bytes,
        ];
        println!("    {}", fmt_row(&cols, &widths));
        assert!(report.all_deal(), "{name}: {:?}", report.outcomes);
        assert_eq!(metrics.unlock_calls, arcs * leaders, "{name}: |A| = {arcs}, |L| = {leaders}");
    }
    println!("\n    unlock calls = |A|·|L| in every conforming run: true");
}

/// E10 (Figure 6, §4.6): a timeout assignment exists iff the follower
/// subdigraph is acyclic; the Lemma 4.13 ladder reproduces Figure 1, and
/// the single-leader protocol runs on it through the same engine as the
/// hashkey protocol.
#[test]
fn figure_6_timeout_feasibility() {
    println!("\nE10 Figure 6: timeout feasibility\n");
    let tri = generators::herlihy_three_party();
    let alice = tri.vertex_by_name("alice").unwrap();
    let feasible_single = timeout_assignment_feasible(&tri, &[alice].into());
    let two = generators::two_leader_triangle();
    let feasible_two = timeout_assignment_feasible(&two, &[VertexId::new(0)].into());
    println!("    single-leader triangle, leader {{A}}: feasible = {feasible_single}");
    println!("    two-leader triangle, claiming only {{A}}: feasible = {feasible_two}");
    let timeouts =
        assign_timeouts(&tri, alice, SimTime::ZERO, Delta::from_ticks(10)).expect("single leader");
    let ladder: Vec<u64> = timeouts.iter().map(|t| t.ticks() / 10).collect();
    println!("    Lemma 4.13 ladder on C₃ (in Δ): {ladder:?}  (paper: [6, 5, 4])");
    let report =
        Engine::lockstep(setup(tri, 0xE10), RunConfig::default(), ProtocolKind::Htlc).run();
    println!("    §4.6 protocol outcome: all Deal = {}", report.all_deal());
    assert!(feasible_single);
    assert!(!feasible_two);
    assert_eq!(ladder, [6, 5, 4]);
    assert!(report.all_deal(), "{:?}", report.outcomes);
}

/// E11 (Figure 7): the hashkey paths of the two-leader digraph; every arc
/// admits a hashkey for every leader's secret.
#[test]
fn figure_7_hashkey_paths() {
    println!("\nE11 Figure 7: hashkey paths of the two-leader digraph\n");
    let d = generators::two_leader_triangle();
    let leaders = [VertexId::new(0), VertexId::new(1)];
    let table = HashkeyTable::build(&d, &leaders);
    print!("{}", table.render(&d, &leaders));
    let ok = table
        .rows
        .iter()
        .all(|row| (0..leaders.len()).all(|li| row.iter().any(|s| s.leader_index == li)));
    println!("\n    every arc unlockable for every secret: {ok}");
    println!("    total admissible hashkeys: {}", table.total());
    assert!(ok);
}

/// E12 (Figure 8): two leaders propagate contracts concurrently — the lazy
/// pebble game covers the two-leader digraph in two rounds, and the
/// protocol publishes in exactly those rounds.
#[test]
fn figure_8_concurrent_propagation() {
    println!("\nE12 Figure 8: concurrent propagation, two leaders\n");
    let d = generators::two_leader_triangle();
    let leaders: BTreeSet<VertexId> = [VertexId::new(0), VertexId::new(1)].into();
    let mut game = LazyPebbleGame::new(&d, &leaders);
    let mut rounds_used = 0;
    while !game.all_pebbled() {
        let placed = game.step();
        if placed.is_empty() {
            break;
        }
        rounds_used += 1;
        let names: Vec<String> = placed
            .iter()
            .map(|&a| format!("{}→{}", d.name(d.head(a)), d.name(d.tail(a))))
            .collect();
        println!("    round {rounds_used}: {}", names.join(", "));
    }
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
    assert!(game.all_pebbled());
    assert_eq!(rounds_used, 2);
    assert_eq!(publish_rounds, (1..=rounds_used).collect());
    assert!(report.all_deal(), "{:?}", report.outcomes);
}

/// E13, Theorem 4.12 / Lemma 4.11: if the leaders do not form a feedback
/// vertex set, Phase One deadlocks — the follower cycle waits forever and
/// no arc on it ever gets a contract.
#[test]
fn theorem_4_12_non_fvs_leaders_deadlock() {
    println!("\nE13 Theorem 4.12: non-FVS leader set deadlocks\n");
    let digraph = generators::two_leader_triangle();
    // Claim only alice leads — but {alice} is NOT an FVS here.
    let setup = hand_built(&digraph, vec![VertexId::new(0)], 0xE13);
    let rejected = setup.spec.validate().is_err();
    println!("    honest validation rejects the spec: {rejected}");
    assert!(rejected);
    let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
    let unpublished: Vec<String> = digraph
        .arcs()
        .filter(|a| !report.arc_triggered[a.id.index()])
        .map(|a| format!("{}→{}", digraph.name(a.head), digraph.name(a.tail)))
        .collect();
    println!("    arcs that never triggered (waits-for cycle): {unpublished:?}");
    println!("    published contracts: {}", report.metrics.contracts_published);
    let deadlocked = !report.arc_triggered.iter().all(|&t| t);
    let safe = report.no_conforming_underwater();
    println!("    deadlock observed: {deadlocked}; conforming safe: {safe}");
    // The engine against the static analysis: the parties that never
    // published are exactly the followers the waits-for digraph of the
    // initial state (nothing published, only alice leading) deadlocks.
    let alice: BTreeSet<VertexId> = [VertexId::new(0)].into();
    let none_published = vec![false; digraph.arc_count()];
    let publishers: BTreeSet<VertexId> = report
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e.what, What::Published { .. }))
        .filter_map(|e| match e.actor {
            Actor::Party(v) => Some(v),
            Actor::Sim => None,
        })
        .collect();
    let silent: Vec<VertexId> = digraph.vertices().filter(|v| !publishers.contains(v)).collect();
    let predicted = deadlocked_vertices(&digraph, &alice, &none_published);
    let names = |vs: &[VertexId]| vs.iter().map(|&v| digraph.name(v)).collect::<Vec<_>>();
    let witness = deadlock_witness(&digraph, &alice, &none_published).expect("a follower cycle");
    println!("    never published (engine): {:?}", names(&silent));
    println!("    deadlocked (waits-for analysis): {:?}", names(&predicted));
    println!("    witness cycle: {:?}", names(&witness));
    // The bob↔carol 2-cycle deadlocks: each waits for the other's contract.
    let bob = VertexId::new(1);
    let carol = VertexId::new(2);
    assert_eq!(silent, predicted);
    assert_eq!(predicted, vec![bob, carol]);
    for arc in digraph.arcs() {
        let within_cycle =
            (arc.head == bob && arc.tail == carol) || (arc.head == carol && arc.tail == bob);
        if within_cycle {
            assert!(!report.arc_triggered[arc.id.index()], "arc {} should deadlock", arc.id);
        }
    }
    assert!(!report.all_deal());
    assert!(safe, "{:?}", report.outcomes);
}

/// E14 (§5 remarks): swaps on multigraphs, the greedy feedback vertex set
/// against the exact minimum, and how long a secret-withholding leader
/// locks everyone's assets up. The broadcast remark is
/// `broadcast_optimization_shortens_phase_two`.
#[test]
fn section_5_extensions() {
    println!("\nE14 §5 extensions\n");
    // Multigraph swap (Alice pays Bob on two distinct chains).
    let report = run_conforming(generators::multigraph_pair(), 0xE14);
    println!("    multigraph pair (parallel arcs): all Deal = {}", report.all_deal());
    assert!(report.all_deal(), "{:?}", report.outcomes);

    println!("\n    FVS exact vs greedy:");
    let mut rng = SimRng::from_seed(0x14F);
    for n in [6usize, 8, 10] {
        let d = generators::random_strongly_connected(n, 0.3, &mut rng);
        let exact = FeedbackVertexSet::minimum(&d).map(|f| f.vertices().len());
        let greedy = FeedbackVertexSet::greedy(&d).vertices().len();
        println!("      random({n}): exact {exact:?}, greedy {greedy}");
        if let Some(exact) = exact {
            assert!(greedy >= exact, "random({n}): greedy {greedy} < exact {exact}");
        }
    }

    // DoS lock-up: an adversary who never completes ties up assets until
    // refund — measure the lock-up window.
    let setup = setup(generators::herlihy_three_party(), 0xD05);
    let leader = setup.spec.leaders[0];
    let start = setup.spec.start;
    let dead = setup.spec.all_hashkeys_dead();
    let mut config = RunConfig::default();
    config.behaviors.insert(leader, Behavior::WithholdSecret);
    let report = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run();
    let events = report.trace.events().iter();
    let refund_time =
        events.rev().find(|e| matches!(e.what, What::Refunded { .. })).map(|e| e.time);
    println!(
        "\n    DoS lock-up: assets escrowed from ~{start}, refundable at {dead}, refunded at {:?}",
        refund_time.map(|t| t.to_string())
    );
    assert!(refund_time.is_some_and(|t| t >= dead), "refunded at {refund_time:?}");
    assert!(report.no_conforming_underwater(), "{:?}", report.outcomes);
}

/// E14, the broadcast optimization (§4.5) makes Phase Two constant-round:
/// with it enabled, the gap between the first and last trigger does not
/// grow with the cycle length.
#[test]
fn broadcast_optimization_shortens_phase_two() {
    println!("\nE14 §5 extensions: broadcast short-circuit\n");
    let (mut plain, mut broadcast) = (Vec::new(), Vec::new());
    for n in [4usize, 6, 8] {
        for (label, spans, enabled) in
            [("plain", &mut plain, false), ("broadcast", &mut broadcast, true)]
        {
            let mut setup = setup(generators::cycle(n), 0xE14);
            setup.spec.broadcast_arcs = enabled;
            let report = Engine::lockstep(setup, RunConfig::default(), ProtocolKind::Hashkey).run();
            assert!(report.all_deal(), "{label} cycle({n})");
            let first = report.triggered_at.iter().flatten().min().expect("triggers");
            let last = report.completion.expect("completes");
            spans.push((last - *first).ticks());
        }
    }
    println!("    phase-two span on cycles n=4,6,8: plain {plain:?}, broadcast {broadcast:?}");
    // Phase Two span grows with n in the plain protocol…
    let grows = plain.windows(2).all(|w| w[1] > w[0]);
    // …but stays flat with the broadcast short-circuit.
    let flat = broadcast.iter().all(|&s| s == broadcast[0]);
    println!("    broadcast short-circuit keeps Phase Two constant: {}", grows && flat);
    assert!(grows, "plain spans: {plain:?}");
    assert!(flat, "broadcast spans: {broadcast:?}");
    assert!(broadcast[0] < *plain.last().unwrap());
}

/// E15 (event-driven engine): the per-chain latency timing model —
/// heterogeneous publish/confirm delays per chain under a dominating Δ.
/// Outcomes, unlock calls and the Theorem 4.7 bound survive unchanged while
/// trigger instants leave the lockstep mid-round grid (so the model really
/// perturbs the timeline), and adversarial schedules stay safe (Theorem
/// 4.9).
#[test]
fn per_chain_latency_differs_from_lockstep_but_agrees_on_outcomes() {
    println!("\nE15 Per-chain latency timing model (Δ dominates the worst chain)\n");
    let widths = [14, 10, 10, 8, 10, 6];
    let header: [&dyn Display; 6] =
        [&"family", &"lockstep", &"latency", &"bound", &"off-grid", &"ok"];
    println!("    {}", fmt_row(&header, &widths));
    for (name, digraph) in [
        ("cycle(6)", generators::cycle(6)),
        ("two-leader", generators::two_leader_triangle()),
        ("complete(4)", generators::complete(4)),
        ("flower(3,3)", generators::flower(3, 3)),
        ("cycle(5)", generators::cycle(5)),
    ] {
        // One seed drives setup generation *and* the latency draws.
        let setup = setup(digraph, 0xE15);
        let (start, delta, bound) =
            (setup.spec.start, setup.spec.delta, setup.spec.worst_case_duration());
        let timing = PerChainLatency::sample(&setup, &SimRng::from_seed(0xE15));
        let lockstep =
            Engine::lockstep(setup.clone(), RunConfig::default(), ProtocolKind::Hashkey).run();
        let latency = Engine::new(setup, RunConfig::default(), ProtocolKind::Hashkey, timing).run();
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
        let cols: [&dyn Display; 6] = [
            &name,
            &lockstep_done.ticks(),
            &latency_done.ticks(),
            &bound.ticks(),
            &off_grid,
            &tick(row_ok),
        ];
        println!("    {}", fmt_row(&cols, &widths));
        assert_eq!(lockstep.outcomes, latency.outcomes, "{name}");
        assert_eq!(lockstep.metrics.unlock_calls, latency.metrics.unlock_calls, "{name}");
        assert!(row_ok, "{name}: not all Deal, over the bound, or every trigger on the grid");
        assert_ne!(
            lockstep.triggered_at, latency.triggered_at,
            "{name}: per-chain delays should move trigger instants off the lockstep grid"
        );
    }

    // Adversarial timing sweep: halts and secret withholding under
    // heterogeneous latencies never drag a conforming party underwater.
    let runs = 8u64;
    let mut violations = Vec::new();
    for seed in 0..runs {
        let digraph = generators::random_strongly_connected(
            3 + (seed % 3) as usize,
            0.3,
            &mut SimRng::from_seed(seed),
        );
        let n = digraph.vertex_count() as u64;
        let setup = setup(digraph, seed ^ 0xE15);
        let timing = PerChainLatency::sample(&setup, &SimRng::from_seed(seed ^ 0xE15));
        let behavior = if seed % 2 == 0 {
            Behavior::Halt { at_round: seed % 6 }
        } else {
            Behavior::WithholdSecret
        };
        let mut config = RunConfig::default();
        config.behaviors.insert(VertexId::new((seed % n) as u32), behavior);
        let report = Engine::new(setup, config, ProtocolKind::Hashkey, timing).run();
        if !report.no_conforming_underwater() {
            violations.push(format!("seed {seed}: {:?}", report.outcomes));
        }
    }
    let ok = violations.is_empty();
    println!(
        "\n    adversarial-timing sweep: {runs} runs, {} conforming-underwater",
        violations.len()
    );
    println!("    outcomes invariant under chain heterogeneity, bounds hold: {ok}");
    assert!(ok, "{violations:#?}");
}

/// All chains stay internally consistent (hash links and Merkle roots
/// verify) after a full protocol run — conforming, and with a party halting
/// at several rounds. The chains checked are the ones the engine wrote.
#[test]
fn ledgers_remain_tamper_evident() {
    for halt in [None, Some(0), Some(1), Some(3), Some(5)] {
        let setup = SwapSetup::generate(
            generators::two_leader_triangle(),
            &fast_config(),
            &mut SimRng::from_seed(3),
        )
        .expect("valid");
        let height =
            |setup: &SwapSetup| -> u64 { setup.chains.iter().map(|(_, c)| c.height()).sum() };
        let genesis = height(&setup);
        let mut config = RunConfig::default();
        if let Some(round) = halt {
            config.behaviors.insert(VertexId::new(1), Behavior::Halt { at_round: round });
        }
        let (report, after) = Engine::lockstep(setup, config, ProtocolKind::Hashkey).run_full();
        assert!(report.metrics.rounds > 0, "halt {halt:?}");
        assert!(height(&after) > genesis, "halt {halt:?}: the run sealed no block");
        assert!(after.chains.verify_integrity(), "halt {halt:?}");
    }
}
