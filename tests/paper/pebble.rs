//! The pebble games of §4.4, used to analyze protocol propagation.
//!
//! Herlihy reduces both protocol phases to pebble games on the swap digraph
//! `D = (V, A)` with leader set `L`:
//!
//! * the **lazy** game models Phase One (contract propagation): pebbles
//!   start on the arcs leaving each leader; arcs leaving `v` get pebbles
//!   once **every** arc entering `v` has one. Lemma 4.1: if `L` is a
//!   feedback vertex set, every arc is eventually pebbled.
//! * the **eager** game models Phase Two (secret dissemination, played on
//!   `Dᵀ`): one vertex `z` starts pebbled; arcs leaving `v` get pebbles once
//!   **any** arc entering `v` has one. Lemma 4.2: if `D` is strongly
//!   connected, every arc is eventually pebbled.
//!
//! Rounds model the Δ-bounded reaction delay, so Lemma 4.3's bound reads:
//! both games cover every arc within `diam(D)` rounds. E5 sweeps graph
//! families to check this, E12 replays Figure 8 round by round, and
//! [`super::pebble_correspondence`] checks the engine's phases against both
//! games.

use std::collections::BTreeSet;

use swap_digraph::{ArcId, Digraph, VertexId};

/// Outcome of running a pebble game to quiescence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GameStalled {
    /// Number of arcs that never received a pebble.
    pub unpebbled: usize,
}

impl std::fmt::Display for GameStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pebble game stalled with {} unpebbled arcs", self.unpebbled)
    }
}

impl std::error::Error for GameStalled {}

/// Common state and round logic shared by both games.
#[derive(Debug, Clone)]
struct GameState {
    digraph: Digraph,
    pebbled: Vec<bool>,
    rounds: u64,
}

impl GameState {
    fn new(digraph: &Digraph) -> Self {
        GameState { digraph: digraph.clone(), pebbled: vec![false; digraph.arc_count()], rounds: 0 }
    }

    fn pebble_out_arcs(&mut self, v: VertexId, newly: &mut Vec<ArcId>) {
        // Collect first: borrowck-friendly and avoids double counting.
        let targets: Vec<ArcId> = self
            .digraph
            .out_arcs(v)
            .filter(|a| !self.pebbled[a.id.index()])
            .map(|a| a.id)
            .collect();
        for id in targets {
            self.pebbled[id.index()] = true;
            newly.push(id);
        }
    }

    fn all_pebbled(&self) -> bool {
        self.pebbled.iter().all(|&p| p)
    }

    fn pebbled_count(&self) -> usize {
        self.pebbled.iter().filter(|&&p| p).count()
    }

    fn unpebbled_count(&self) -> usize {
        self.pebbled.len() - self.pebbled_count()
    }
}

/// The lazy pebble game (Phase One / contract propagation).
#[derive(Debug, Clone)]
pub struct LazyPebbleGame {
    state: GameState,
    leaders: BTreeSet<VertexId>,
    started: bool,
}

impl LazyPebbleGame {
    /// Sets up the game; no pebbles are placed until the first
    /// [`step`](Self::step).
    pub fn new(digraph: &Digraph, leaders: &BTreeSet<VertexId>) -> Self {
        LazyPebbleGame { state: GameState::new(digraph), leaders: leaders.clone(), started: false }
    }

    /// Runs one synchronous round, returning the arcs newly pebbled. The
    /// first round places the initial pebbles on arcs leaving each leader.
    pub fn step(&mut self) -> Vec<ArcId> {
        let mut newly = Vec::new();
        if !self.started {
            self.started = true;
            let leaders: Vec<VertexId> = self.leaders.iter().copied().collect();
            for l in leaders {
                self.state.pebble_out_arcs(l, &mut newly);
            }
        } else {
            // A follower's out-arcs fire when all its in-arcs are pebbled.
            // Evaluate enabledness against the state at round start.
            let snapshot = self.state.pebbled.clone();
            let enabled: Vec<VertexId> = self
                .state
                .digraph
                .vertices()
                .filter(|&v| !self.leaders.contains(&v))
                .filter(|&v| {
                    let mut entering = self.state.digraph.in_arcs(v).peekable();
                    entering.peek().is_some()
                        && self.state.digraph.in_arcs(v).all(|a| snapshot[a.id.index()])
                })
                .collect();
            for v in enabled {
                self.state.pebble_out_arcs(v, &mut newly);
            }
        }
        if !newly.is_empty() {
            self.state.rounds += 1;
        }
        newly
    }

    /// Steps until no progress, returning the number of rounds taken.
    ///
    /// # Errors
    ///
    /// Returns [`GameStalled`] if the game quiesces with unpebbled arcs —
    /// which Lemma 4.1 proves happens exactly when the leaders are *not* a
    /// feedback vertex set.
    pub fn run_to_completion(&mut self) -> Result<u64, GameStalled> {
        loop {
            let placed = self.step();
            if self.all_pebbled() {
                return Ok(self.state.rounds);
            }
            if placed.is_empty() {
                return Err(GameStalled { unpebbled: self.state.unpebbled_count() });
            }
        }
    }

    /// Whether every arc has a pebble.
    pub fn all_pebbled(&self) -> bool {
        self.state.all_pebbled()
    }

    /// Whether the given arc has a pebble.
    pub fn is_pebbled(&self, arc: ArcId) -> bool {
        self.state.pebbled[arc.index()]
    }

    /// Number of pebbled arcs.
    pub fn pebbled_count(&self) -> usize {
        self.state.pebbled_count()
    }
}

/// The eager pebble game (Phase Two / secret dissemination).
#[derive(Debug, Clone)]
pub struct EagerPebbleGame {
    state: GameState,
    start_vertex: VertexId,
    started: bool,
}

impl EagerPebbleGame {
    /// Sets up the game with the initial pebble on vertex `z`.
    pub fn new(digraph: &Digraph, z: VertexId) -> Self {
        EagerPebbleGame { state: GameState::new(digraph), start_vertex: z, started: false }
    }

    /// Runs one synchronous round, returning the arcs newly pebbled.
    pub fn step(&mut self) -> Vec<ArcId> {
        let mut newly = Vec::new();
        if !self.started {
            self.started = true;
            let z = self.start_vertex;
            self.state.pebble_out_arcs(z, &mut newly);
        } else {
            let snapshot = self.state.pebbled.clone();
            let enabled: Vec<VertexId> = self
                .state
                .digraph
                .vertices()
                .filter(|&v| self.state.digraph.in_arcs(v).any(|a| snapshot[a.id.index()]))
                .collect();
            for v in enabled {
                self.state.pebble_out_arcs(v, &mut newly);
            }
        }
        if !newly.is_empty() {
            self.state.rounds += 1;
        }
        newly
    }

    /// Steps until no progress, returning the number of rounds taken.
    ///
    /// # Errors
    ///
    /// Returns [`GameStalled`] if arcs remain unpebbled — which Lemma 4.2
    /// proves happens only when `D` is not strongly connected.
    pub fn run_to_completion(&mut self) -> Result<u64, GameStalled> {
        loop {
            let placed = self.step();
            if self.all_pebbled() {
                return Ok(self.state.rounds);
            }
            if placed.is_empty() {
                return Err(GameStalled { unpebbled: self.state.unpebbled_count() });
            }
        }
    }

    /// Whether every arc has a pebble.
    pub fn all_pebbled(&self) -> bool {
        self.state.all_pebbled()
    }
}

mod tests {
    use super::*;
    use swap_digraph::{generators, FeedbackVertexSet};

    fn leaders_of(d: &Digraph) -> BTreeSet<VertexId> {
        FeedbackVertexSet::minimum(d).expect("small graph").into_vertices()
    }

    #[test]
    fn lazy_covers_three_party_cycle() {
        let d = generators::herlihy_three_party();
        let leaders = leaders_of(&d);
        let mut game = LazyPebbleGame::new(&d, &leaders);
        let rounds = game.run_to_completion().unwrap();
        assert!(game.all_pebbled());
        assert_eq!(game.pebbled_count(), 3);
        // C₃: leader's arc round 1, then two more rounds.
        assert_eq!(rounds, 3);
        assert!(rounds as usize <= d.diameter());
    }

    #[test]
    fn lazy_round_by_round_frontier() {
        // Figure 8's concurrent propagation, on the two-leader triangle.
        let d = generators::two_leader_triangle();
        let leaders = leaders_of(&d);
        assert_eq!(leaders.len(), 2);
        let mut game = LazyPebbleGame::new(&d, &leaders);
        let first = game.step();
        // Both leaders' out-arcs at once: 2 leaders × 2 out-arcs.
        assert_eq!(first.len(), 4);
        let second = game.step();
        assert_eq!(second.len(), 2);
        assert!(game.all_pebbled());
    }

    #[test]
    fn lazy_stalls_without_fvs_leaders() {
        // Lemma 4.1's converse: on the two-leader triangle with only one
        // leader, the remaining 2-cycle never fires.
        let d = generators::two_leader_triangle();
        let one_leader: BTreeSet<_> = [VertexId::new(0)].into();
        let mut game = LazyPebbleGame::new(&d, &one_leader);
        let err = game.run_to_completion().unwrap_err();
        assert!(err.unpebbled > 0);
        assert!(!game.all_pebbled());
        assert!(err.to_string().contains("stalled"));
    }

    #[test]
    fn lazy_respects_diameter_bound_across_families() {
        for d in [
            generators::cycle(7),
            generators::complete(5),
            generators::star(4),
            generators::flower(3, 3),
            generators::two_leader_triangle(),
        ] {
            let leaders = leaders_of(&d);
            let mut game = LazyPebbleGame::new(&d, &leaders);
            let rounds = game.run_to_completion().unwrap_or_else(|e| panic!("{e}"));
            assert!(
                rounds as usize <= d.diameter(),
                "lazy game took {rounds} rounds on digraph with diam {}",
                d.diameter()
            );
        }
    }

    #[test]
    fn lazy_on_random_strongly_connected() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for n in [4usize, 6, 8, 10, 12] {
            let d = generators::random_strongly_connected(n, 0.25, &mut rng);
            let leaders = leaders_of(&d);
            let mut game = LazyPebbleGame::new(&d, &leaders);
            let rounds = game.run_to_completion().unwrap();
            assert!(rounds as usize <= d.diameter(), "n={n}");
        }
    }

    #[test]
    fn eager_covers_cycle_from_any_start() {
        let d = generators::cycle(6);
        for v in d.vertices() {
            let mut game = EagerPebbleGame::new(&d, v);
            let rounds = game.run_to_completion().unwrap();
            assert!(game.all_pebbled(), "start {v}");
            assert!(rounds as usize <= d.diameter());
        }
    }

    #[test]
    fn eager_on_transpose_models_phase_two() {
        // Phase Two disseminates secrets on Dᵀ (Lemma 4.6).
        let d = generators::herlihy_three_party().transpose();
        let alice = d.vertex_by_name("alice").unwrap();
        let mut game = EagerPebbleGame::new(&d, alice);
        let rounds = game.run_to_completion().unwrap();
        assert_eq!(rounds, 3);
    }

    #[test]
    fn eager_stalls_on_not_strongly_connected() {
        // From the sink side of a one-way pair, nothing propagates back.
        let d = generators::one_way_pair();
        let y = d.vertex_by_name("y").unwrap();
        let mut game = EagerPebbleGame::new(&d, y);
        let err = game.run_to_completion().unwrap_err();
        assert_eq!(err.unpebbled, 1);
    }

    #[test]
    fn eager_faster_than_lazy_on_complete_digraph() {
        // Eager fires on ANY entering pebble, so it floods K_n in 2 rounds;
        // lazy needs all entering arcs and leaders are n-1 of n vertexes.
        let d = generators::complete(6);
        let mut eager = EagerPebbleGame::new(&d, VertexId::new(0));
        let eager_rounds = eager.run_to_completion().unwrap();
        assert!(eager_rounds <= 2);
        let leaders = leaders_of(&d);
        let mut lazy = LazyPebbleGame::new(&d, &leaders);
        let lazy_rounds = lazy.run_to_completion().unwrap();
        assert!(eager_rounds <= lazy_rounds);
    }

    #[test]
    fn eager_respects_diameter_bound_across_families() {
        for d in [
            generators::cycle(9),
            generators::complete(5),
            generators::star(5),
            generators::flower(2, 4),
        ] {
            let mut game = EagerPebbleGame::new(&d, VertexId::new(0));
            let rounds = game.run_to_completion().unwrap();
            assert!(rounds as usize <= d.diameter());
        }
    }

    #[test]
    fn is_pebbled_tracks_individual_arcs() {
        let d = generators::herlihy_three_party();
        let leaders = leaders_of(&d);
        let mut game = LazyPebbleGame::new(&d, &leaders);
        let first = game.step();
        assert_eq!(first.len(), 1);
        assert!(game.is_pebbled(first[0]));
        let all: Vec<ArcId> = d.arcs().map(|a| a.id).collect();
        assert!(all.iter().any(|&a| !game.is_pebbled(a)));
    }

    #[test]
    fn multigraph_arcs_pebble_independently() {
        let d = generators::multigraph_pair();
        let leaders = leaders_of(&d);
        let mut game = LazyPebbleGame::new(&d, &leaders);
        game.run_to_completion().unwrap();
        assert_eq!(game.pebbled_count(), 3);
    }
}
