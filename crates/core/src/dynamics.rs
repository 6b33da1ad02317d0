//! The sequential-move network creation process (paper §1.1).
//!
//! Starting from an initial network, in every step the move policy selects one
//! unhappy agent, who then performs an improving move (by default a best response).
//! The process stops when no agent is unhappy (a stable network / pure Nash
//! equilibrium has been reached), when an exact previously-visited state recurs
//! (a better-response cycle has been detected), or when the step limit is hit.

use crate::game::{Game, ScoredMove, Workspace};
use crate::moves::{apply_move, Move};
use crate::policy::{Policy, TieBreak};
use ncg_graph::oracle::{OracleKind, OracleStats};
use ncg_graph::{canonical_state_key, canonical_unlabeled_key, NodeId, OwnedGraph, StateKey};
use ncg_trace as trace;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashMap;

/// Whether the moving agent plays a best response or any improving move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResponseMode {
    /// The moving agent performs a best possible improving move (best response).
    BestResponse,
    /// The moving agent performs the first improving move found (better response).
    FirstImproving,
}

/// Configuration of a dynamics run.
#[derive(Debug, Clone)]
pub struct DynamicsConfig {
    /// Who moves.
    pub policy: Policy,
    /// How ties are broken (both among max-cost agents and among best responses).
    pub tie_break: TieBreak,
    /// Best responses or arbitrary improving moves.
    pub response_mode: ResponseMode,
    /// Hard limit on the number of moves.
    pub max_steps: usize,
    /// If `true`, every visited state is remembered and an exact recurrence stops
    /// the run with [`Termination::CycleDetected`].
    pub detect_cycles: bool,
    /// If `true`, every move is recorded in the trajectory.
    pub record_trajectory: bool,
    /// If `true`, edge ownership is part of the state identity used for cycle
    /// detection (correct for ASG/GBG/BG/bilateral). The symmetric Swap Game
    /// ignores ownership and should set this to `false`.
    pub ownership_in_state: bool,
    /// Which distance-oracle backend scores candidate moves.
    pub oracle: OracleKind,
    /// Cap on the persistent oracle's per-source distance cache (number of
    /// parked vectors; `None` = backend default: unlimited slots at
    /// `n ≤ 8192`, capped at 8192 beyond — the byte budget below binds
    /// first in practice).
    pub oracle_cache_budget: Option<usize>,
    /// Cap on the persistent oracle's parked-vector **bytes** (`None` =
    /// backend default: 128 MiB). Over budget, parked vectors are demoted to
    /// their ball-sparse representation and then evicted, oldest-stalest
    /// first. Purely a memory knob — scoring stays exact, so trajectories
    /// are bit-identical under any budget.
    pub oracle_byte_budget: Option<u64>,
    /// If `true`, the engine keeps a dirty-agent set: after a move only agents
    /// whose distance vectors could have changed are re-examined, instead of
    /// re-scanning all `n` agents per step. Termination stays exact — before
    /// declaring convergence the engine re-verifies every agent against the
    /// final state — but the *order* in which unhappy agents are discovered
    /// can differ from the eager scan, so trajectories may differ from the
    /// `dirty_agents: false` runs (both are valid sequential-move processes).
    pub dirty_agents: bool,
    /// If `true` (the default), a dirty-agent run on the persistent oracle
    /// hands the oracle each committed move's exact change union so every
    /// parked distance vector is advanced to the new version in one grouped
    /// pass (replay for changed vectors, a trusted stamp bump for the rest).
    /// This keeps the cache-arithmetic insertion scoring and the bounded
    /// best-response scans lit even though the dirty engine re-pins only a
    /// few sources per step. Purely a performance knob: warming never changes
    /// scores, mover selection, or trajectories — disabling it ("cold" mode)
    /// only exists for ablation measurements. Ignored without `dirty_agents`
    /// (the eager policy scan re-pins every source anyway) and by the
    /// stateless oracle backends.
    pub warm_parked: bool,
    /// If `true` (the default), the persistent oracle serves bulk (re)pins —
    /// the trial-start cold fill and parked vectors whose journal window
    /// outgrew the replay limit — with word-parallel 64-wide bitset BFS
    /// waves instead of one scalar traversal per source. Purely a
    /// performance knob: both paths compute identical exact distances, so
    /// trajectories are bit-identical either way; `false` keeps the scalar
    /// verification baseline. Ignored by the stateless oracle backends.
    pub warm_batching: bool,
}

impl DynamicsConfig {
    /// Sensible defaults for simulations: max-cost policy, random tie-break,
    /// best responses, no cycle detection, no trajectory recording.
    pub fn simulation(max_steps: usize) -> Self {
        DynamicsConfig {
            policy: Policy::MaxCost,
            tie_break: TieBreak::Random,
            response_mode: ResponseMode::BestResponse,
            max_steps,
            detect_cycles: false,
            record_trajectory: false,
            ownership_in_state: true,
            oracle: OracleKind::default(),
            oracle_cache_budget: None,
            oracle_byte_budget: None,
            dirty_agents: false,
            warm_parked: true,
            warm_batching: true,
        }
    }

    /// Defaults for analysing small instances: deterministic tie-break, cycle
    /// detection and full trajectory recording.
    pub fn analysis(max_steps: usize) -> Self {
        DynamicsConfig {
            policy: Policy::MinIndex,
            tie_break: TieBreak::Deterministic,
            response_mode: ResponseMode::BestResponse,
            max_steps,
            detect_cycles: true,
            record_trajectory: true,
            ownership_in_state: true,
            oracle: OracleKind::default(),
            oracle_cache_budget: None,
            oracle_byte_budget: None,
            dirty_agents: false,
            warm_parked: true,
            warm_batching: true,
        }
    }

    /// Sets the move policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the tie-breaking rule.
    pub fn with_tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// Sets the response mode.
    pub fn with_response_mode(mut self, mode: ResponseMode) -> Self {
        self.response_mode = mode;
        self
    }

    /// Sets the distance-oracle backend.
    pub fn with_oracle(mut self, oracle: OracleKind) -> Self {
        self.oracle = oracle;
        self
    }

    /// Sets the persistent oracle's per-source cache budget.
    pub fn with_oracle_cache_budget(mut self, budget: Option<usize>) -> Self {
        self.oracle_cache_budget = budget;
        self
    }

    /// Sets the persistent oracle's parked-vector byte budget (see
    /// [`DynamicsConfig::oracle_byte_budget`]).
    pub fn with_oracle_byte_budget(mut self, budget: Option<u64>) -> Self {
        self.oracle_byte_budget = budget;
        self
    }

    /// Enables or disables dirty-agent tracking.
    pub fn with_dirty_agents(mut self, dirty_agents: bool) -> Self {
        self.dirty_agents = dirty_agents;
        self
    }

    /// Enables or disables post-move bulk warming of the persistent oracle's
    /// parked vectors (see [`DynamicsConfig::warm_parked`]).
    pub fn with_warm_parked(mut self, warm_parked: bool) -> Self {
        self.warm_parked = warm_parked;
        self
    }

    /// Enables or disables the persistent oracle's word-parallel bulk waves
    /// (see [`DynamicsConfig::warm_batching`]).
    pub fn with_warm_batching(mut self, warm_batching: bool) -> Self {
        self.warm_batching = warm_batching;
        self
    }
}

/// One performed move.
#[derive(Debug, Clone, PartialEq)]
pub struct MoveRecord {
    /// Index of the step (0-based).
    pub step: usize,
    /// The moving agent.
    pub agent: NodeId,
    /// The strategy change performed.
    pub mv: Move,
    /// The agent's cost before the move.
    pub old_cost: f64,
    /// The agent's cost after the move.
    pub new_cost: f64,
}

/// Why the process stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Termination {
    /// No agent has an improving move: a stable network (pure Nash equilibrium).
    Converged,
    /// The exact state of step `first_seen_step` recurred after `period` further
    /// moves — a better-response cycle.
    CycleDetected {
        /// Step at which the recurring state was first visited.
        first_seen_step: usize,
        /// Number of moves after which it recurred.
        period: usize,
    },
    /// The configured step limit was reached without convergence.
    StepLimit,
}

/// Result of a dynamics run.
#[derive(Debug, Clone)]
pub struct DynamicsOutcome {
    /// Why the run stopped.
    pub termination: Termination,
    /// Number of moves performed.
    pub steps: usize,
    /// The final network state.
    pub final_graph: OwnedGraph,
    /// The recorded trajectory (empty unless `record_trajectory` was set).
    pub trajectory: Vec<MoveRecord>,
}

impl DynamicsOutcome {
    /// Convenience: did the process converge to a stable network?
    pub fn converged(&self) -> bool {
        self.termination == Termination::Converged
    }
}

/// A stepwise-controllable network creation process.
///
/// [`run_dynamics`] drives it automatically; tests and the adversarial
/// constructions use [`Dynamics::step_with_agent`] to force particular movers.
pub struct Dynamics<'a, G: Game + ?Sized> {
    game: &'a G,
    graph: OwnedGraph,
    config: DynamicsConfig,
    ws: Workspace,
    steps: usize,
    last_mover: Option<NodeId>,
    seen: HashMap<StateKey, usize>,
    trajectory: Vec<MoveRecord>,
    /// Dirty-agent bookkeeping (only maintained when `config.dirty_agents`).
    ///
    /// `verified_happy[u]` means `u` was found to have no improving move and no
    /// later move is suspected to have changed `u`'s distance vector.
    verified_happy: Vec<bool>,
    /// Which [`Dynamics::select_mover_dirty`] call verified `u`
    /// (`verified_call[u]` vs `select_call`): scans are deterministic and no
    /// move applies between the passes of one call, so the final confirmation
    /// sweep can skip everything verified *in the current call* — re-scanning
    /// those agents against the identical state would reproduce "happy"
    /// verbatim. Only verifications surviving from earlier calls (which the
    /// invalidation heuristic preserved across moves) are re-examined.
    verified_call: Vec<u64>,
    select_call: u64,
    /// `cached_cost[u]` is `u`'s cost when `cost_fresh[u]`; used by the
    /// max-cost policy so that only invalidated agents are re-measured.
    cached_cost: Vec<f64>,
    cost_fresh: Vec<bool>,
    /// Set after every performed move: before declaring convergence, one full
    /// re-verification sweep runs so termination is exact even if the dirty
    /// heuristic under-approximated.
    confirm_pending: bool,
    /// Scratch distance vectors of the move endpoints (pre-move state; only
    /// used with non-persistent oracles, which cannot export a diff).
    pre_dists: Vec<Vec<u16>>,
    /// Scratch for the persistent oracle's exact changed-vertex export.
    changed_scratch: Vec<NodeId>,
    /// Scratch for the per-move change union handed to the oracle's bulk
    /// warming pass (endpoints + mover + every exported changed vertex).
    warm_scratch: Vec<NodeId>,
    /// Scratch for the dirty mover-selection scan order (reused across
    /// steps so the per-pass ordering allocates nothing).
    order_scratch: Vec<NodeId>,
    /// Reusable per-thread workspaces of the parallel scan (empty until the
    /// first [`Dynamics::step_parallel`] call).
    par_pool: Vec<Workspace>,
}

impl<'a, G: Game + ?Sized> Dynamics<'a, G> {
    /// Creates a process in the given initial state.
    pub fn new(game: &'a G, initial: OwnedGraph, config: DynamicsConfig) -> Self {
        let n = initial.num_nodes();
        let mut ws = Workspace::with_engine_budgets(
            n,
            config.oracle,
            config.oracle_cache_budget,
            config.oracle_byte_budget,
        );
        ws.set_warm_batching(config.warm_batching);
        if config.oracle == OracleKind::Persistent {
            // Bulk-pin every agent's vector up front: the first policy scan
            // needs all n summaries anyway, and with batching on the cold
            // fill costs ⌈n/64⌉ shared bitset waves instead of n scalar
            // traversals (with batching off this is the same n `begin`s the
            // first scan would have issued, just grouped here).
            let all: Vec<NodeId> = (0..n).collect();
            ws.evaluator.pin_sources(&initial, &all);
        }
        let mut dyn_ = Dynamics {
            game,
            graph: initial,
            config,
            ws,
            steps: 0,
            last_mover: None,
            seen: HashMap::new(),
            trajectory: Vec::new(),
            verified_happy: vec![false; n],
            verified_call: vec![0; n],
            select_call: 0,
            cached_cost: vec![f64::INFINITY; n],
            cost_fresh: vec![false; n],
            confirm_pending: false,
            pre_dists: Vec::new(),
            changed_scratch: Vec::new(),
            warm_scratch: Vec::new(),
            order_scratch: Vec::new(),
            par_pool: Vec::new(),
        };
        if dyn_.config.detect_cycles {
            let key = dyn_.state_key();
            dyn_.seen.insert(key, 0);
        }
        dyn_
    }

    fn state_key(&self) -> StateKey {
        if self.config.ownership_in_state {
            canonical_state_key(&self.graph)
        } else {
            canonical_unlabeled_key(&self.graph)
        }
    }

    /// The current network state.
    pub fn graph(&self) -> &OwnedGraph {
        &self.graph
    }

    /// Number of moves performed so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The recorded trajectory so far.
    pub fn trajectory(&self) -> &[MoveRecord] {
        &self.trajectory
    }

    /// All currently unhappy agents (agents with at least one feasible improving move).
    pub fn unhappy_agents(&mut self) -> Vec<NodeId> {
        let g = &self.graph;
        (0..g.num_nodes())
            .filter(|&u| self.game.has_improving_move(g, u, &mut self.ws))
            .collect()
    }

    /// Performs one step with the configured policy. Returns `None` if the state is
    /// stable (and the process therefore stops).
    pub fn step<R: Rng>(&mut self, rng: &mut R) -> Option<MoveRecord> {
        let mover = if self.config.dirty_agents {
            self.select_mover_dirty(rng)?
        } else {
            let _sp = trace::span(trace::Phase::Scan);
            self.config.policy.select_mover(
                self.game,
                &self.graph,
                &mut self.ws,
                self.config.tie_break,
                self.last_mover,
                rng,
            )?
        };
        self.step_with_agent(mover, rng)
    }

    /// Performs one step with a caller-chosen moving agent (the "adversarial"
    /// policy of the proofs). Returns `None` if the agent has no improving move.
    pub fn step_with_agent<R: Rng>(&mut self, agent: NodeId, rng: &mut R) -> Option<MoveRecord> {
        let (chosen, endpoints) = {
            let _sp = trace::span(trace::Phase::Apply);
            let chosen = self.choose_response(agent, rng)?;
            let endpoints = if self.config.dirty_agents {
                self.snapshot_endpoints(agent, &chosen.mv)
            } else {
                None
            };
            let undo = apply_move(&mut self.graph, agent, &chosen.mv);
            debug_assert!(undo.is_some(), "selected move must be applicable");
            (chosen, endpoints)
        };
        if self.config.dirty_agents {
            let _sp = trace::span(trace::Phase::Warm);
            self.invalidate_after_move(agent, endpoints);
        }
        let record = MoveRecord {
            step: self.steps,
            agent,
            mv: chosen.mv,
            old_cost: chosen.old_cost,
            new_cost: chosen.new_cost,
        };
        self.steps += 1;
        self.last_mover = Some(agent);
        if self.config.record_trajectory {
            self.trajectory.push(record.clone());
        }
        Some(record)
    }

    /// Work counters of the workspace's distance oracle.
    pub fn oracle_stats(&self) -> OracleStats {
        self.ws.oracle_stats()
    }

    /// True iff the workspace's oracle carries distance vectors across steps
    /// and can export exact change sets.
    fn persistent_oracle(&self) -> bool {
        self.ws.oracle_kind() == OracleKind::Persistent
    }

    /// The vertices whose distance vectors a single-edge move by `agent` can
    /// touch. `None` means the move is a whole-strategy change and everything
    /// must be invalidated.
    ///
    /// With a non-persistent oracle the endpoints' pre-move distance vectors
    /// are snapshotted (one BFS each) so the post-move diff can be computed.
    /// With the persistent oracle the endpoints are instead pinned into the
    /// oracle's per-source cache at the pre-move version: the post-move re-pin
    /// then replays exactly this move's deltas and exports the exact
    /// changed-vertex set for free — no endpoint BFS at all.
    fn snapshot_endpoints(&mut self, agent: NodeId, mv: &Move) -> Option<Vec<NodeId>> {
        let endpoints: Vec<NodeId> = match *mv {
            Move::Swap { from, to } => vec![agent, from, to],
            Move::Buy { to } | Move::Delete { to } => vec![agent, to],
            Move::SetOwned { .. } | Move::SetNeighbors { .. } => return None,
        };
        if self.persistent_oracle() {
            // Lazy pin: under post-move warming every endpoint vector is
            // already parked at the current version, so this is free; only
            // cold or stale endpoints pay a repair or a BFS.
            self.ws.evaluator.pin_sources(&self.graph, &endpoints);
        } else {
            self.pre_dists.resize(endpoints.len(), Vec::new());
            for (i, &e) in endpoints.iter().enumerate() {
                let dist = self.ws.bfs.run(&self.graph, e);
                self.pre_dists[i].clear();
                self.pre_dists[i].extend_from_slice(dist);
            }
        }
        Some(endpoints)
    }

    /// Invalidates the happiness / cost caches of every agent whose distance
    /// vector may have changed: for single-edge moves, exactly the agents whose
    /// distance to one of the move's endpoints differs between the pre- and
    /// post-move states (plus the endpoints themselves).
    fn invalidate_after_move(&mut self, agent: NodeId, endpoints: Option<Vec<NodeId>>) {
        let n = self.graph.num_nodes();
        match endpoints {
            None => self.invalidate_all(),
            Some(endpoints) if self.persistent_oracle() && self.config.warm_parked => {
                // Fused path: one oracle pass replays the endpoint vectors
                // (exporting the exact invalidation union) and warms every
                // other parked vector — no per-endpoint re-pins at all.
                let mut union = std::mem::take(&mut self.warm_scratch);
                if self
                    .ws
                    .evaluator
                    .warm_after_move(&self.graph, &endpoints, &mut union)
                {
                    for &x in &union {
                        self.verified_happy[x] = false;
                        self.cost_fresh[x] = false;
                    }
                    self.verified_happy[agent] = false;
                    self.cost_fresh[agent] = false;
                    self.warm_scratch = union;
                    self.confirm_pending = true;
                    return;
                }
                // An endpoint window was unreplayable (cold or stale
                // vector): no diff available — be conservative; the
                // post-match block warms everything from its own stamp.
                self.warm_scratch = union;
                self.invalidate_all();
            }
            Some(endpoints) if self.persistent_oracle() => {
                // Cold mode (`warm_parked == false`): per-endpoint diff
                // re-pins, the pre-warming invalidation path.
                let mut changed = std::mem::take(&mut self.changed_scratch);
                for &e in &endpoints {
                    let (_, exact) =
                        self.ws
                            .evaluator
                            .begin_agent_diff(&self.graph, e, &mut changed);
                    if !exact {
                        // The oracle had to re-pin from scratch (cold cache or
                        // staleness); no diff available — be conservative.
                        self.invalidate_all();
                        break;
                    }
                    for &x in &changed {
                        self.verified_happy[x] = false;
                        self.cost_fresh[x] = false;
                    }
                    self.verified_happy[e] = false;
                    self.cost_fresh[e] = false;
                }
                self.verified_happy[agent] = false;
                self.cost_fresh[agent] = false;
                self.changed_scratch = changed;
            }
            Some(endpoints) => {
                for (i, &e) in endpoints.iter().enumerate() {
                    let post = self.ws.bfs.run(&self.graph, e);
                    let pre = &self.pre_dists[i];
                    debug_assert_eq!(post.len(), pre.len());
                    for x in 0..n {
                        if pre[x] != post[x] {
                            self.verified_happy[x] = false;
                            self.cost_fresh[x] = false;
                        }
                    }
                    self.verified_happy[e] = false;
                    self.cost_fresh[e] = false;
                }
                self.verified_happy[agent] = false;
                self.cost_fresh[agent] = false;
            }
        }
        self.confirm_pending = true;
        if self.config.warm_parked && self.persistent_oracle() {
            // Unknown change set (whole-strategy move or an unreplayable
            // endpoint): every parked vector is suspect, so the oracle must
            // repair each from its own stamp rather than trust a bump.
            let mut all = std::mem::take(&mut self.warm_scratch);
            all.clear();
            all.extend(0..n);
            self.ws.evaluator.warm_sources(&self.graph, &all);
            self.warm_scratch = all;
        }
    }

    fn invalidate_all(&mut self) {
        self.verified_happy.iter_mut().for_each(|f| *f = false);
        self.cost_fresh.iter_mut().for_each(|f| *f = false);
    }

    /// Lazy mover selection: agents verified happy since their last
    /// invalidation are skipped; before concluding that the state is stable,
    /// one full re-verification sweep runs against the final graph.
    fn select_mover_dirty<R: Rng>(&mut self, rng: &mut R) -> Option<NodeId> {
        let n = self.graph.num_nodes();
        self.select_call += 1;
        // Iterations entered after the `confirm_pending` reset below *are*
        // the final confirmation sweep; the phase split makes its cost (and
        // the wasted-scan ratio) directly measurable.
        let mut confirming = false;
        loop {
            let _sp = trace::span(if confirming {
                trace::Phase::ConfirmSweep
            } else {
                trace::Phase::Scan
            });
            let mut order = std::mem::take(&mut self.order_scratch);
            order.clear();
            order.extend(0..n);
            match self.config.policy {
                Policy::MaxCost => {
                    // `workspace_cost` refreshes an invalidated cost through
                    // the persistent oracle's cross-step cache when available
                    // (a cheap journal replay instead of a BFS).
                    let _sp = trace::span(trace::Phase::CostRefresh);
                    for u in 0..n {
                        if !self.cost_fresh[u] && !self.verified_happy[u] {
                            self.cached_cost[u] = crate::game::workspace_cost(
                                self.game,
                                &self.graph,
                                u,
                                &mut self.ws,
                            );
                            self.cost_fresh[u] = true;
                        }
                    }
                    if self.config.tie_break == TieBreak::Random {
                        order.shuffle(rng);
                    }
                    let costs = &self.cached_cost;
                    order.sort_by(|&a, &b| {
                        costs[b]
                            .partial_cmp(&costs[a])
                            .expect("costs are never NaN")
                    });
                }
                Policy::Random => order.shuffle(rng),
                Policy::MinIndex => {}
                Policy::RoundRobin => {
                    let start = self.last_mover.map_or(0, |m| (m + 1) % n.max(1));
                    order.clear();
                    order.extend((0..n).map(|i| (start + i) % n));
                }
            }
            let mut found = None;
            let mut scanned = 0u64;
            for &u in &order {
                if self.verified_happy[u] {
                    continue;
                }
                scanned += 1;
                if self.game.has_improving_move(&self.graph, u, &mut self.ws) {
                    found = Some(u);
                    break;
                }
                self.verified_happy[u] = true;
                self.verified_call[u] = self.select_call;
            }
            trace::add(trace::Counter::AgentsScanned, scanned);
            trace::record(trace::HistId::ScanWidth, scanned);
            if confirming {
                trace::add(trace::Counter::ConfirmScans, scanned);
            }
            self.order_scratch = order;
            if found.is_some() {
                trace::add(trace::Counter::ImprovingMoves, 1);
                return found;
            }
            if self.confirm_pending {
                // The dirty heuristic found nobody; before declaring
                // convergence, re-verify every agent whose "happy" status
                // survived from an *earlier* call — a move has happened since,
                // and an unchanged own distance vector does not pin down the
                // values of a candidate scan. Agents verified in the current
                // call were scanned against this exact state already; the
                // deterministic scan would repeat itself, so they are exempt.
                self.confirm_pending = false;
                for u in 0..n {
                    if self.verified_call[u] != self.select_call {
                        self.verified_happy[u] = false;
                    }
                }
                confirming = true;
                continue;
            }
            return None;
        }
    }

    fn choose_response<R: Rng>(&mut self, agent: NodeId, rng: &mut R) -> Option<ScoredMove> {
        let candidates = match self.config.response_mode {
            ResponseMode::BestResponse => {
                self.game.best_responses(&self.graph, agent, &mut self.ws)
            }
            ResponseMode::FirstImproving => {
                self.game.improving_moves(&self.graph, agent, &mut self.ws)
            }
        };
        if candidates.is_empty() {
            return None;
        }
        match self.config.tie_break {
            TieBreak::Deterministic => {
                let mut c = candidates;
                c.sort_by_key(|s| s.mv.sort_key());
                Some(c.remove(0))
            }
            TieBreak::Random => candidates.choose(rng).cloned(),
        }
    }

    /// Checks the current termination/cycle bookkeeping after a successful
    /// step; shared by the sequential and parallel run loops.
    fn post_step_cycle_check(&mut self) -> Option<Termination> {
        if self.config.detect_cycles {
            let key = self.state_key();
            if let Some(&first) = self.seen.get(&key) {
                return Some(Termination::CycleDetected {
                    first_seen_step: first,
                    period: self.steps - first,
                });
            }
            self.seen.insert(key, self.steps);
        }
        None
    }

    /// Runs the process until termination and returns the outcome.
    pub fn run<R: Rng>(mut self, rng: &mut R) -> DynamicsOutcome {
        loop {
            if self.steps >= self.config.max_steps {
                return self.finish(Termination::StepLimit);
            }
            let before_steps = self.steps;
            match self.step(rng) {
                None => return self.finish(Termination::Converged),
                Some(_) => {
                    debug_assert_eq!(self.steps, before_steps + 1);
                    if let Some(termination) = self.post_step_cycle_check() {
                        return self.finish(termination);
                    }
                }
            }
        }
    }

    fn finish(self, termination: Termination) -> DynamicsOutcome {
        DynamicsOutcome {
            termination,
            steps: self.steps,
            final_graph: self.graph,
            trajectory: self.trajectory,
        }
    }
}

impl<'a, G: Game + Sync + ?Sized> Dynamics<'a, G> {
    /// Like [`Dynamics::step`], but the per-agent unhappiness scan (and, for
    /// the max-cost policy, the cost measurements) run across `threads`
    /// scoped worker threads, each with its own workspace.
    ///
    /// This is a *full* scan — it neither consults nor needs the dirty-agent
    /// set — so it suits the large-`n` regime where one step's scan dominates
    /// and a rescan per step is acceptable when spread over cores. The
    /// selected mover follows the configured policy and tie-break exactly as
    /// in the sequential scan (the RNG stream differs, so trajectories are
    /// reproducible per `(seed, threads)` but not across scan modes).
    ///
    /// The scan is traced on the calling thread like the sequential one: one
    /// `Scan` span, every agent counted as scanned, and one improving move
    /// when a mover is found (the workers' own recorders are never
    /// harvested).
    pub fn step_parallel<R: Rng>(&mut self, rng: &mut R, threads: usize) -> Option<MoveRecord> {
        let mover = {
            let _sp = trace::span(trace::Phase::Scan);
            let mover = self.select_mover_parallel(rng, threads);
            let scanned = self.graph.num_nodes() as u64;
            trace::add(trace::Counter::AgentsScanned, scanned);
            trace::record(trace::HistId::ScanWidth, scanned);
            if mover.is_some() {
                trace::add(trace::Counter::ImprovingMoves, 1);
            }
            mover?
        };
        self.step_with_agent(mover, rng)
    }

    fn select_mover_parallel<R: Rng>(&mut self, rng: &mut R, threads: usize) -> Option<NodeId> {
        let n = self.graph.num_nodes();
        if n == 0 {
            return None;
        }
        let need_cost = self.config.policy == Policy::MaxCost;
        let kind = self.ws.oracle_kind();
        let results: Vec<(bool, f64)> = crate::equilibrium::scan_agents_parallel(
            self.game,
            &self.graph,
            kind,
            self.config.oracle_cache_budget,
            self.config.oracle_byte_budget,
            threads,
            &mut self.par_pool,
            |game, g, u, ws| {
                let unhappy = game.has_improving_move(g, u, ws);
                let cost = if need_cost {
                    crate::game::workspace_cost(game, g, u, ws)
                } else {
                    0.0
                };
                (unhappy, cost)
            },
        );
        let mut order: Vec<NodeId> = (0..n).collect();
        match self.config.policy {
            Policy::MaxCost => {
                if self.config.tie_break == TieBreak::Random {
                    order.shuffle(rng);
                }
                order.sort_by(|&a, &b| {
                    results[b]
                        .1
                        .partial_cmp(&results[a].1)
                        .expect("costs are never NaN")
                });
            }
            Policy::Random => order.shuffle(rng),
            Policy::MinIndex => {}
            Policy::RoundRobin => {
                let start = self.last_mover.map_or(0, |m| (m + 1) % n);
                order = (0..n).map(|i| (start + i) % n).collect();
            }
        }
        order.into_iter().find(|&u| results[u].0)
    }
}

/// Runs the sequential-move process defined by `game` and `config` from the initial
/// network `initial`.
pub fn run_dynamics<G: Game + ?Sized, R: Rng>(
    game: &G,
    initial: &OwnedGraph,
    config: &DynamicsConfig,
    rng: &mut R,
) -> DynamicsOutcome {
    Dynamics::new(game, initial.clone(), config.clone()).run(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::{AsymSwapGame, GreedyBuyGame, SwapGame};
    use ncg_graph::{generators, is_tree, properties};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn path_converges_under_sum_swap_game() {
        let game = SwapGame::sum();
        let g = generators::path(8);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = DynamicsConfig::simulation(10_000);
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.converged());
        assert!(is_tree(&out.final_graph));
        // Stable trees of the SUM-SG are stars.
        assert!(properties::is_star(&out.final_graph));
    }

    #[test]
    fn max_swap_game_on_tree_converges_to_diameter_le_3() {
        let game = SwapGame::max();
        let g = generators::path(9);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = DynamicsConfig::simulation(10_000).with_policy(Policy::MaxCost);
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.converged());
        assert!(properties::is_star_or_double_star(&out.final_graph));
    }

    #[test]
    fn every_recorded_move_strictly_improves_the_mover() {
        let game = AsymSwapGame::sum();
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::budgeted_random(20, 2, &mut rng);
        let mut cfg = DynamicsConfig::simulation(10_000);
        cfg.record_trajectory = true;
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.converged());
        for rec in &out.trajectory {
            assert!(
                rec.new_cost < rec.old_cost,
                "step {}: not improving",
                rec.step
            );
        }
    }

    #[test]
    fn step_limit_is_respected() {
        let game = GreedyBuyGame::sum(2.0);
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::random_with_m_edges(15, 30, &mut rng);
        let mut cfg = DynamicsConfig::simulation(3);
        cfg.record_trajectory = true;
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.steps <= 3);
        if !out.converged() {
            assert_eq!(out.termination, Termination::StepLimit);
        }
    }

    #[test]
    fn stable_initial_state_converges_in_zero_steps() {
        let game = SwapGame::sum();
        let g = generators::star(7);
        let mut rng = StdRng::seed_from_u64(5);
        let out = run_dynamics(&game, &g, &DynamicsConfig::simulation(100), &mut rng);
        assert!(out.converged());
        assert_eq!(out.steps, 0);
        assert_eq!(out.final_graph, g);
    }

    #[test]
    fn manual_stepping_controls_the_mover() {
        let game = SwapGame::sum();
        let g = generators::path(6);
        let mut rng = StdRng::seed_from_u64(6);
        let mut dynamics = Dynamics::new(&game, g, DynamicsConfig::analysis(100));
        let unhappy = dynamics.unhappy_agents();
        assert!(unhappy.contains(&0) && unhappy.contains(&5));
        // Vertex 2 (near the centre) is happy on P6? Its sum-distance is 1+2+1+2+3=9;
        // swapping cannot beat attaching to the centre it already has. Either way,
        // forcing a happy agent must return None without changing the state.
        let before = dynamics.graph().clone();
        let happy: Vec<_> = (0..6).filter(|u| !unhappy.contains(u)).collect();
        if let Some(&h) = happy.first() {
            assert!(dynamics.step_with_agent(h, &mut rng).is_none());
            assert_eq!(dynamics.graph(), &before);
        }
        let rec = dynamics.step_with_agent(0, &mut rng).expect("0 is unhappy");
        assert_eq!(rec.agent, 0);
        assert_eq!(dynamics.steps(), 1);
        assert_eq!(dynamics.trajectory().len(), 1);
    }

    #[test]
    fn dirty_agent_tracking_reaches_stable_states() {
        // The dirty-agent engine may pick different movers than the eager
        // scan, but every run must still end in a genuinely stable network
        // (the final confirmation sweep makes termination exact).
        use crate::equilibrium::is_stable;
        for kind in [
            OracleKind::FullBfs,
            OracleKind::Incremental,
            OracleKind::Persistent,
        ] {
            let mut rng = StdRng::seed_from_u64(17);
            let n = 18;
            let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
            let game = GreedyBuyGame::sum(n as f64 / 4.0);
            let mut cfg = DynamicsConfig::simulation(400 * n)
                .with_oracle(kind)
                .with_dirty_agents(true);
            cfg.record_trajectory = true;
            let out = run_dynamics(&game, &g, &cfg, &mut rng);
            assert!(out.converged(), "{}", kind.label());
            let mut ws = Workspace::new(n);
            assert!(
                is_stable(&game, &out.final_graph, &mut ws),
                "{}: final state must be a pure Nash equilibrium",
                kind.label()
            );
            for rec in &out.trajectory {
                assert!(rec.new_cost < rec.old_cost, "{}", kind.label());
            }
        }
    }

    #[test]
    fn dirty_agent_swap_dynamics_match_convergence_regime() {
        // SUM-ASG on trees under the max-cost policy: the Corollary 3.2 regime
        // (≈ 1.5 n moves) must hold with dirty tracking too.
        let mut rng = StdRng::seed_from_u64(31);
        for &n in &[16usize, 25] {
            let tree = generators::random_spanning_tree(n, Some(1), &mut rng);
            let cfg = DynamicsConfig::simulation(10 * n).with_dirty_agents(true);
            let out = run_dynamics(&AsymSwapGame::sum(), &tree, &cfg, &mut rng);
            assert!(out.converged(), "n={n}");
            assert!(is_tree(&out.final_graph));
            assert!(out.steps <= 2 * n, "n={n}: {} steps", out.steps);
        }
    }

    #[test]
    fn persistent_engine_matches_incremental_trajectories() {
        // Same seed, same config, different oracle backend: the scoring is
        // exact in both, so the recorded move sequences must be identical.
        let mut seed_rng = StdRng::seed_from_u64(40);
        let n = 14;
        let g = generators::random_with_m_edges(n, 2 * n, &mut seed_rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let run = |kind: OracleKind| {
            let mut rng = StdRng::seed_from_u64(99);
            let mut cfg = DynamicsConfig::simulation(400 * n).with_oracle(kind);
            cfg.record_trajectory = true;
            run_dynamics(&game, &g, &cfg, &mut rng)
        };
        let reference = run(OracleKind::FullBfs);
        for kind in [OracleKind::Incremental, OracleKind::Persistent] {
            let out = run(kind);
            assert_eq!(out.termination, reference.termination, "{}", kind.label());
            assert_eq!(out.trajectory, reference.trajectory, "{}", kind.label());
            assert_eq!(out.final_graph, reference.final_graph, "{}", kind.label());
        }
    }

    #[test]
    fn persistent_dirty_engine_certifies_exact_equilibria() {
        // The oracle-exported changed-vertex invalidation plus the final
        // confirmation sweep must still end in a genuine pure Nash
        // equilibrium, with every recorded move strictly improving.
        use crate::equilibrium::is_stable;
        let mut rng = StdRng::seed_from_u64(53);
        let n = 20;
        let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let mut cfg = DynamicsConfig::simulation(400 * n)
            .with_oracle(OracleKind::Persistent)
            .with_dirty_agents(true);
        cfg.record_trajectory = true;
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.converged());
        let mut ws = Workspace::new(n);
        assert!(is_stable(&game, &out.final_graph, &mut ws));
        for rec in &out.trajectory {
            assert!(rec.new_cost < rec.old_cost, "step {}", rec.step);
        }
    }

    #[test]
    fn bilateral_delta_consent_matches_fallback_trajectories() {
        // The bilateral game on a persistent engine scores every candidate
        // (and every consent check) through oracle what-ifs; the scoring is
        // exact, so its trajectories must be identical to the
        // apply → BFS → undo engines.
        use crate::games::BilateralBuyGame;
        let mut seed_rng = StdRng::seed_from_u64(71);
        let n = 9;
        let g = generators::random_with_m_edges(n, 14, &mut seed_rng);
        for &alpha in &[1.0, 4.0] {
            let game = BilateralBuyGame::sum(alpha);
            let run = |kind: OracleKind| {
                let mut rng = StdRng::seed_from_u64(13);
                let mut cfg = DynamicsConfig::simulation(200 * n).with_oracle(kind);
                cfg.record_trajectory = true;
                run_dynamics(&game, &g, &cfg, &mut rng)
            };
            let reference = run(OracleKind::FullBfs);
            assert!(reference.converged(), "α={alpha}");
            for kind in [OracleKind::Incremental, OracleKind::Persistent] {
                let out = run(kind);
                assert_eq!(
                    out.termination,
                    reference.termination,
                    "α={alpha} {}",
                    kind.label()
                );
                assert_eq!(
                    out.trajectory,
                    reference.trajectory,
                    "α={alpha} {}",
                    kind.label()
                );
                assert_eq!(
                    out.final_graph,
                    reference.final_graph,
                    "α={alpha} {}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn oracle_cache_budget_never_changes_trajectories() {
        // LRU eviction only trades speed for memory: a harshly budgeted
        // persistent engine must walk exactly the same move sequence as the
        // unlimited one.
        let mut seed_rng = StdRng::seed_from_u64(61);
        let n = 16;
        let g = generators::random_with_m_edges(n, 2 * n, &mut seed_rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let run = |budget: Option<usize>| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut cfg = DynamicsConfig::simulation(400 * n)
                .with_oracle(OracleKind::Persistent)
                .with_oracle_cache_budget(budget);
            cfg.record_trajectory = true;
            run_dynamics(&game, &g, &cfg, &mut rng)
        };
        let unlimited = run(None);
        assert!(unlimited.converged());
        for budget in [Some(0), Some(1), Some(4)] {
            let capped = run(budget);
            assert_eq!(capped.trajectory, unlimited.trajectory, "{budget:?}");
            assert_eq!(capped.final_graph, unlimited.final_graph, "{budget:?}");
        }
    }

    #[test]
    fn oracle_byte_budget_never_changes_trajectories() {
        // Byte budgets demote parked vectors to their sparse balls and then
        // evict them; both are invisible to scoring, so harshly capped runs
        // must walk exactly the unlimited move sequence.
        let mut seed_rng = StdRng::seed_from_u64(67);
        let n = 16;
        let g = generators::random_with_m_edges(n, 2 * n, &mut seed_rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let run = |budget: Option<u64>| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut cfg = DynamicsConfig::simulation(400 * n)
                .with_oracle(OracleKind::Persistent)
                .with_oracle_byte_budget(budget);
            cfg.record_trajectory = true;
            run_dynamics(&game, &g, &cfg, &mut rng)
        };
        let unlimited = run(Some(u64::MAX));
        assert!(unlimited.converged());
        // One dense slot at n = 16 is 68 bytes: 40 forces every park through
        // demotion and eviction, 200 keeps a couple of balls alive.
        for budget in [None, Some(40), Some(200)] {
            let capped = run(budget);
            assert_eq!(capped.trajectory, unlimited.trajectory, "{budget:?}");
            assert_eq!(capped.final_graph, unlimited.final_graph, "{budget:?}");
        }
    }

    #[test]
    fn parallel_scan_selects_valid_movers_and_converges() {
        let mut rng = StdRng::seed_from_u64(23);
        let n = 16;
        let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let cfg = DynamicsConfig::simulation(400 * n);
        let mut dynamics = Dynamics::new(&game, g, cfg);
        let mut steps = 0usize;
        while let Some(record) = dynamics.step_parallel(&mut rng, 3) {
            assert!(record.new_cost < record.old_cost);
            steps += 1;
            assert!(steps <= 400 * n, "did not converge");
        }
        let mut ws = Workspace::new(n);
        assert!(crate::equilibrium::is_stable(
            &game,
            dynamics.graph(),
            &mut ws
        ));
    }

    #[test]
    fn traced_parallel_scan_counts_one_improving_move_per_step() {
        let mut rng = StdRng::seed_from_u64(29);
        let n = 16;
        let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let cfg = DynamicsConfig::simulation(400 * n).with_oracle(OracleKind::Persistent);
        let mut dynamics = Dynamics::new(&game, g, cfg);
        let _ = trace::take_report();
        trace::set_enabled(true);
        let mut steps = 0u64;
        while dynamics.step_parallel(&mut rng, 2).is_some() {
            steps += 1;
        }
        trace::set_enabled(false);
        let report = trace::take_report();
        assert!(steps > 0);
        assert_eq!(report.counter(trace::Counter::ImprovingMoves), steps);
        // Every step plus the final (converged) call scans all n agents.
        assert_eq!(
            report.counter(trace::Counter::AgentsScanned),
            (steps + 1) * n as u64
        );
        let scan = report
            .roots
            .iter()
            .find(|r| r.phase == trace::Phase::Scan)
            .expect("the parallel scan opens a Scan span on the caller");
        assert_eq!(scan.count, steps + 1);
    }

    #[test]
    fn greedy_buy_game_random_network_converges() {
        let mut rng = StdRng::seed_from_u64(8);
        let n = 20;
        let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
        let game = GreedyBuyGame::sum(n as f64 / 4.0);
        let cfg = DynamicsConfig::simulation(10_000).with_policy(Policy::Random);
        let out = run_dynamics(&game, &g, &cfg, &mut rng);
        assert!(out.converged(), "GBG should converge on random instances");
        assert!(properties::is_connected(&out.final_graph));
    }
}
