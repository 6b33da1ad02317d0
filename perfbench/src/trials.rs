//! Trial workloads (`sum-gbg`, `max-gbg`): one GBG trial at a time on one
//! thread, each through `ncg_sim::run_seeded_trial_probed` and run to
//! convergence.

use crate::fingerprint::{digest, Verdicts};
use crate::layers;
use crate::report::Report;
use crate::stats::{median, median_of_means, tail_percentile, Ratio};
use ncg_core::dynamics::{Dynamics, DynamicsConfig, ResponseMode};
use ncg_core::moves::Move;
use ncg_core::policy::{Policy, TieBreak};
use ncg_core::{Game, OracleKind, OracleStats, Workspace};
use ncg_sim::{run_seeded_trial_probed, AlphaSpec, EngineSpec, GameFamily, InitialTopology};
use ncg_trace::{Stopwatch, TraceReport};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const TOPOLOGY: InitialTopology = InitialTopology::RandomEdges { m_per_n: 2 };
const ALPHA: AlphaSpec = AlphaSpec::FractionOfN(0.25);
const POLICY: Policy = Policy::MaxCost;

/// Interleaved groups of set-up passes (see `stats::median_of_means`).
pub const SETUP_GROUPS: usize = 4;

/// Converged networks larger than this are checked on a seeded agent sample
/// instead of on every agent.
const FULL_CHECK_MAX_N: usize = 256;
const CHECK_SAMPLE: usize = 24;

/// One trial workload.
pub struct TrialWorkload {
    pub family: GameFamily,
    pub n: usize,
    /// Wall seconds one converging trial takes on the reference host;
    /// sizes the run to `--seconds`.
    pub unit_s: f64,
    /// Set-up passes per run, spread evenly between the trials; each pass
    /// sets up every trial of the run once. `setup_s` is the median of the
    /// means of `SETUP_GROUPS` interleaved groups of passes.
    pub setup_passes: usize,
}

fn engine() -> EngineSpec {
    EngineSpec::fastest()
}

/// The paper's convergence envelope: 5n moves for swap games, 7n for GBG.
pub fn envelope(family: GameFamily, n: usize) -> usize {
    match family {
        GameFamily::AsgSum | GameFamily::AsgMax => 5 * n,
        _ => 7 * n,
    }
}

/// Everything measured about one trial.
struct TrialRun {
    wall_s: f64,
    steps: usize,
    converged: bool,
    stats: OracleStats,
    /// Moves, move kinds and `OracleStats`: equal on every pass.
    fingerprint: String,
    /// Traced event counts (empty on an untraced pass).
    traced_counts: String,
    trace: Option<TraceReport>,
}

fn kinds_fingerprint(steps: usize, converged: bool, kinds: [usize; 4], st: &OracleStats) -> String {
    let mut s = format!(
        "steps={steps} converged={converged} del={} swap={} buy={} rewrite={}",
        kinds[0], kinds[1], kinds[2], kinds[3]
    );
    for (name, v) in layers::oracle_fields(st) {
        s.push_str(&format!(" {name}={v}"));
    }
    s
}

impl TrialWorkload {
    fn game(&self) -> Box<dyn Game + Send + Sync> {
        self.family.make_game(self.n, ALPHA.resolve(self.n))
    }

    /// Trials sized to `seconds`.
    fn trials(&self, seconds: f64) -> usize {
        ((seconds / self.unit_s).round() as usize).max(1)
    }

    /// Runs trial `t` once through the public runner.
    fn run(
        &self,
        game: &(dyn Game + Send + Sync),
        base: u64,
        t: usize,
        max_steps: usize,
        traced: bool,
    ) -> TrialRun {
        let n = self.n;
        if traced {
            let _ = ncg_trace::take_report();
            ncg_trace::set_enabled(true);
        }
        let sw = Stopwatch::start();
        let (res, stats) =
            run_seeded_trial_probed(game, POLICY, engine(), max_steps, base, t, |rng| {
                TOPOLOGY.generate(n, rng)
            });
        let wall_s = sw.elapsed_secs();
        let trace = traced.then(|| {
            ncg_trace::set_enabled(false);
            ncg_trace::take_report()
        });
        let k = res.kinds;
        TrialRun {
            wall_s,
            steps: res.steps,
            converged: res.converged,
            fingerprint: kinds_fingerprint(
                res.steps,
                res.converged,
                [k.deletions, k.swaps, k.purchases, k.strategy_rewrites],
                &stats,
            ),
            traced_counts: trace
                .as_ref()
                .map_or_else(String::new, |tr| format!(" {}", layers::trace_counts(tr))),
            stats,
            trace,
        }
    }

    /// Seconds of one set-up pass over trials `0..trials`: topology
    /// generation alone, and the zero-step runner call (generation plus
    /// engine construction). Each is one timer around the whole pass, so no
    /// set-up timer is shorter than about ten milliseconds.
    fn setup_pass(&self, game: &(dyn Game + Send + Sync), base: u64, trials: usize) -> (f64, f64) {
        let n = self.n;
        let sw = Stopwatch::start();
        for t in 0..trials {
            let seed = base.wrapping_add(t as u64);
            drop(TOPOLOGY.generate(n, &mut StdRng::seed_from_u64(seed)));
        }
        let gen = sw.elapsed_secs();
        let sw = Stopwatch::start();
        for t in 0..trials {
            let _ = run_seeded_trial_probed(game, POLICY, engine(), 0, base, t, |rng| {
                TOPOLOGY.generate(n, rng)
            });
        }
        (gen, sw.elapsed_secs())
    }

    /// Re-derives trial `t` by driving the engine directly, returning the
    /// final network's fingerprint and the network (the runner does not
    /// return its network). The configuration and the step loop mirror
    /// `ncg_sim::run_dynamics_trial_probed`, including its dispatch to the
    /// parallel scan; a change there must be mirrored here.
    fn rederive(
        &self,
        game: &(dyn Game + Send + Sync),
        base: u64,
        t: usize,
        max_steps: usize,
    ) -> (String, ncg_graph::OwnedGraph) {
        let e = engine();
        let mut rng = StdRng::seed_from_u64(base.wrapping_add(t as u64));
        let initial = TOPOLOGY.generate(self.n, &mut rng);
        let config = DynamicsConfig {
            policy: POLICY,
            tie_break: TieBreak::Random,
            response_mode: ResponseMode::BestResponse,
            max_steps,
            detect_cycles: false,
            record_trajectory: false,
            ownership_in_state: true,
            oracle: e.oracle,
            oracle_cache_budget: e.oracle_cache_budget,
            oracle_byte_budget: e.oracle_byte_budget,
            dirty_agents: e.dirty_agents && e.parallel_scan.is_none(),
            warm_parked: e.warm_parked,
            warm_batching: e.warm_batching,
        };
        let mut dynamics = Dynamics::new(game, initial, config);
        let mut kinds = [0usize; 4];
        let mut steps = 0usize;
        let converged = loop {
            if steps >= max_steps {
                break false;
            }
            let record = match e.parallel_scan {
                Some(threads) => dynamics.step_parallel(&mut rng, threads),
                None => dynamics.step(&mut rng),
            };
            match record {
                Some(rec) => {
                    let slot = match rec.mv {
                        Move::Delete { .. } => 0,
                        Move::Swap { .. } => 1,
                        Move::Buy { .. } => 2,
                        Move::SetOwned { .. } | Move::SetNeighbors { .. } => 3,
                    };
                    kinds[slot] += 1;
                    steps += 1;
                }
                None => break true,
            }
        };
        let fp = kinds_fingerprint(steps, converged, kinds, &dynamics.oracle_stats());
        (fp, dynamics.graph().clone())
    }

    /// Runs the workload: the untraced measured pass, or (`traced`) an
    /// untraced base plus a traced pass over the same trials.
    pub fn execute(&self, name: &str, seed: u64, seconds: f64, traced: bool, out: &mut Report) {
        let game = self.game();
        let game = game.as_ref();
        let n = self.n;
        let base = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let max_steps = envelope(self.family, n);
        let trials = self.trials(seconds);
        // The traced invocation runs each trial twice, so half of them.
        let trials = if traced { trials.div_ceil(2) } else { trials };
        let mut verdicts = Verdicts::default();

        let mut setup = Vec::new();
        let mut gen = Vec::new();
        let mut runs = Vec::new();
        for t in 0..trials {
            // Pass p runs before trial ⌊p · trials / passes⌋.
            while setup.len() < self.setup_passes && setup.len() * trials / self.setup_passes <= t {
                let (g, s) = self.setup_pass(game, base, trials);
                gen.push(g);
                setup.push(s);
            }
            runs.push(self.run(game, base, t, max_steps, false));
        }
        for (t, r) in runs.iter().enumerate() {
            check_run(name, t, r, max_steps, out);
        }
        let fingerprints: String = runs.iter().map(|r| r.fingerprint.as_str()).collect();
        out.note("fingerprint.digest", digest(&fingerprints));
        let wall: f64 = runs.iter().map(|r| r.wall_s).sum();
        let steps: usize = runs.iter().map(|r| r.steps).sum();
        let setup_s = median_of_means(&setup, SETUP_GROUPS).unwrap_or(0.0);
        let gen_s = median_of_means(&gen, SETUP_GROUPS).unwrap_or(0.0);
        out.samples("trial_wall_s", "s", runs.iter().map(|r| r.wall_s).collect());
        out.samples("setup_pass_s", "s", setup);
        out.samples(
            "trials_per_s.per_trial",
            "1/s",
            runs.iter().map(|r| 1.0 / r.wall_s).collect(),
        );
        out.metric("setup_s", setup_s, "s");
        out.metric("trials_per_s", trials as f64 / wall, "1/s");
        out.metric("sim.moves_per_s", steps as f64 / wall, "1/s");
        out.note(
            "units",
            format!("{trials} trial(s), max_steps {max_steps}, n {n}"),
        );

        if traced {
            self.traced_pass(name, game, base, &runs, max_steps, &mut verdicts, out);
            out.metric("graph.generate_s", gen_s, "s");
            out.metric("core.engine_setup_s", (setup_s - gen_s).max(0.0), "s");
            // The deep check costs one more trial, so only the traced
            // invocation (which runs half the trials) makes it; the quickest
            // trial is the one re-derived.
            let t = (0..runs.len())
                .min_by(|&a, &b| runs[a].wall_s.total_cmp(&runs[b].wall_s))
                .unwrap_or(0);
            self.check_stable(game, base, max_steps, t, &runs[t], &mut verdicts, seed, out);
            verdicts.report(name, out);
        }
    }

    /// Re-runs the measured trials with tracing on and derives the
    /// per-layer metrics from the program's trace tree and oracle counters.
    #[allow(clippy::too_many_arguments)]
    fn traced_pass(
        &self,
        name: &str,
        game: &(dyn Game + Send + Sync),
        base: u64,
        untraced: &[TrialRun],
        max_steps: usize,
        verdicts: &mut Verdicts,
        out: &mut Report,
    ) {
        let n = self.n;
        let mut merged = TraceReport::default();
        let mut stats = OracleStats::default();
        let mut walls = Vec::new();
        let mut moves = 0u64;
        let mut non_converged = 0u64;
        let mut traced_counts = String::new();
        for (t, base_run) in untraced.iter().enumerate() {
            let r = self.run(game, base, t, max_steps, true);
            check_run(name, t, &r, max_steps, out);
            verdicts.record(
                &format!("trial {t} traced vs untraced"),
                r.fingerprint == base_run.fingerprint,
            );
            traced_counts.push_str(&r.traced_counts);
            walls.push(r.wall_s);
            moves += r.steps as u64;
            non_converged += u64::from(!r.converged);
            stats.merge(&r.stats);
            if let Some(tr) = &r.trace {
                merged.merge(tr);
            }
        }
        out.note("fingerprint.traced_digest", digest(&traced_counts));
        layers::trace_metrics(out, &merged, n, moves);
        layers::oracle_metrics(out, &stats);

        let traced_wall: f64 = walls.iter().sum();
        let untraced_wall: f64 = untraced.iter().map(|r| r.wall_s).sum();
        let overhead = Ratio {
            num: traced_wall,
            den: untraced_wall,
            unit: "s",
        };
        out.metric(
            "trace.overhead_ratio",
            overhead.value().unwrap_or(0.0),
            "ratio",
        );
        out.metric("trace.traced_wall_s", traced_wall, "s");
        out.metric("trace.untraced_wall_s", untraced_wall, "s");
        out.note("trace.overhead_ratio", overhead.render());

        out.metric("sim.trial_s.p50", median(&walls).unwrap_or(0.0), "s");
        out.metric(
            "sim.trial_s.max",
            walls.iter().copied().fold(0.0, f64::max),
            "s",
        );
        out.metric("sim.trial_s.samples", walls.len() as f64, "count");
        out.metric("sim.non_converged", non_converged as f64, "count");
        out.note(
            "sim.trial_s.tail",
            match tail_percentile(&walls, 10) {
                Some((p, v)) => format!("p{p} = {v:.3} s of {} trials", walls.len()),
                None => format!(
                    "none: {} trial(s) leave fewer than 10 beyond any percentile",
                    walls.len()
                ),
            },
        );
        out.samples("sim.trial_s", "s", walls.clone());
        let trials = untraced.len() as f64;
        out.metric(
            "core.moves_per_agent",
            moves as f64 / (trials * n as f64),
            "ratio",
        );
        out.metric(
            "core.moves_per_agent.envelope",
            envelope(self.family, n) as f64 / n as f64,
            "ratio",
        );
    }

    /// Re-derives converged trial `t`'s network outside the timed pass and
    /// checks it stable against the full-BFS reference oracle: every agent
    /// at small `n`, a seeded sample otherwise.
    #[allow(clippy::too_many_arguments)]
    fn check_stable(
        &self,
        game: &(dyn Game + Send + Sync),
        base: u64,
        max_steps: usize,
        t: usize,
        run: &TrialRun,
        verdicts: &mut Verdicts,
        seed: u64,
        out: &mut Report,
    ) {
        let (fp, g) = self.rederive(game, base, t, max_steps);
        verdicts.record(&format!("trial {t} re-derived"), run.fingerprint == fp);
        let n = g.num_nodes();
        let mut agents: Vec<usize> = (0..n).collect();
        if n > FULL_CHECK_MAX_N {
            agents.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5ab1e));
            agents.truncate(CHECK_SAMPLE);
        }
        let mut ws = Workspace::with_oracle(n, OracleKind::FullBfs);
        let unhappy: Vec<usize> = agents
            .iter()
            .copied()
            .filter(|&u| game.has_improving_move(&g, u, &mut ws))
            .collect();
        out.check(unhappy.is_empty(), || {
            format!("converged network of trial {t} is not stable: agents {unhappy:?} can improve")
        });
        out.note(
            "stability_check",
            format!(
                "{} agent(s) of the converged network of trial {t} checked against full BFS",
                agents.len()
            ),
        );
    }
}

/// A trial fails unless it converged within the paper's envelope.
fn check_run(name: &str, t: usize, r: &TrialRun, max_steps: usize, out: &mut Report) {
    out.check(r.converged && r.steps <= max_steps, || {
        format!(
            "{name}: trial {t} did not converge within {max_steps} moves ({} applied)",
            r.steps
        )
    });
}
