//! Deterministic work-counter gates of the candidate scan.
//!
//! A fixed-seed traced trial's work counts are fixed by the seed, so they
//! can be gated exactly where wall-clock could not. Each trial below has two
//! gates, and each fails on any increase over the count recorded when its
//! pruning tier landed:
//!
//! * the `O(n)` fused-kernel calls made inside `apply` (the best-response
//!   enumeration of the chosen mover), gated since the level-count bound
//!   started pruning that enumeration. Before the bound, the SUM-GBG n = 256
//!   trial made ≈ 820 kernel calls per best response and the MAX-GBG n = 128
//!   trial ≈ 380;
//! * the candidates of every scan in the trial (mover selection and `apply`)
//!   that reach the per-candidate level-count bound (tier 0), the
//!   `level_bound_candidates` counter, gated since the group tier started
//!   pruning whole candidate groups ahead of it.
//!
//! Run with `-- --nocapture` to print the measured counts.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfish_ncg::core::dynamics::{run_dynamics, DynamicsConfig};
use selfish_ncg::core::{Game, GreedyBuyGame, OracleKind, TieBreak};
use selfish_ncg::graph::generators;
use selfish_ncg::trace::{self, Counter, Phase, PhaseNode, TraceReport};
use std::sync::Mutex;

/// Serializes the traced trials: the tracing switch is process-global.
static TRACING: Mutex<()> = Mutex::new(());

/// `Apply` spans entered, and fused-kernel spans entered below one.
fn kernel_calls_in_apply(report: &TraceReport) -> (u64, u64) {
    fn walk(node: &PhaseNode, in_apply: bool, applies: &mut u64, kernels: &mut u64) {
        if node.phase == Phase::Apply {
            *applies += node.count;
        }
        if in_apply && node.phase == Phase::FusedKernel {
            *kernels += node.count;
        }
        let in_apply = in_apply || node.phase == Phase::Apply;
        for child in &node.children {
            walk(child, in_apply, applies, kernels);
        }
    }
    let (mut applies, mut kernels) = (0, 0);
    for root in &report.roots {
        walk(root, false, &mut applies, &mut kernels);
    }
    (applies, kernels)
}

/// Runs one traced persistent+dirty trial to convergence from a random
/// `G(n, 2n)` start and fails if its best responses make more than
/// `kernel_gate` fused-kernel calls, or if more than `tier0_gate` candidates
/// reach tier 0.
fn gate_trial(
    label: &str,
    game: &dyn Game,
    n: usize,
    seed: u64,
    kernel_gate: u64,
    tier0_gate: u64,
) {
    let _lock = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::random_with_m_edges(n, 2 * n, &mut rng);
    let cfg = DynamicsConfig::simulation(8 * n)
        .with_tie_break(TieBreak::Random)
        .with_oracle(OracleKind::Persistent)
        .with_dirty_agents(true);
    let _ = trace::take_report();
    trace::set_enabled(true);
    let out = run_dynamics(game, &g, &cfg, &mut rng);
    trace::set_enabled(false);
    let report = trace::take_report();
    assert!(out.converged(), "the gated trial must converge");
    let (applies, kernels) = kernel_calls_in_apply(&report);
    let tier0 = report.counter(Counter::LevelBoundCandidates);
    assert_eq!(applies, out.steps as u64, "one best response per step");
    println!(
        "{label} n = {n}, seed {seed}: {applies} best responses, {kernels} kernel calls \
         ({:.1} each), {tier0} candidates at tier 0",
        kernels as f64 / applies as f64
    );
    assert!(
        kernels <= kernel_gate,
        "{label} n = {n}: {kernels} kernel calls in {applies} best responses, gate {kernel_gate}"
    );
    assert!(
        tier0 <= tier0_gate,
        "{label} n = {n}: {tier0} candidates reached tier 0, gate {tier0_gate}"
    );
}

// Gates: the kernel calls each trial's best responses make with the
// level-count bound in place (529 and 230 best responses; without the bound
// they made 436 349 and 89 394), and the candidates reaching tier 0 with the
// group tier in place. Without the group tier every delta-scored candidate
// reaches tier 0: 697 290 in the SUM-GBG trial and 734 535 in the MAX-GBG
// one (the group tier leaves 225 241 and 163 862; it skips every MAX-GBG
// purchase outright).
#[test]
fn sum_gbg_best_responses_stay_pruned() {
    gate_trial("SUM-GBG", &GreedyBuyGame::sum(64.0), 256, 11, 619, 225_241);
}

#[test]
fn max_gbg_best_responses_stay_pruned() {
    gate_trial("MAX-GBG", &GreedyBuyGame::max(32.0), 128, 11, 0, 163_862);
}
