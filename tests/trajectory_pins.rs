//! Pinned trajectories of the max-cost best-response dynamics.
//!
//! Every move of a seeded run — the mover, the move, and the bit patterns of
//! the mover's old and new cost — is folded into one FNV-1a digest, and the
//! digest is compared with a value recorded from the engine as it stood
//! before the candidate scan learned to prune. SUM/MAX × ASG/GBG, n ∈ {48,
//! 96}, three seeds each, random tie-breaking (which consumes the RNG by the
//! number of tied best responses), on the eager persistent engine and on the
//! persistent dirty-agent engine. A second table pins the modes the first
//! one leaves out: the symmetric Swap Game (SUM/MAX-SG, where the swapped
//! edge may be owned by the other endpoint) and
//! [`ResponseMode::FirstImproving`] (movers pick a random improving move
//! instead of a best response) on the four headline families; both were
//! recorded before the candidate scan learned to prune whole removal groups.
//!
//! A scan optimisation that drops, adds or reorders a tied best response, or
//! changes a cost by one ulp, changes a digest. To re-derive the table (only
//! legitimate when trajectories are *meant* to change), run
//! `cargo test --release --test trajectory_pins -- --nocapture` and copy the
//! printed rows.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfish_ncg::core::dynamics::{run_dynamics, DynamicsConfig, MoveRecord, ResponseMode};
use selfish_ncg::core::{AsymSwapGame, Game, GreedyBuyGame, Move, OracleKind, SwapGame, TieBreak};
use selfish_ncg::graph::{generators, OwnedGraph};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fold_move(h: &mut u64, mv: &Move) {
    let (tag, vs): (u64, Vec<usize>) = match mv {
        Move::Swap { from, to } => (1, vec![*from, *to]),
        Move::Buy { to } => (2, vec![*to]),
        Move::Delete { to } => (3, vec![*to]),
        Move::SetOwned { new_owned } => (4, new_owned.clone()),
        Move::SetNeighbors { new_neighbors } => (5, new_neighbors.clone()),
    };
    fnv(h, tag);
    fnv(h, vs.len() as u64);
    for v in vs {
        fnv(h, v as u64);
    }
}

/// FNV-1a digest of a trajectory: (agent, move, old cost bits, new cost
/// bits) per step.
fn digest(trajectory: &[MoveRecord]) -> u64 {
    let mut h = FNV_OFFSET;
    for rec in trajectory {
        fnv(&mut h, rec.agent as u64);
        fold_move(&mut h, &rec.mv);
        fnv(&mut h, rec.old_cost.to_bits());
        fnv(&mut h, rec.new_cost.to_bits());
    }
    h
}

#[derive(Debug, Clone, Copy)]
enum Family {
    SumAsg,
    MaxAsg,
    SumGbg,
    MaxGbg,
    SumSg,
    MaxSg,
}

impl Family {
    const ALL: [Family; 4] = [
        Family::SumAsg,
        Family::MaxAsg,
        Family::SumGbg,
        Family::MaxGbg,
    ];

    fn label(self) -> &'static str {
        match self {
            Family::SumAsg => "SUM-ASG",
            Family::MaxAsg => "MAX-ASG",
            Family::SumGbg => "SUM-GBG",
            Family::MaxGbg => "MAX-GBG",
            Family::SumSg => "SUM-SG",
            Family::MaxSg => "MAX-SG",
        }
    }

    /// The paper's starts: budget k = 2 for the swap games, a random
    /// connected network with m = 2n edges for GBG (α = n/4, as in the
    /// benchmark).
    fn initial(self, n: usize, rng: &mut StdRng) -> OwnedGraph {
        match self {
            Family::SumAsg | Family::MaxAsg | Family::SumSg | Family::MaxSg => {
                generators::budgeted_random(n, 2, rng)
            }
            Family::SumGbg | Family::MaxGbg => generators::random_with_m_edges(n, 2 * n, rng),
        }
    }

    fn run(self, n: usize, seed: u64, dirty: bool, mode: ResponseMode) -> (usize, u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = self.initial(n, &mut rng);
        let mut cfg = DynamicsConfig::simulation(40 * n)
            .with_tie_break(TieBreak::Random)
            .with_oracle(OracleKind::Persistent)
            .with_dirty_agents(dirty)
            .with_response_mode(mode);
        cfg.record_trajectory = true;
        let alpha = n as f64 / 4.0;
        let run = |game: &dyn Game, rng: &mut StdRng| run_dynamics(game, &g, &cfg, rng);
        let out = match self {
            Family::SumAsg => run(&AsymSwapGame::sum(), &mut rng),
            Family::MaxAsg => run(&AsymSwapGame::max(), &mut rng),
            Family::SumGbg => run(&GreedyBuyGame::sum(alpha), &mut rng),
            Family::MaxGbg => run(&GreedyBuyGame::max(alpha), &mut rng),
            Family::SumSg => run(&SwapGame::sum(), &mut rng),
            Family::MaxSg => run(&SwapGame::max(), &mut rng),
        };
        assert_eq!(out.steps, out.trajectory.len());
        (out.steps, digest(&out.trajectory))
    }
}

/// `(family, n, seed, dirty, steps, digest)`, recorded on the unpruned scan.
const PINS: &[(&str, usize, u64, bool, usize, u64)] = &[
    ("SUM-ASG", 48, 1, false, 40, 0xe4087bd25411b76d),
    ("SUM-ASG", 48, 1, true, 40, 0xe4087bd25411b76d),
    ("SUM-ASG", 48, 2, false, 41, 0x2f9ab4e7d59393f2),
    ("SUM-ASG", 48, 2, true, 41, 0x2f9ab4e7d59393f2),
    ("SUM-ASG", 48, 3, false, 41, 0x54910f3fd5e62871),
    ("SUM-ASG", 48, 3, true, 41, 0x54910f3fd5e62871),
    ("SUM-ASG", 96, 1, false, 91, 0x5282c1f0bf10acb9),
    ("SUM-ASG", 96, 1, true, 91, 0x5282c1f0bf10acb9),
    ("SUM-ASG", 96, 2, false, 85, 0x8e0afd6a801fb516),
    ("SUM-ASG", 96, 2, true, 85, 0x8e0afd6a801fb516),
    ("SUM-ASG", 96, 3, false, 84, 0x8ac88c16aa946f89),
    ("SUM-ASG", 96, 3, true, 84, 0x8ac88c16aa946f89),
    ("MAX-ASG", 48, 1, false, 75, 0xaaad72bf6ebdb770),
    ("MAX-ASG", 48, 1, true, 79, 0x636fbce7236747ae),
    ("MAX-ASG", 48, 2, false, 81, 0x78984f5f44c461af),
    ("MAX-ASG", 48, 2, true, 81, 0x78984f5f44c461af),
    ("MAX-ASG", 48, 3, false, 76, 0x82d3feca0e75ff6a),
    ("MAX-ASG", 48, 3, true, 79, 0xd9bd46a60e658610),
    ("MAX-ASG", 96, 1, false, 181, 0x4b2771b1c323ff16),
    ("MAX-ASG", 96, 1, true, 181, 0x4b2771b1c323ff16),
    ("MAX-ASG", 96, 2, false, 203, 0x11826800f8408558),
    ("MAX-ASG", 96, 2, true, 203, 0x11826800f8408558),
    ("MAX-ASG", 96, 3, false, 197, 0x0b9f003e1bb8c8d1),
    ("MAX-ASG", 96, 3, true, 197, 0x0b9f003e1bb8c8d1),
    ("SUM-GBG", 48, 1, false, 99, 0x2902e898b1698a3a),
    ("SUM-GBG", 48, 1, true, 99, 0x2902e898b1698a3a),
    ("SUM-GBG", 48, 2, false, 93, 0x462fa2533b22a53b),
    ("SUM-GBG", 48, 2, true, 93, 0x462fa2533b22a53b),
    ("SUM-GBG", 48, 3, false, 97, 0x3cb58164ea250a22),
    ("SUM-GBG", 48, 3, true, 97, 0x3cb58164ea250a22),
    ("SUM-GBG", 96, 1, false, 194, 0x7c96c496a8af976e),
    ("SUM-GBG", 96, 1, true, 194, 0x7c96c496a8af976e),
    ("SUM-GBG", 96, 2, false, 188, 0xfb2606c0fe9de454),
    ("SUM-GBG", 96, 2, true, 188, 0xfb2606c0fe9de454),
    ("SUM-GBG", 96, 3, false, 203, 0xc53194b6094a832e),
    ("SUM-GBG", 96, 3, true, 203, 0xc53194b6094a832e),
    ("MAX-GBG", 48, 1, false, 110, 0xaa4de03ba943cb72),
    ("MAX-GBG", 48, 1, true, 110, 0xaa4de03ba943cb72),
    ("MAX-GBG", 48, 2, false, 120, 0x5f6a946e1860a380),
    ("MAX-GBG", 48, 2, true, 120, 0x5f6a946e1860a380),
    ("MAX-GBG", 48, 3, false, 97, 0x98467be6ce78c32a),
    ("MAX-GBG", 48, 3, true, 97, 0x98467be6ce78c32a),
    ("MAX-GBG", 96, 1, false, 155, 0x08559eefdaab3b54),
    ("MAX-GBG", 96, 1, true, 155, 0x08559eefdaab3b54),
    ("MAX-GBG", 96, 2, false, 180, 0x548ba7fb05ee77dd),
    ("MAX-GBG", 96, 2, true, 180, 0x548ba7fb05ee77dd),
    ("MAX-GBG", 96, 3, false, 168, 0x70aea8ef4c960d44),
    ("MAX-GBG", 96, 3, true, 168, 0x70aea8ef4c960d44),
];

/// `(family, n, seed, dirty, steps, digest)` of the modes [`PINS`] leaves
/// out, recorded before whole removal groups were pruned: best responses of
/// the symmetric Swap Game, and better responses
/// ([`ResponseMode::FirstImproving`], rows tagged `better`) of the four
/// headline families.
const MODE_PINS: &[(&str, usize, u64, bool, usize, u64)] = &[
    ("SUM-SG", 48, 1, false, 40, 0x02f8cbcf52ef6b81),
    ("SUM-SG", 48, 1, true, 40, 0x02f8cbcf52ef6b81),
    ("SUM-SG", 48, 2, false, 41, 0x9133d3df635882c7),
    ("SUM-SG", 48, 2, true, 41, 0x9133d3df635882c7),
    ("SUM-SG", 48, 3, false, 41, 0xa5a3d218cb760ab3),
    ("SUM-SG", 48, 3, true, 41, 0xa5a3d218cb760ab3),
    ("SUM-SG", 96, 1, false, 91, 0x091b13504f9c87de),
    ("SUM-SG", 96, 1, true, 91, 0x091b13504f9c87de),
    ("SUM-SG", 96, 2, false, 85, 0x7d1b87ce61198ebc),
    ("SUM-SG", 96, 2, true, 85, 0x7d1b87ce61198ebc),
    ("SUM-SG", 96, 3, false, 84, 0x98dd9c38d68b63d3),
    ("SUM-SG", 96, 3, true, 84, 0x98dd9c38d68b63d3),
    ("MAX-SG", 48, 1, false, 66, 0xefc0419d24ec676a),
    ("MAX-SG", 48, 1, true, 66, 0xefc0419d24ec676a),
    ("MAX-SG", 48, 2, false, 72, 0xfa1b1ce2fd2863dc),
    ("MAX-SG", 48, 2, true, 52, 0x004f01da7b64ecd0),
    ("MAX-SG", 48, 3, false, 81, 0x5d9cd05230d78c49),
    ("MAX-SG", 48, 3, true, 82, 0x00f46ddec23520a7),
    ("MAX-SG", 96, 1, false, 232, 0x48d0b53d8908e29f),
    ("MAX-SG", 96, 1, true, 221, 0xb34f497731e0cca2),
    ("MAX-SG", 96, 2, false, 186, 0xe3cafe76fabd2d1e),
    ("MAX-SG", 96, 2, true, 186, 0x56ff2b027cb0176e),
    ("MAX-SG", 96, 3, false, 168, 0x4aa8354887d369af),
    ("MAX-SG", 96, 3, true, 168, 0xc2b3e0872a0064ef),
    ("better SUM-ASG", 48, 1, false, 166, 0x58f84c3feec7b43c),
    ("better SUM-ASG", 48, 1, true, 166, 0x58f84c3feec7b43c),
    ("better SUM-ASG", 48, 2, false, 152, 0x9d7edca2c254950c),
    ("better SUM-ASG", 48, 2, true, 152, 0x9d7edca2c254950c),
    ("better SUM-ASG", 48, 3, false, 187, 0xa363e77df2f80145),
    ("better SUM-ASG", 48, 3, true, 187, 0xa363e77df2f80145),
    ("better MAX-ASG", 48, 1, false, 79, 0x8ffa4a66cf94021e),
    ("better MAX-ASG", 48, 1, true, 80, 0x61701ba36ff23f81),
    ("better MAX-ASG", 48, 2, false, 37, 0x99dd31d842eabf03),
    ("better MAX-ASG", 48, 2, true, 37, 0x99dd31d842eabf03),
    ("better MAX-ASG", 48, 3, false, 76, 0x82d3feca0e75ff6a),
    ("better MAX-ASG", 48, 3, true, 79, 0xd9bd46a60e658610),
    ("better SUM-GBG", 48, 1, false, 275, 0x396d45cd0edbb50c),
    ("better SUM-GBG", 48, 1, true, 275, 0x396d45cd0edbb50c),
    ("better SUM-GBG", 48, 2, false, 313, 0x673c086c6560a720),
    ("better SUM-GBG", 48, 2, true, 313, 0x673c086c6560a720),
    ("better SUM-GBG", 48, 3, false, 257, 0xd8f492c9888952ef),
    ("better SUM-GBG", 48, 3, true, 257, 0xd8f492c9888952ef),
    ("better MAX-GBG", 48, 1, false, 175, 0x84ecea72bdec5a27),
    ("better MAX-GBG", 48, 1, true, 175, 0x84ecea72bdec5a27),
    ("better MAX-GBG", 48, 2, false, 227, 0x5166187fde87e9b0),
    ("better MAX-GBG", 48, 2, true, 227, 0x5166187fde87e9b0),
    ("better MAX-GBG", 48, 3, false, 180, 0x57ac09fa0f9c4490),
    ("better MAX-GBG", 48, 3, true, 180, 0x57ac09fa0f9c4490),
];

/// Runs every configuration of `families` × `sizes` × seeds 1–3 × {eager,
/// dirty} under `mode` and compares it with its row of `pins`; `tag`
/// (empty for best responses) prefixes the family label in the table.
fn check_table(
    families: &[Family],
    sizes: &[usize],
    mode: ResponseMode,
    tag: &str,
    pins: &[(&str, usize, u64, bool, usize, u64)],
) {
    let mut mismatches = Vec::new();
    for &family in families {
        let label = format!("{tag}{}", family.label());
        for &n in sizes {
            for seed in [1u64, 2, 3] {
                for dirty in [false, true] {
                    let (steps, d) = family.run(n, seed, dirty, mode);
                    println!("    (\"{label}\", {n}, {seed}, {dirty}, {steps}, 0x{d:016x}),");
                    let pin = pins
                        .iter()
                        .find(|p| p.0 == label && p.1 == n && p.2 == seed && p.3 == dirty);
                    match pin {
                        Some(&(_, _, _, _, s, pd)) if s == steps && pd == d => {}
                        _ => mismatches.push(format!(
                            "{label} n={n} seed={seed} dirty={dirty}: {steps} steps, 0x{d:016x}, pinned {pin:?}"
                        )),
                    }
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "trajectories moved:\n{}",
        mismatches.join("\n")
    );
}

fn check(families: &[Family], sizes: &[usize]) {
    check_table(families, sizes, ResponseMode::BestResponse, "", PINS);
}

#[test]
fn asg_trajectories_match_the_pins() {
    check(&Family::ALL[..2], &[48, 96]);
}

#[test]
fn gbg_trajectories_match_the_pins() {
    check(&Family::ALL[2..], &[48, 96]);
}

#[test]
fn swap_game_trajectories_match_the_pins() {
    check_table(
        &[Family::SumSg, Family::MaxSg],
        &[48, 96],
        ResponseMode::BestResponse,
        "",
        MODE_PINS,
    );
}

#[test]
fn first_improving_trajectories_match_the_pins() {
    check_table(
        &Family::ALL,
        &[48],
        ResponseMode::FirstImproving,
        "better ",
        MODE_PINS,
    );
}
