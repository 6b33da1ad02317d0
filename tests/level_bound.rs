//! Soundness of the persistent oracle's level-count insertion bound
//! ([`DistanceOracle::insert_level_bound`]) against from-scratch BFS.
//!
//! For every buy (`[Insert {u, v}]`) and every swap (`[Remove {u, from},
//! Insert {u, to}]`) of a pinned source `u`, the bound must satisfy
//! `lb.sum ≤ exact.sum` and `lb.max ≤ exact.max` (a disconnected summary is
//! +∞), and must equal the exact summary whenever it claims exactness; the
//! fused insertion kernel ([`DistanceOracle::evaluate_insert_via_cache`]),
//! which also claims exactness for some swaps, is held to the same. The
//! graphs are random G(n, m) networks, random trees (every swap removal
//! disconnects the source) and long paths (large eccentricities). The
//! insertion target's parked vector is current, stale (lazily warmed by the
//! query), or demoted by a byte budget (the query must decline or stay
//! sound). After the bound queries the oracle must still score the candidate
//! exactly, so the bound may move the delta stack but never corrupt it.
//! Iteration counts scale up in `--release` like the other randomized
//! suites.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfish_ncg::graph::oracle::{DistanceOracle, EdgeDelta, FullBfsOracle, IncrementalOracle};
use selfish_ncg::graph::{generators, DistanceSummary, OwnedGraph};

/// Scale factor for the randomized loops: modest in debug (tier-1), the full
/// load in release.
const SCALE: usize = if cfg!(debug_assertions) { 1 } else { 10 };

fn random_graph<R: Rng>(rng: &mut R) -> OwnedGraph {
    match rng.gen_range(0u32..4) {
        0 => {
            let n = rng.gen_range(6usize..32);
            generators::random_with_m_edges(n, rng.gen_range(n..3 * n), rng)
        }
        1 => {
            let n = rng.gen_range(6usize..32);
            generators::random_with_m_edges(n, n - 1 + rng.gen_range(0..4), rng)
        }
        2 => generators::random_spanning_tree(rng.gen_range(6usize..40), None, rng),
        _ => generators::path(rng.gen_range(6usize..64)),
    }
}

/// Every buy and swap of `u`, as edge-delta sequences.
fn candidates(g: &OwnedGraph, u: usize) -> Vec<Vec<EdgeDelta>> {
    let n = g.num_nodes();
    let targets: Vec<usize> = (0..n).filter(|&v| v != u && !g.has_edge(u, v)).collect();
    let mut out: Vec<Vec<EdgeDelta>> = targets
        .iter()
        .map(|&v| vec![EdgeDelta::Insert { u, v }])
        .collect();
    for &from in g.neighbors(u) {
        for &to in &targets {
            out.push(vec![
                EdgeDelta::Remove { u, v: from },
                EdgeDelta::Insert { u, v: to },
            ]);
        }
    }
    out
}

fn at_most(lb: DistanceSummary, exact: DistanceSummary) -> bool {
    let sum_ok = match (lb.sum, exact.sum) {
        (Some(a), Some(b)) => a <= b,
        (Some(_), None) => true,
        (None, e) => e.is_none(),
    };
    let max_ok = match (lb.max, exact.max) {
        (Some(a), Some(b)) => a <= b,
        (Some(_), None) => true,
        (None, e) => e.is_none(),
    };
    sum_ok && max_ok
}

/// Checks every candidate of source `u` on `oracle` (already holding parked
/// vectors in whatever state the caller prepared) against `truth`. Returns
/// how many queries the bound answered, and how many of those it claimed
/// exact.
fn check_source(
    g: &OwnedGraph,
    u: usize,
    oracle: &mut IncrementalOracle,
    truth: &mut FullBfsOracle,
    what: &str,
) -> (usize, usize) {
    let (mut answered, mut exact_claims) = (0, 0);
    truth.begin(g, u);
    oracle.begin(g, u);
    for deltas in candidates(g, u) {
        let exact = truth.evaluate(&deltas);
        let (&EdgeDelta::Insert { v, .. }, prefix) = deltas.split_last().expect("non-empty") else {
            unreachable!("candidates end in an insertion");
        };
        if let Some((lb, is_exact)) = oracle.insert_level_bound(g, prefix, u, v) {
            answered += 1;
            assert!(
                at_most(lb, exact),
                "{what}: bound {lb:?} above exact {exact:?} for {deltas:?} (u = {u})"
            );
            if is_exact {
                exact_claims += 1;
                assert_eq!(lb, exact, "{what}: claimed exact for {deltas:?} (u = {u})");
            }
        }
        // The next tier (the fused kernel) under the same contract.
        if let Some((lb, is_exact)) = oracle.evaluate_insert_via_cache(g, prefix, u, v) {
            assert!(
                at_most(lb, exact),
                "{what}: kernel {lb:?} above exact {exact:?} for {deltas:?} (u = {u})"
            );
            if is_exact {
                assert_eq!(lb, exact, "{what}: kernel claimed exact for {deltas:?}");
            }
        }
        assert_eq!(
            oracle.evaluate(&deltas),
            exact,
            "{what}: scoring after the bound queries for {deltas:?} (u = {u})"
        );
    }
    (answered, exact_claims)
}

#[test]
fn level_bound_never_exceeds_the_exact_summary() {
    let mut rng = StdRng::seed_from_u64(0x1e7e1);
    let (mut answered, mut exact_claims) = (0, 0);
    for _ in 0..40 * SCALE {
        let g = random_graph(&mut rng);
        let n = g.num_nodes();
        let mut oracle = IncrementalOracle::persistent(n);
        let mut truth = FullBfsOracle::new(n);
        let all: Vec<usize> = (0..n).collect();
        oracle.pin_sources(&g, &all);
        for _ in 0..4 {
            let u = rng.gen_range(0..n);
            let (a, e) = check_source(&g, u, &mut oracle, &mut truth, "current");
            answered += a;
            exact_claims += e;
        }
    }
    assert!(answered > 0, "the bound never answered");
    // Trees and paths cut the source off with every swap removal: the
    // bridge case answers exactly.
    assert!(exact_claims > 0, "no bridge swap was answered exactly");
}

#[test]
fn level_bound_is_sound_on_lazily_warmed_slots() {
    let mut rng = StdRng::seed_from_u64(0x57a1e);
    let mut lazy_hits = 0;
    for _ in 0..40 * SCALE {
        let mut g = random_graph(&mut rng);
        let n = g.num_nodes();
        let mut oracle = IncrementalOracle::persistent(n);
        let mut truth = FullBfsOracle::new(n);
        let all: Vec<usize> = (0..n).collect();
        oracle.pin_sources(&g, &all);
        // Change the graph behind the parked vectors' backs: every slot but
        // the re-pinned source is stale until a query warms it.
        for _ in 0..rng.gen_range(1..4) {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a != b && !g.add_edge(a, b) {
                g.remove_edge(a, b);
            }
        }
        let u = rng.gen_range(0..n);
        check_source(&g, u, &mut oracle, &mut truth, "stale");
        lazy_hits += oracle.stats().lazy_hits;
    }
    assert!(lazy_hits > 0, "no query warmed a stale slot");
}

#[test]
fn level_bound_declines_or_stays_sound_on_demoted_slots() {
    let mut rng = StdRng::seed_from_u64(0xde307e);
    let mut demotions = 0;
    for _ in 0..40 * SCALE {
        let g = random_graph(&mut rng);
        let n = g.num_nodes();
        // About three dense slots' worth of bytes: most parks demote.
        let dense = 2 * (2 * n as u64 + 2);
        let budget = rng.gen_range(dense..4 * dense);
        let mut oracle = IncrementalOracle::persistent_with_budgets(n, None, Some(budget));
        let mut truth = FullBfsOracle::new(n);
        let all: Vec<usize> = (0..n).collect();
        oracle.pin_sources(&g, &all);
        for _ in 0..3 {
            let u = rng.gen_range(0..n);
            check_source(&g, u, &mut oracle, &mut truth, "demoted");
        }
        demotions += oracle.stats().sparse_demotions;
    }
    assert!(demotions > 0, "no slot was demoted");
}
