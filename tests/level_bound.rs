//! Soundness of the persistent oracle's insertion bounds against
//! from-scratch BFS: the per-candidate level-count bound
//! ([`DistanceOracle::insert_level_bound`]) and, further below, the group
//! tier's bound table ([`DistanceOracle::insert_bound_table`]).
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
use selfish_ncg::graph::oracle::{
    DistanceOracle, EdgeDelta, FullBfsOracle, IncrementalOracle, InsertBoundTable,
};
use selfish_ncg::graph::{generators, DistanceSummary, OwnedGraph, UNREACHABLE};

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

/// A graph the source may already be cut off in: a random network or tree
/// whose first few vertices lose every edge.
fn disconnected_graph<R: Rng>(rng: &mut R) -> OwnedGraph {
    let mut g = random_graph(rng);
    for x in 0..rng.gen_range(1usize..4) {
        for y in g.neighbors(x).to_vec() {
            g.remove_edge(x, y);
        }
    }
    g
}

/// How often each of the table's formulas met the exact summary with
/// equality, and how many groups of each kind were checked.
#[derive(Debug, Default)]
struct TableTally {
    /// Groups whose working state reaches every vertex.
    connected_groups: usize,
    /// Groups whose removal cut the (connected) base graph.
    bridge_groups: usize,
    /// Groups on a base graph that was disconnected already.
    disconnected_bases: usize,
    /// Reached targets of a connected working state with a tight SUM entry.
    sum_tight: usize,
    /// The same, for the MAX entry.
    max_tight: usize,
    /// Unreached targets of a cut working state with a tight SUM entry.
    cut_sum_tight: usize,
}

/// Checks the bound table of every group of source `u` — the buys, and the
/// swaps of each edge at `u` — against `truth` for every target: each entry
/// must be at most the exact summary of inserting `{u, v}` after the
/// group's prefix, and the entries must not grow with the distance.
fn check_tables(
    g: &OwnedGraph,
    u: usize,
    oracle: &mut IncrementalOracle,
    truth: &mut FullBfsOracle,
    tally: &mut TableTally,
) {
    let n = g.num_nodes();
    let mut table = InsertBoundTable::default();
    let base_connected = truth.begin(g, u).is_connected();
    oracle.begin(g, u);
    let targets: Vec<usize> = (0..n).filter(|&v| v != u && !g.has_edge(u, v)).collect();
    let mut prefixes = vec![Vec::new()];
    prefixes.extend(
        g.neighbors(u)
            .iter()
            .map(|&from| vec![EdgeDelta::Remove { u, v: from }]),
    );
    for prefix in prefixes {
        let dist = oracle
            .insert_bound_table(g, &prefix, u, &mut table)
            .expect("the persistent backend keeps a table")
            .to_vec();
        let reached = dist.iter().filter(|&&d| d != UNREACHABLE).count();
        match (reached == n, base_connected) {
            (true, _) => tally.connected_groups += 1,
            (false, true) => tally.bridge_groups += 1,
            (false, false) => tally.disconnected_bases += 1,
        }
        let entries = &table.by_dist()[2.min(table.by_dist().len())..];
        for w in entries.windows(2) {
            assert!(
                at_most(w[1], w[0]),
                "table grows with the distance: {entries:?} (u = {u}, {prefix:?})"
            );
        }
        for &v in &targets {
            let mut deltas = prefix.clone();
            deltas.push(EdgeDelta::Insert { u, v });
            let exact = truth.evaluate(&deltas);
            let entry = table.get(dist[v]);
            assert!(
                at_most(entry, exact),
                "table entry {entry:?} above exact {exact:?} for {deltas:?} (u = {u}, d = {})",
                dist[v]
            );
            if reached == n {
                tally.sum_tight += usize::from(entry.sum == exact.sum);
                tally.max_tight += usize::from(entry.max == exact.max);
            } else if dist[v] == UNREACHABLE {
                tally.cut_sum_tight += usize::from(exact.sum.is_some() && entry.sum == exact.sum);
            }
        }
        // The table moved the delta stack; scoring must still be exact.
        if let Some(&v) = targets.first() {
            let mut deltas = prefix.clone();
            deltas.push(EdgeDelta::Insert { u, v });
            assert_eq!(
                oracle.evaluate(&deltas),
                truth.evaluate(&deltas),
                "{deltas:?}"
            );
        }
    }
}

#[test]
fn group_table_never_exceeds_the_exact_summary() {
    let mut rng = StdRng::seed_from_u64(0x7ab1e);
    let mut tally = TableTally::default();
    // Paths from an end attain the SUM and MAX entries at distance 2 (every
    // farther vertex gains exactly 1), and a swap cutting off a two-vertex
    // tail attains the cut entry.
    let fixed = [
        generators::path(12),
        generators::path(3),
        generators::star(9),
    ];
    for g in &fixed {
        let n = g.num_nodes();
        let mut oracle = IncrementalOracle::persistent(n);
        let mut truth = FullBfsOracle::new(n);
        let all: Vec<usize> = (0..n).collect();
        oracle.pin_sources(g, &all);
        for u in 0..n {
            check_tables(g, u, &mut oracle, &mut truth, &mut tally);
        }
    }
    for round in 0..60 * SCALE {
        let g = if round % 3 == 2 {
            disconnected_graph(&mut rng)
        } else {
            random_graph(&mut rng)
        };
        let n = g.num_nodes();
        let mut oracle = IncrementalOracle::persistent(n);
        let mut truth = FullBfsOracle::new(n);
        let all: Vec<usize> = (0..n).collect();
        oracle.pin_sources(&g, &all);
        for _ in 0..4 {
            let u = rng.gen_range(0..n);
            check_tables(&g, u, &mut oracle, &mut truth, &mut tally);
        }
    }
    println!("{tally:?}");
    assert!(tally.connected_groups > 0, "no connected prefix: {tally:?}");
    assert!(
        tally.bridge_groups > 0,
        "no bridge-cutting prefix: {tally:?}"
    );
    assert!(
        tally.disconnected_bases > 0,
        "no disconnected base: {tally:?}"
    );
    // Soundness alone would accept a table that bounds too low; these pin
    // each formula to the cases where it is exact.
    assert!(
        tally.sum_tight > 0,
        "the SUM entry is never attained: {tally:?}"
    );
    assert!(
        tally.max_tight > 0,
        "the MAX entry is never attained: {tally:?}"
    );
    assert!(
        tally.cut_sum_tight > 0,
        "the cut SUM entry is never attained: {tally:?}"
    );
}

#[test]
fn stateless_backends_keep_no_table() {
    let g = generators::path(6);
    let mut table = InsertBoundTable::default();
    let mut full = FullBfsOracle::new(6);
    full.begin(&g, 0);
    assert!(full.insert_bound_table(&g, &[], 0, &mut table).is_none());
    let mut incremental = IncrementalOracle::new(6);
    incremental.begin(&g, 0);
    assert!(incremental
        .insert_bound_table(&g, &[], 0, &mut table)
        .is_none());
    // Nor does the persistent backend for a source it has not pinned.
    let mut persistent = IncrementalOracle::persistent(6);
    persistent.begin(&g, 0);
    assert!(persistent
        .insert_bound_table(&g, &[], 1, &mut table)
        .is_none());
    assert!(persistent
        .insert_bound_table(&g, &[], 0, &mut table)
        .is_some());
}
