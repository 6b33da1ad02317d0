//! Per-layer metrics read from the program's own instrumentation: the
//! `ncg-trace` phase tree and counters of a traced pass, and the
//! `OracleStats` the `*_probed` runner entry points return.

use crate::report::Report;
use ncg_core::OracleStats;
use ncg_trace::{Counter, Phase, PhaseNode, TraceReport};

/// Visits every node with the phases of its ancestors.
fn walk(report: &TraceReport, f: &mut impl FnMut(&PhaseNode, &[Phase])) {
    fn go(node: &PhaseNode, path: &mut Vec<Phase>, f: &mut impl FnMut(&PhaseNode, &[Phase])) {
        f(node, path);
        path.push(node.phase);
        for c in &node.children {
            go(c, path, f);
        }
        path.pop();
    }
    let mut path = Vec::new();
    for r in &report.roots {
        go(r, &mut path, f);
    }
}

/// Seconds inside `phase`, counting each outermost occurrence once (a span
/// nested in a span of the same phase is already inside its parent's time).
pub fn phase_s(report: &TraceReport, phase: Phase) -> f64 {
    let mut ns = 0u64;
    walk(report, &mut |node, path| {
        if node.phase == phase && !path.contains(&phase) {
            ns += node.total_ns;
        }
    });
    ns as f64 * 1e-9
}

/// Times `phase` was entered, anywhere in the tree.
pub fn phase_calls(report: &TraceReport, phase: Phase) -> u64 {
    calls_within(report, None, phase)
}

/// Times `phase` was entered below an `outer` span (anywhere with `None`).
pub fn calls_within(report: &TraceReport, outer: Option<Phase>, phase: Phase) -> u64 {
    let mut calls = 0u64;
    walk(report, &mut |node, path| {
        if node.phase == phase && outer.is_none_or(|o| path.contains(&o)) {
            calls += node.count;
        }
    });
    calls
}

/// Self-time of `phase` in seconds: time inside its spans but outside every
/// child span, summed over the tree.
pub fn phase_self_s(report: &TraceReport, phase: Phase) -> f64 {
    let mut ns = 0u64;
    walk(report, &mut |node, _| {
        if node.phase == phase {
            let children: u64 = node.children.iter().map(|c| c.total_ns).sum();
            ns += node.total_ns.saturating_sub(children);
        }
    });
    ns as f64 * 1e-9
}

/// The `ncg-core` and oracle-kernel metrics of a traced pass. Times are
/// seconds of the traced pass, shares are of its root span time; neither may
/// be compared with untraced wall-clock.
pub fn trace_metrics(out: &mut Report, tr: &TraceReport, n: usize, moves: u64) {
    let root_s = tr.total_ns() as f64 * 1e-9;
    let share = |s: f64| if root_s > 0.0 { s / root_s } else { 0.0 };

    for (name, phase) in [
        ("core.scan", Phase::Scan),
        ("core.apply", Phase::Apply),
        ("core.warm", Phase::Warm),
        ("core.cost_refresh", Phase::CostRefresh),
        ("core.confirm_sweep", Phase::ConfirmSweep),
    ] {
        let s = phase_s(tr, phase);
        out.metric(format!("{name}.s"), s, "s");
        out.metric(
            format!("{name}.calls"),
            phase_calls(tr, phase) as f64,
            "count",
        );
        out.metric(format!("{name}.share"), share(s), "share");
    }
    let enum_self = phase_self_s(tr, Phase::Enumerate);
    out.metric("core.enumerate.self_s", enum_self, "s");
    out.metric(
        "core.enumerate.calls",
        phase_calls(tr, Phase::Enumerate) as f64,
        "count",
    );
    out.metric("core.enumerate.self_share", share(enum_self), "share");

    let kernel_calls = phase_calls(tr, Phase::FusedKernel);
    let kernel_self = phase_self_s(tr, Phase::FusedKernel);
    out.metric(
        "graph.oracle.fused_kernel.calls",
        kernel_calls as f64,
        "count",
    );
    out.metric("graph.oracle.fused_kernel.self_s", kernel_self, "s");
    out.metric(
        "graph.oracle.fused_kernel.self_share",
        share(kernel_self),
        "share",
    );
    // One u16 distance per vertex per call: bytes the kernel computed over,
    // not bytes it necessarily fetched from memory.
    out.metric(
        "graph.oracle.fused_kernel.mib_computed",
        kernel_calls as f64 * n as f64 * 2.0 / (1024.0 * 1024.0),
        "MiB",
    );
    let repair_self = phase_self_s(tr, Phase::DeltaRepair);
    out.metric(
        "graph.oracle.delta_repair.calls",
        phase_calls(tr, Phase::DeltaRepair) as f64,
        "count",
    );
    out.metric("graph.oracle.delta_repair.self_s", repair_self, "s");
    out.metric(
        "graph.oracle.delta_repair.self_share",
        share(repair_self),
        "share",
    );
    out.metric(
        "graph.oracle.batch_wave.self_s",
        phase_self_s(tr, Phase::BatchWave),
        "s",
    );
    out.metric(
        "graph.oracle.demotion.self_s",
        phase_self_s(tr, Phase::Demotion),
        "s",
    );

    let applies = calls_within(tr, None, Phase::Apply);
    let apply_kernel = calls_within(tr, Some(Phase::Apply), Phase::FusedKernel);
    out.metric(
        "core.kernel_calls_per_best_response",
        if applies > 0 {
            apply_kernel as f64 / applies as f64
        } else {
            0.0
        },
        "count",
    );
    out.metric(
        "core.agents_scanned_per_move",
        tr.wasted_scan_ratio().unwrap_or(0.0),
        "count",
    );
    out.metric(
        "core.confirm_scans",
        tr.counter(Counter::ConfirmScans) as f64,
        "count",
    );
    out.metric("core.improving_moves", moves as f64, "count");
    out.metric("trace.leaf_coverage", tr.leaf_coverage(), "share");
}

/// The seed-determined event counts of a traced pass, for fingerprints.
pub fn trace_counts(tr: &TraceReport) -> String {
    format!(
        "agents_scanned={} improving_moves={} confirm_scans={} fused_kernel={}",
        tr.counter(Counter::AgentsScanned),
        tr.counter(Counter::ImprovingMoves),
        tr.counter(Counter::ConfirmScans),
        phase_calls(tr, Phase::FusedKernel)
    )
}

/// `OracleStats` fields as `graph.oracle.*` counts.
pub fn oracle_metrics(out: &mut Report, st: &OracleStats) {
    for (name, v) in oracle_fields(st) {
        out.metric(format!("graph.oracle.{name}"), v as f64, "count");
    }
    out.metric(
        "graph.oracle.sparse_hit_ratio",
        if st.sparse_demotions > 0 {
            st.sparse_hits as f64 / st.sparse_demotions as f64
        } else {
            0.0
        },
        "ratio",
    );
    out.metric(
        "graph.oracle.peak_parked_mib",
        st.peak_parked_bytes as f64 / (1024.0 * 1024.0),
        "MiB",
    );
}

/// The seed-determined `OracleStats` counts, by field name.
pub fn oracle_fields(st: &OracleStats) -> [(&'static str, u64); 15] {
    [
        ("full_bfs_runs", st.full_bfs_runs),
        ("evaluations", st.evaluations),
        ("nodes_expanded", st.nodes_expanded),
        ("replayed_begins", st.replayed_begins),
        ("csr_patches", st.csr_patches),
        ("csr_rebuilds", st.csr_rebuilds),
        ("lazy_replays", st.lazy_replays),
        ("warm_bumps", st.warm_bumps),
        ("warm_batches", st.warm_batches),
        ("lazy_hits", st.lazy_hits),
        ("batched_repins", st.batched_repins),
        ("peak_parked_bytes", st.peak_parked_bytes),
        ("bounded_repairs", st.bounded_repairs),
        ("sparse_demotions", st.sparse_demotions),
        ("sparse_hits", st.sparse_hits),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(phase: Phase, total_ns: u64, count: u64, children: Vec<PhaseNode>) -> PhaseNode {
        PhaseNode {
            phase,
            total_ns,
            count,
            children,
        }
    }

    #[test]
    fn phase_times_count_outermost_spans_and_self_time() {
        let kernel = node(Phase::FusedKernel, 30, 7, vec![]);
        let inner_scan = node(Phase::Scan, 10, 1, vec![]);
        let apply = node(
            Phase::Apply,
            100,
            2,
            vec![node(Phase::Enumerate, 60, 4, vec![kernel.clone()])],
        );
        let scan = node(
            Phase::Scan,
            50,
            3,
            vec![kernel, node(Phase::ConfirmSweep, 15, 1, vec![inner_scan])],
        );
        let tr = TraceReport {
            roots: vec![node(Phase::Trial, 200, 1, vec![scan, apply])],
            ..TraceReport::default()
        };
        // The nested scan lies inside the outer one and is not added again.
        assert!((phase_s(&tr, Phase::Scan) - 50e-9).abs() < 1e-15);
        assert_eq!(phase_calls(&tr, Phase::Scan), 4);
        assert_eq!(phase_calls(&tr, Phase::FusedKernel), 14);
        assert_eq!(calls_within(&tr, Some(Phase::Apply), Phase::FusedKernel), 7);
        assert!((phase_self_s(&tr, Phase::Enumerate) - 30e-9).abs() < 1e-15);
        assert!((phase_self_s(&tr, Phase::Trial) - 50e-9).abs() < 1e-15);
    }
}
