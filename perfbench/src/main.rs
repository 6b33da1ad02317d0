//! Steady end-to-end and per-layer benchmark of the NCG dynamics engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sum-gbg|max-gbg|paper-sweep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation measures one workload in its own process. With
//! `--trace 0` it runs the untraced measured pass and reports the
//! end-to-end metrics; with `--trace 1` it runs an untraced base and a
//! traced pass over the same work and reports the per-layer metrics. The
//! last stdout line is the result object (`correct`, `attempted`, `failed`,
//! `metrics`); the line before it is the full run record (context, every
//! metric, sample quartiles, fingerprint verdicts, failures). See NOTES.md.

mod context;
mod fingerprint;
mod layers;
mod report;
mod stats;
mod sweep;
mod trials;

use ncg_sim::GameFamily;
use report::Report;
use trials::TrialWorkload;

/// End-to-end metrics, reported by every workload with `--trace 0`. One
/// throughput metric per workload: on fixed-seed work moves per second is
/// the same timer over another constant, so it is the per-layer
/// `sim.moves_per_s` instead, and no noise sample is gated twice.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1` (0 where
/// a layer does not take part in the workload).
const PER_LAYER: [(&str, &str); 76] = [
    ("graph.generate_s", "s"),
    ("graph.oracle.fused_kernel.calls", "count"),
    ("graph.oracle.fused_kernel.self_s", "s"),
    ("graph.oracle.fused_kernel.self_share", "share"),
    ("graph.oracle.fused_kernel.mib_computed", "MiB"),
    ("graph.oracle.delta_repair.calls", "count"),
    ("graph.oracle.delta_repair.self_s", "s"),
    ("graph.oracle.delta_repair.self_share", "share"),
    ("graph.oracle.batch_wave.self_s", "s"),
    ("graph.oracle.batched_repins", "count"),
    ("graph.oracle.demotion.self_s", "s"),
    ("graph.oracle.sparse_demotions", "count"),
    ("graph.oracle.sparse_hits", "count"),
    ("graph.oracle.sparse_hit_ratio", "ratio"),
    ("graph.oracle.peak_parked_mib", "MiB"),
    ("graph.oracle.nodes_expanded", "count"),
    ("graph.oracle.full_bfs_runs", "count"),
    ("graph.oracle.lazy_replays", "count"),
    ("graph.oracle.warm_bumps", "count"),
    ("graph.oracle.bounded_repairs", "count"),
    ("graph.oracle.csr_patches", "count"),
    ("graph.oracle.csr_rebuilds", "count"),
    ("graph.oracle.evaluations", "count"),
    ("graph.oracle.replayed_begins", "count"),
    ("graph.oracle.warm_batches", "count"),
    ("graph.oracle.lazy_hits", "count"),
    ("core.engine_setup_s", "s"),
    ("core.scan.s", "s"),
    ("core.scan.calls", "count"),
    ("core.scan.share", "share"),
    ("core.apply.s", "s"),
    ("core.apply.calls", "count"),
    ("core.apply.share", "share"),
    ("core.warm.s", "s"),
    ("core.warm.calls", "count"),
    ("core.warm.share", "share"),
    ("core.cost_refresh.s", "s"),
    ("core.cost_refresh.calls", "count"),
    ("core.cost_refresh.share", "share"),
    ("core.confirm_sweep.s", "s"),
    ("core.confirm_sweep.calls", "count"),
    ("core.confirm_sweep.share", "share"),
    ("core.enumerate.self_s", "s"),
    ("core.enumerate.calls", "count"),
    ("core.enumerate.self_share", "share"),
    ("core.agents_scanned_per_move", "count"),
    ("core.kernel_calls_per_best_response", "count"),
    ("core.confirm_scans", "count"),
    ("core.improving_moves", "count"),
    ("core.moves_per_agent", "ratio"),
    ("core.moves_per_agent.envelope", "ratio"),
    ("sim.moves_per_s", "1/s"),
    ("sim.trial_s.p50", "s"),
    ("sim.trial_s.max", "s"),
    ("sim.trial_s.samples", "count"),
    ("sim.non_converged", "count"),
    ("lab.plan_s.fig07-style", "s"),
    ("lab.plan_s.fig11-style", "s"),
    ("lab.chunk_run.s", "s"),
    ("lab.chunk_claims", "count"),
    ("lab.worker_idle_frac", "share"),
    ("lab.journal_append.s", "s"),
    ("lab.journal_appends", "count"),
    ("lab.journal_bytes", "B"),
    ("lab.scan_mode_points", "count"),
    ("lab.resume_s", "s"),
    ("lab.skipped_lines", "count"),
    ("lab.incomplete_points", "count"),
    ("lab.telemetry_degraded", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.leaf_coverage", "share"),
    ("fingerprint.mismatches", "count"),
    ("fingerprint.comparisons", "count"),
    ("run.failed_share", "share"),
];

const WORKLOADS: [&str; 3] = ["sum-gbg", "max-gbg", "paper-sweep"];

fn trial_workload(name: &str) -> Option<TrialWorkload> {
    let (family, n, unit_s, setup_passes) = match name {
        "sum-gbg" => (GameFamily::GbgSum, 1024, 4.6, 8),
        "max-gbg" => (GameFamily::GbgMax, 128, 0.28, 24),
        _ => return None,
    };
    Some(TrialWorkload {
        family,
        n,
        unit_s,
        setup_passes,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| bad("a whole number of seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(28).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> std::io::Result<Report> {
    let mut out = Report::default();
    match trial_workload(&args.workload) {
        Some(w) => w.execute(
            &args.workload,
            args.seed,
            args.seconds as f64,
            args.trace,
            &mut out,
        ),
        None => {
            let scratch = context::checkout_root()
                .join("perfbench")
                .join("out")
                .join(format!("sweep-{}", std::process::id()));
            let result = sweep::execute(args.seed, args.trace, &scratch, &mut out);
            let _ = std::fs::remove_dir_all(&scratch);
            result?;
        }
    }
    let rss = context::peak_rss_mib()
        .ok_or_else(|| std::io::Error::other("VmHWM not readable from /proc/self/status"))?;
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric(
        "run.failed_share",
        stats::failure_share(out.failed, out.attempted).unwrap_or(0.0),
        "share",
    );
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let sw = ncg_trace::Stopwatch::start();
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in wanted {
        match out.get(name) {
            Some(v) => eprintln!("  {name:<44} {v:>16.6} {unit}"),
            None => eprintln!("  {name:<44} {:>16} {unit}", "n/a (0)"),
        }
    }
    for (k, v) in &out.notes {
        eprintln!("  {k}: {v}");
    }
    for f in &out.failures {
        eprintln!("  FAILED: {f}");
    }
    eprintln!(
        "perfbench {} seed {} trace {}: {}/{} failed, {:.1} s",
        args.workload,
        args.seed,
        u8::from(args.trace),
        out.failed,
        out.attempted,
        sw.elapsed_secs()
    );
    println!(
        "{{\"perfbench_run\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"wall_s\":{},{},\"report\":{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        stats::num(sw.elapsed_secs()),
        context::json_members(),
        out.record_json()
    );
    println!("{}", out.result_line(wanted));
}
