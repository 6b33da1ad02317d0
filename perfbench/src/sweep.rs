//! The `paper-sweep` workload: the Fig. 7- and Fig. 11-style plans through
//! `ncg_lab::run_sweep` with its default worker count, journal and telemetry
//! on, then a resume of both finished journals.

use crate::fingerprint::{digest, Verdicts};
use crate::layers;
use crate::report::Report;
use crate::stats::{median_of_means, Ratio};
use crate::trials::{envelope, SETUP_GROUPS};
use ncg_bench::sweeps;
use ncg_lab::{run_sweep, RunOptions, SweepOutcome, SweepPlan};
use ncg_sim::{run_seeded_trial, StreamingStats};
use ncg_trace::{Counter, Phase, Stopwatch, TraceReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Largest `n` of both plans and trials per point (3 ≤ `AutoSplit`'s
/// trial threshold, so the n = 256 points run the parallel scan on ≥ 2
/// cores).
const MAX_N: usize = 256;
const TRIALS: usize = 3;
/// Timed blocks of back-to-back resumes of both journals, so no timer is
/// shorter than about ten milliseconds. Block times are bimodal on a shared
/// host (two levels about 1.5x apart, flipping every 0.2-2 s), so a plain
/// median of blocks flips between the levels from run to run; the resume
/// time is the median of the means of `RESUME_GROUPS` groups of blocks.
const RESUME_BLOCKS: usize = 64;
const RESUME_BLOCK: usize = 32;
const RESUME_GROUPS: usize = 8;
/// Set-up passes over every trial of both plans, made before each plan of
/// the measured sweep and after the last; `setup_s` adds the median of
/// their interleaved group means to the resume time.
const SETUP_PASSES: usize = 4;

fn plans(seed: u64) -> [SweepPlan; 2] {
    [
        sweeps::fig07_style(MAX_N, TRIALS, seed),
        sweeps::fig11_style(MAX_N, TRIALS, seed),
    ]
}

/// Exact, order-sensitive rendering of every point aggregate (f64s by bit
/// pattern), for the resume identity check and the fingerprint.
fn aggregates(outcome: &SweepOutcome) -> String {
    let mut s = String::new();
    for p in &outcome.points {
        let st: &StreamingStats = &p.stats;
        s.push_str(&format!(
            "{:016x}:{}/{} count={} steps={} min={} max={} nc={} del={} swap={} buy={} rw={} mean={:016x} m2={:016x} hist={:?};",
            p.point.hash,
            p.completed_chunks,
            p.total_chunks,
            st.count,
            st.total_steps,
            st.min_steps,
            st.max_steps,
            st.non_converged,
            st.kinds.deletions,
            st.kinds.swaps,
            st.kinds.purchases,
            st.kinds.strategy_rewrites,
            st.mean.to_bits(),
            st.m2.to_bits(),
            st.hist
        ));
    }
    s
}

struct Pass {
    outcomes: Vec<SweepOutcome>,
    plan_s: Vec<f64>,
    journals: Vec<PathBuf>,
}

/// Runs every plan once; `between` runs before each plan and after the last,
/// outside the plan timers.
fn run_pass(
    plans: &[SweepPlan],
    dir: &Path,
    traced: bool,
    mut between: impl FnMut(),
) -> std::io::Result<Pass> {
    std::fs::create_dir_all(dir)?;
    let mut pass = Pass {
        outcomes: Vec::new(),
        plan_s: Vec::new(),
        journals: Vec::new(),
    };
    for plan in plans {
        let journal = dir.join(format!("{}.jsonl", plan.name));
        let telemetry = dir.join(format!("{}.telemetry.jsonl", plan.name));
        for p in [&journal, &telemetry] {
            if p.exists() {
                std::fs::remove_file(p)?;
            }
        }
        let opts = RunOptions {
            journal: Some(journal.clone()),
            telemetry: Some(telemetry),
            ..RunOptions::default()
        };
        between();
        ncg_trace::set_enabled(traced);
        let sw = Stopwatch::start();
        let outcome = run_sweep(plan, &opts);
        let secs = sw.elapsed_secs();
        ncg_trace::set_enabled(false);
        pass.outcomes.push(outcome?);
        pass.plan_s.push(secs);
        pass.journals.push(journal);
    }
    between();
    Ok(pass)
}

/// Resumes every finished journal in `RESUME_BLOCKS` timed blocks of
/// `RESUME_BLOCK` resumes each; returns the seconds of one resume of all
/// journals (median of group means), the per-block samples and the last
/// outcomes.
fn resume(
    plans: &[SweepPlan],
    journals: &[PathBuf],
) -> std::io::Result<(f64, Vec<f64>, Vec<SweepOutcome>)> {
    let mut samples = Vec::new();
    let mut last = Vec::new();
    for _ in 0..RESUME_BLOCKS {
        let sw = Stopwatch::start();
        for _ in 0..RESUME_BLOCK {
            last.clear();
            for (plan, journal) in plans.iter().zip(journals) {
                let opts = RunOptions {
                    journal: Some(journal.clone()),
                    resume: true,
                    ..RunOptions::default()
                };
                last.push(run_sweep(plan, &opts)?);
            }
        }
        samples.push(sw.elapsed_secs() / RESUME_BLOCK as f64);
    }
    let secs = median_of_means(&samples, RESUME_GROUPS).unwrap_or(0.0);
    Ok((secs, samples, last))
}

/// Checks a finished pass: every point complete, every trial converged
/// within the paper's envelope, no skipped journal line, telemetry intact.
fn check_pass(what: &str, plans: &[SweepPlan], pass: &Pass, out: &mut Report) {
    for (plan, o) in plans.iter().zip(&pass.outcomes) {
        for p in &o.points {
            let env = envelope(p.point.family, p.point.n) as u64;
            let st = &p.stats;
            // Trials that never ran (incomplete chunks), did not converge,
            // or converged beyond the envelope (at least one, if the
            // longest did).
            let missing = p.point.trials as u64 - st.count.min(p.point.trials as u64);
            let bad = missing + st.non_converged + u64::from(st.max_steps > env);
            out.tally(
                p.point.trials as u64,
                bad.min(p.point.trials as u64),
                || {
                    format!(
                    "{what} {}: point {}: {}/{} chunks, {} non-converged, longest trial {} moves \
                     (envelope {env})",
                    plan.name,
                    p.point.label(),
                    p.completed_chunks,
                    p.total_chunks,
                    st.non_converged,
                    st.max_steps
                )
                },
            );
        }
        out.check(
            o.completed && !o.telemetry_degraded && o.journal_skipped_lines == 0,
            || {
                format!(
                    "{what} {}: completed {}, telemetry degraded {}, {} skipped journal line(s)",
                    plan.name, o.completed, o.telemetry_degraded, o.journal_skipped_lines
                )
            },
        );
    }
}

fn trials_and_moves(pass: &Pass) -> (u64, u64) {
    let mut trials = 0;
    let mut moves = 0;
    for o in &pass.outcomes {
        for p in &o.points {
            trials += p.stats.count;
            moves += p.stats.total_steps;
        }
    }
    (trials, moves)
}

pub fn execute(seed: u64, traced: bool, scratch: &Path, out: &mut Report) -> std::io::Result<()> {
    let plans = plans(seed);
    let mut verdicts = Verdicts::default();

    let mut gen = Vec::new();
    let mut zero = Vec::new();
    let base = run_pass(&plans, &scratch.join("untraced"), false, || {
        for _ in 0..SETUP_PASSES {
            let (g, z) = setup_pass(&plans);
            gen.push(g);
            zero.push(z);
        }
    })?;
    let gen_s = median_of_means(&gen, SETUP_GROUPS).unwrap_or(0.0);
    let zero_s = median_of_means(&zero, SETUP_GROUPS).unwrap_or(0.0);
    check_pass("sweep", &plans, &base, out);
    let wall: f64 = base.plan_s.iter().sum();
    let (trials, moves) = trials_and_moves(&base);
    out.metric("trials_per_s", trials as f64 / wall, "1/s");
    out.metric("sim.moves_per_s", moves as f64 / wall, "1/s");
    out.samples("plan_wall_s", "s", base.plan_s.clone());
    let fp: String = base.outcomes.iter().map(aggregates).collect();
    out.note("fingerprint.digest", digest(&fp));

    let (resume_s, resume_samples, resumed) = resume(&plans, &base.journals)?;
    out.metric("setup_s", zero_s + resume_s, "s");
    out.samples("setup_pass_s", "s", zero);
    out.samples("resume_s", "s", resume_samples);
    let mut skipped = 0usize;
    for (plan, (r, o)) in plans.iter().zip(resumed.iter().zip(&base.outcomes)) {
        skipped += r.journal_skipped_lines;
        out.check(
            r.executed_chunks == 0 && r.completed && aggregates(r) == aggregates(o),
            || {
                format!(
                    "resume of {}: executed {} chunk(s), aggregates identical: {}",
                    plan.name,
                    r.executed_chunks,
                    aggregates(r) == aggregates(o)
                )
            },
        );
        out.check(r.journal_skipped_lines == 0, || {
            format!(
                "resume of {}: {} skipped journal line(s)",
                plan.name, r.journal_skipped_lines
            )
        });
    }

    if traced {
        let tr_pass = run_pass(&plans, &scratch.join("traced"), true, || {})?;
        check_pass("traced sweep", &plans, &tr_pass, out);
        let tr_fp: String = tr_pass.outcomes.iter().map(aggregates).collect();
        verdicts.record("aggregates traced vs untraced", tr_fp == fp);
        let mut merged = TraceReport::default();
        for o in &tr_pass.outcomes {
            if let Some(t) = &o.trace {
                merged.merge(t);
            }
        }
        let trace_counts = format!(
            "{} chunk_claims={} journal_appends={}",
            layers::trace_counts(&merged),
            merged.counter(Counter::ChunkClaims),
            merged.counter(Counter::JournalAppends),
        );
        out.note("fingerprint.traced_digest", digest(&trace_counts));
        out.note("traced_counts", trace_counts);
        out.metric("graph.generate_s", gen_s, "s");
        out.metric("core.engine_setup_s", (zero_s - gen_s).max(0.0), "s");
        layered(&plans, &base, &tr_pass, &merged, resume_s, skipped, out);
        verdicts.report("paper-sweep", out);
    }
    Ok(())
}

/// Seconds of one set-up pass over every trial of every point: topology
/// generation alone, and the zero-step runner call, which does the work
/// (generation plus engine construction) a trial of the sweep does before
/// its first move. Each is one timer around the whole pass.
fn setup_pass(plans: &[SweepPlan]) -> (f64, f64) {
    let points: Vec<_> = plans.iter().flat_map(SweepPlan::flatten).collect();
    let games: Vec<_> = points.iter().map(|p| p.make_game()).collect();
    let sw = Stopwatch::start();
    for point in &points {
        for t in 0..point.trials {
            let seed = point.base_seed.wrapping_add(t as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            drop(point.scenario.generate(point.n, &mut rng));
        }
    }
    let gen = sw.elapsed_secs();
    let sw = Stopwatch::start();
    for (point, game) in points.iter().zip(&games) {
        for t in 0..point.trials {
            let _ = run_seeded_trial(
                game.as_ref(),
                point.policy,
                point.engine,
                0,
                point.base_seed,
                t,
                |rng| point.scenario.generate(point.n, rng),
            );
        }
    }
    (gen, sw.elapsed_secs())
}

fn layered(
    plans: &[SweepPlan],
    base: &Pass,
    tr: &Pass,
    merged: &TraceReport,
    resume_s: f64,
    skipped: usize,
    out: &mut Report,
) {
    let (trials, moves) = trials_and_moves(tr);
    let n_weighted: f64 = tr
        .outcomes
        .iter()
        .flat_map(|o| &o.points)
        .map(|p| (p.stats.count * p.point.n as u64) as f64)
        .sum();
    let n_max = plans
        .iter()
        .flat_map(|p| p.ns.iter())
        .copied()
        .max()
        .unwrap_or(1);
    layers::trace_metrics(out, merged, n_max, moves);

    out.metric(
        "core.moves_per_agent",
        moves as f64 / n_weighted.max(1.0),
        "ratio",
    );

    let traced_wall: f64 = tr.plan_s.iter().sum();
    let untraced_wall: f64 = base.plan_s.iter().sum();
    for (plan, s) in plans.iter().zip(&tr.plan_s) {
        out.metric(format!("lab.plan_s.{}", plan.name), *s, "s");
    }
    let chunk_s = layers::phase_s(merged, Phase::ChunkRun);
    let workers = ncg_lab::plan::detected_cores() as f64;
    out.metric("lab.chunk_run.s", chunk_s, "s");
    out.metric(
        "lab.chunk_claims",
        merged.counter(Counter::ChunkClaims) as f64,
        "count",
    );
    out.metric(
        "lab.worker_idle_frac",
        (1.0 - chunk_s / (workers * traced_wall)).max(0.0),
        "share",
    );
    out.metric(
        "lab.journal_append.s",
        layers::phase_s(merged, Phase::JournalAppend),
        "s",
    );
    out.metric(
        "lab.journal_appends",
        merged.counter(Counter::JournalAppends) as f64,
        "count",
    );
    let journal_bytes: u64 = tr
        .journals
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    out.metric("lab.journal_bytes", journal_bytes as f64, "B");
    let scan_mode = plans
        .iter()
        .flat_map(SweepPlan::flatten)
        .filter(|p| p.engine.parallel_scan.is_some())
        .count();
    out.metric("lab.scan_mode_points", scan_mode as f64, "count");
    out.metric("lab.resume_s", resume_s, "s");
    out.metric("lab.skipped_lines", skipped as f64, "count");
    let incomplete = tr
        .outcomes
        .iter()
        .flat_map(|o| &o.points)
        .filter(|p| !p.complete())
        .count();
    out.metric("lab.incomplete_points", incomplete as f64, "count");
    let degraded = tr.outcomes.iter().filter(|o| o.telemetry_degraded).count();
    out.metric("lab.telemetry_degraded", degraded as f64, "count");

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
    out.metric("sim.trial_s.samples", 0.0, "count");
    let non_converged: u64 = tr
        .outcomes
        .iter()
        .flat_map(|o| &o.points)
        .map(|p| p.stats.non_converged)
        .sum();
    out.metric("sim.non_converged", non_converged as f64, "count");
    out.note(
        "sweep_trials",
        format!(
            "{trials} trials per pass over {} points",
            plans.iter().map(|p| p.flatten().len()).sum::<usize>()
        ),
    );
}
