//! The `paper_compare` workload: Interactive, Ondemand, EBS, PES and the
//! Oracle over every catalog app, on held-out traces generated from the
//! run's seed — the comparison behind the paper's headline numbers.

use std::time::Instant;

use pes_sim::{full_comparison, AppComparison, ExperimentContext, FleetConfig, FleetSpec};
use pes_workload::{Trace, TraceGenerator, EVAL_SEED_BASE};

use crate::layers::{
    fleet_scheduler, observe_and_predict, redrive_fleet, us_since, FleetPath, Policies, Policy,
    Session, POLICIES,
};
use crate::metrics::{median, ratio, Metrics, Samples};
use crate::{chunk, repeat_for, report_host_time, Outcome, Setup, SETUPS};

/// Traces per app and policy in one repeat.
pub const TRACES_PER_APP: usize = 96;

/// The comparison's traces for one seed: app `a` replays traces
/// `base..base + TRACES_PER_APP` with `base = EVAL_SEED_BASE + seed *
/// TRACES_PER_APP`, so every seed draws fresh evaluation traces, disjoint
/// from the training range, and seed 0 starts at the suite's own
/// evaluation seeds.
pub fn trace_base(seed: u64) -> Result<u64, String> {
    seed.checked_mul(TRACES_PER_APP as u64)
        .and_then(|o| o.checked_add(EVAL_SEED_BASE))
        .filter(|b| b.checked_add(TRACES_PER_APP as u64).is_some())
        .ok_or_else(|| format!("seed {seed} puts the trace seeds out of range"))
}

/// Generates `count` traces per app from `base`.
fn generate(ctx: &ExperimentContext, base: u64, count: usize) -> Vec<Vec<Trace>> {
    let tracegen = TraceGenerator::new();
    ctx.catalog
        .apps()
        .iter()
        .enumerate()
        .map(|(app_idx, app)| {
            let page = ctx.scenarios.page_ref(app_idx);
            (0..count as u64)
                .map(|i| tracegen.generate(app, page, base + i))
                .collect()
        })
        .collect()
}

/// Per-policy totals over the whole comparison (indexed like
/// [`POLICIES`]), for the simulated metrics. Every policy replays the same
/// events.
#[derive(Debug, Clone, Default, PartialEq)]
struct Totals {
    events: usize,
    energy_uj: [f64; POLICIES.len()],
    violations: [usize; POLICIES.len()],
    solver_nodes: [usize; POLICIES.len()],
}

/// One comparison over `traces`, folded exactly like `full_comparison`
/// (trace-major, policy-minor per app). `time` receives each unit's host
/// time, per policy, when given; `chunks` receives each app's.
fn compare(
    ctx: &ExperimentContext,
    policies: &Policies,
    traces: &[Vec<Trace>],
    mut time: Option<&mut [Samples]>,
    chunks: &mut Vec<f64>,
) -> (Vec<AppComparison>, Totals) {
    let mut all = Totals::default();
    let apps = ctx.catalog.apps();
    let comparisons = apps
        .iter()
        .enumerate()
        .map(|(app_idx, app)| {
            let mut totals: Vec<(f64, f64, usize)> = vec![(0.0, 0.0, 0); POLICIES.len()];
            chunk(chunks, || {
                for trace in &traces[app_idx] {
                    all.events += trace.len();
                    for (i, &policy) in POLICIES.iter().enumerate() {
                        let t = Instant::now();
                        let unit = policies.run(ctx, policy, app_idx, trace);
                        if let Some(time) = time.as_deref_mut() {
                            time[i].push(us_since(t));
                        }
                        totals[i].0 += unit.energy.as_millijoules();
                        totals[i].1 += unit.violations as f64;
                        totals[i].2 += unit.events;
                        all.energy_uj[i] += unit.energy.as_microjoules();
                        all.violations[i] += unit.violations;
                        all.solver_nodes[i] += unit.solver_nodes;
                    }
                }
            });
            AppComparison {
                app: app.name().to_string(),
                seen: app.is_seen(),
                policies: POLICIES
                    .iter()
                    .zip(totals)
                    .map(|(p, (e, v, n))| (p.name().to_string(), e, ratio(v, n as f64)))
                    .collect(),
            }
        })
        .collect();
    (comparisons, all)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let base = trace_base(seed)?;
    let mut setup = Setup::default();
    let (ctx, traces) = setup.build(traced, |ctx| generate(ctx, base, TRACES_PER_APP));
    let policies = Policies::new(&ctx);
    let units = POLICIES.len() * traces.iter().map(Vec::len).sum::<usize>();
    let events = POLICIES.len() * traces.iter().flatten().map(Trace::len).sum::<usize>();
    let repeat_seconds = if traced { 0.0 } else { seconds };
    let (reference, repeats) = repeat_for(
        repeat_seconds,
        |chunks| compare(&ctx, &policies, &traces, None, chunks),
        SETUPS - 1,
        || drop(setup.build(traced, |ctx| generate(ctx, base, TRACES_PER_APP))),
    )?;
    let mut metrics = Metrics::default();
    let attempted = (units * repeats.walls.len()) as u64;
    if traced {
        setup.report_layers(&mut metrics);
        trace_layers(
            &ctx,
            &policies,
            &traces,
            base,
            &reference,
            median(&repeats.walls),
            &mut metrics,
        )?;
    } else {
        check_eval_seeds(&ctx, &policies)?;
        report_host_time(&mut metrics, &setup, &repeats, units, events);
        let t = &reference.1;
        let (pes, int, ebs) = (
            Policy::Pes as usize,
            Policy::Interactive as usize,
            Policy::Ebs as usize,
        );
        let events = t.events as f64;
        metrics.set(
            "violation_rate",
            "frac",
            ratio(t.violations[pes] as f64, events),
        );
        metrics.set("energy_uj_per_event", "uJ", ratio(t.energy_uj[pes], events));
        metrics.set(
            "pes_energy_norm",
            "frac",
            ratio(t.energy_uj[pes], t.energy_uj[int]),
        );
        metrics.set(
            "pes_vs_ebs_energy",
            "frac",
            ratio(t.energy_uj[pes], t.energy_uj[ebs]),
        );
        metrics.set(
            "pes_vs_interactive_violations",
            "frac",
            ratio(t.violations[pes] as f64, t.violations[int] as f64),
        );
    }
    let nodes = |p: Policy| reference.1.solver_nodes[p as usize] as u64;
    Ok(Outcome {
        metrics,
        attempted,
        walls: repeats.walls,
        setups: setup.into_times(),
        calibrations: repeats.calibrations,
        work: vec![
            ("events", events as u64),
            ("pes_nodes", nodes(Policy::Pes)),
            ("oracle_nodes", nodes(Policy::Oracle)),
        ],
    })
}

/// On the suite's own evaluation traces the comparison must reproduce
/// `full_comparison` bit for bit.
fn check_eval_seeds(ctx: &ExperimentContext, policies: &Policies) -> Result<(), String> {
    let traces = generate(ctx, EVAL_SEED_BASE, ctx.traces_per_app);
    let (ours, _) = compare(ctx, policies, &traces, None, &mut Vec::new());
    if ours == full_comparison(ctx) {
        Ok(())
    } else {
        Err("the comparison on the evaluation seeds differs from full_comparison".into())
    }
}

/// The traced run: every comparison unit timed per policy and the per-app
/// totals checked against the untraced comparison; then the same traces
/// through the fleet's per-unit path (whose PES replays must equal the
/// comparison's PES units) and the DOM + prediction round.
fn trace_layers(
    ctx: &ExperimentContext,
    policies: &Policies,
    traces: &[Vec<Trace>],
    base: u64,
    reference: &(Vec<AppComparison>, Totals),
    untraced_s: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut times = vec![Samples::default(); POLICIES.len()];
    let start = Instant::now();
    let traced = compare(ctx, policies, traces, Some(&mut times), &mut Vec::new());
    let traced_s = start.elapsed().as_secs_f64();
    if &traced != reference {
        return Err("the traced comparison differs from the untraced one".into());
    }
    let calls_s: f64 = times.iter().map(Samples::sum).sum::<f64>() / 1e6;
    for (policy, samples) in POLICIES.iter().zip(&times) {
        m.timing(policy.timing(), samples);
    }
    m.set(
        "sim.driver_frac",
        "frac",
        (untraced_s - calls_s) / untraced_s,
    );
    m.set("trace.overhead_frac", "frac", traced_s / untraced_s - 1.0);

    let sessions: Vec<Session> = (0..traces.len())
        .flat_map(|app_idx| {
            (0..TRACES_PER_APP as u64).map(move |i| Session {
                app_idx,
                trace_seed: base + i,
                stream: 0,
            })
        })
        .collect();
    let mut path = FleetPath::default();
    // Batches and generation cap as a default fleet drains them.
    let config = FleetConfig::default();
    let batch = FleetSpec::default()
        .arrivals_per_step
        .min(config.batch_size);
    let pes = fleet_scheduler(ctx, &config);
    let totals = redrive_fleet(
        ctx,
        &pes,
        &sessions,
        batch,
        config.generation_cap,
        &mut path,
    );
    let plain = &reference.1;
    let pes = Policy::Pes as usize;
    if (totals.events, totals.violations, totals.energy_uj.to_bits())
        != (
            plain.events,
            plain.violations[pes],
            plain.energy_uj[pes].to_bits(),
        )
    {
        return Err(
            "PES replays through the shared memo differ from the comparison's PES units".into(),
        );
    }
    path.report_layers(m);

    let (mut observe, mut round) = (Samples::default(), Samples::default());
    for (app_idx, app_traces) in traces.iter().enumerate() {
        for trace in app_traces {
            observe_and_predict(ctx, app_idx, trace, &mut observe, &mut round);
        }
    }
    m.timing("dom.observe_us", &observe);
    m.timing("predictor.round_us", &round);
    let t = &reference.1;
    let per_event = |p: Policy| ratio(t.solver_nodes[p as usize] as f64, t.events as f64);
    m.set(
        "ilp.pes_nodes_per_event",
        "nodes/event",
        per_event(Policy::Pes),
    );
    m.set(
        "ilp.oracle_nodes_per_event",
        "nodes/event",
        per_event(Policy::Oracle),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pes_workload::TRAINING_SEED_BASE;

    #[test]
    fn each_seed_draws_its_own_held_out_traces() {
        assert_eq!(
            trace_base(0),
            Ok(EVAL_SEED_BASE),
            "seed 0 starts at the suite's own traces"
        );
        for seed in [0, 1, 7, 1 << 40] {
            let base = trace_base(seed).expect("in range");
            assert_eq!(
                trace_base(seed + 1),
                Ok(base + TRACES_PER_APP as u64),
                "no overlap"
            );
            // Training traces start at TRAINING_SEED_BASE plus a per-app
            // offset below 1,000 * 101, one seed per training trace.
            assert!(
                base > TRAINING_SEED_BASE + 1_000 * 101 + 64,
                "outside the training range"
            );
        }
        assert!(trace_base(u64::MAX).is_err());
    }
}
