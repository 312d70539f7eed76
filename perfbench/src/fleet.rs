//! The fleet workloads: `run_fleet` on one worker thread over generated
//! catalog-length sessions, either all distinct (`fleet_unique`) or folded
//! onto short repeated-config sweeps (`fleet_sweep`).

use std::collections::BTreeMap;
use std::time::Instant;

use pes_core::splitmix;
use pes_sim::{
    run_fleet, unit_scenario, ExperimentContext, FleetConfig, FleetRunReport, FleetSpec,
};

use crate::layers::{
    fleet_scheduler, observe_and_predict, redrive_fleet, us_since, FleetPath, Policies, Policy,
    Session, POLICIES,
};
use crate::metrics::{median, ratio, Metrics, Samples};
use crate::{chunk, repeat_for, report_host_time, Outcome, Setup, SETUPS};

/// Fleets per repeat of `fleet_unique` and their sessions: each fleet is
/// timed on its own (see [`crate::Repeats`]).
pub const UNIQUE_FLEETS: usize = 8;
pub const UNIQUE_SESSIONS: usize = 512;
/// Independent sweeps per repeat of `fleet_sweep`, their length and the
/// number of distinct session configurations each cycles through. Twelve
/// configurations keep every sweep's distinct solves inside the default
/// 512-entry generation, so the shared memo answers nearly every solve.
pub const SWEEP_FLEETS: usize = 96;
pub const SWEEP_SESSIONS: usize = 128;
pub const SWEEP_CYCLE: usize = 12;
/// Distinct sessions the traced run replays under every comparison policy
/// and through the DOM + prediction probe.
const LAYER_SAMPLE: usize = 192;

/// One fleet workload: the fleets one repeat runs, in order, all under the
/// same configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetWorkload {
    pub fleets: Vec<FleetSpec>,
    pub config: FleetConfig,
    /// Whether the correctness checks include the shared-memo-off rerun.
    check_memo_off: bool,
}

/// The default fleet configuration on a single worker thread.
fn single_worker() -> FleetConfig {
    FleetConfig {
        threads: 1,
        ..FleetConfig::default()
    }
}

/// The fleet seed of fleet `k` of a workload, derived from the run's seed.
fn fleet_seed(seed: u64, salt: u64, k: usize) -> u64 {
    splitmix(seed ^ splitmix(salt.wrapping_add(k as u64)))
}

impl FleetWorkload {
    pub fn unique(seed: u64) -> Self {
        FleetWorkload {
            fleets: (0..UNIQUE_FLEETS)
                .map(|k| FleetSpec {
                    sessions: UNIQUE_SESSIONS,
                    seed: fleet_seed(seed, 0x000F_1EE7, k),
                    ..FleetSpec::default()
                })
                .collect(),
            config: single_worker(),
            check_memo_off: false,
        }
    }

    pub fn sweep(seed: u64) -> Self {
        FleetWorkload {
            fleets: (0..SWEEP_FLEETS)
                .map(|k| FleetSpec {
                    sessions: SWEEP_SESSIONS,
                    seed: fleet_seed(seed, 0x5EE9, k),
                    scenario_cycle: SWEEP_CYCLE,
                    ..FleetSpec::default()
                })
                .collect(),
            config: single_worker(),
            check_memo_off: true,
        }
    }

    fn sessions(&self) -> usize {
        self.fleets.iter().map(|f| f.sessions).sum()
    }

    /// Units per batch: with no storms and a queue that never fills, each
    /// driver step admits one step's arrivals and drains them whole.
    fn batch_units(&self, spec: &FleetSpec) -> usize {
        spec.arrivals_per_step
            .max(1)
            .min(self.config.batch_size.max(1))
    }

    /// The sessions of one fleet, in unit order.
    fn units(ctx: &ExperimentContext, spec: &FleetSpec) -> Vec<Session> {
        let apps = ctx.catalog.apps().len();
        (0..spec.sessions)
            .map(|unit| {
                let (stream, app_idx, trace_seed, _) =
                    unit_scenario(spec.seed, apps, spec.scenario_unit(unit));
                Session {
                    app_idx,
                    trace_seed,
                    stream,
                }
            })
            .collect()
    }

    /// Every distinct session of the workload with the number of times
    /// one repeat replays it.
    fn distinct(&self, ctx: &ExperimentContext) -> Vec<(Session, usize)> {
        let mut out = Vec::new();
        for spec in &self.fleets {
            let units = Self::units(ctx, spec);
            let mut weights: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
            for unit in 0..spec.sessions {
                weights
                    .entry(spec.scenario_unit(unit))
                    .or_insert((unit, 0))
                    .1 += 1;
            }
            out.extend(weights.values().map(|&(first, n)| (units[first], n)));
        }
        out
    }

    /// Runs every fleet once, pushing each fleet's wall time onto `chunks`.
    fn run_once(
        &self,
        ctx: &ExperimentContext,
        config: &FleetConfig,
        chunks: &mut Vec<f64>,
    ) -> Vec<FleetRunReport> {
        self.fleets
            .iter()
            .map(|spec| chunk(chunks, || run_fleet(ctx, spec, config)))
            .collect()
    }

    /// Every session completed, none was shed or quarantined, and the
    /// driver ran the batches the re-drive assumes.
    fn check_clean(&self, reports: &[FleetRunReport]) -> Result<(), String> {
        for (spec, r) in self.fleets.iter().zip(reports) {
            let batches = spec.sessions.div_ceil(self.batch_units(spec));
            if r.completed != spec.sessions || !r.failures.is_empty() || r.shed != 0 {
                return Err(format!(
                    "fleet {:#x}: completed {} of {} (shed {}, quarantined {})",
                    spec.seed,
                    r.completed,
                    spec.sessions,
                    r.shed,
                    r.failures.len()
                ));
            }
            if r.batches != batches || r.events == 0 || r.energy_uj.is_nan() || r.energy_uj <= 0.0 {
                return Err(format!(
                    "fleet {:#x}: {} batches (expected {batches}), {} events, {} uJ",
                    spec.seed, r.batches, r.events, r.energy_uj
                ));
            }
        }
        Ok(())
    }

    /// The shared memo must not change a single aggregate bit.
    fn check_memo_off(
        &self,
        ctx: &ExperimentContext,
        reports: &[FleetRunReport],
    ) -> Result<(), String> {
        let off = FleetConfig {
            shared_memo: false,
            ..self.config.clone()
        };
        let offs = self.run_once(ctx, &off, &mut Vec::new());
        for (spec, (on, off)) in self.fleets.iter().zip(reports.iter().zip(offs)) {
            let key = |r: &FleetRunReport| {
                (
                    r.events,
                    r.violations,
                    r.energy_bits(),
                    r.solver_nodes,
                    r.memo_hits,
                    r.memo_misses,
                    r.degradation,
                )
            };
            if key(on) != key(&off) {
                return Err(format!(
                    "fleet {:#x}: aggregates differ with the shared memo off: {:?} vs {:?}",
                    spec.seed,
                    key(on),
                    key(&off)
                ));
            }
        }
        Ok(())
    }

    pub fn run(&self, seconds: f64, traced: bool) -> Result<Outcome, String> {
        let mut setup = Setup::default();
        let (ctx, ()) = setup.build(traced, |_| ());
        let repeat_seconds = if traced { 0.0 } else { seconds };
        let (reference, repeats) = repeat_for(
            repeat_seconds,
            |chunks| self.run_once(&ctx, &self.config, chunks),
            SETUPS - 1,
            || drop(setup.build(traced, |_| ())),
        )?;
        self.check_clean(&reference)?;
        let sessions = self.sessions();
        let events: usize = reference.iter().map(|r| r.events).sum();
        let solver_nodes: usize = reference.iter().map(|r| r.solver_nodes).sum();
        let mut metrics = Metrics::default();
        let attempted = (sessions * repeats.walls.len()) as u64;
        if traced {
            self.trace_layers(&ctx, &reference, median(&repeats.walls), &mut metrics)?;
            setup.report_layers(&mut metrics);
        } else {
            if self.check_memo_off {
                self.check_memo_off(&ctx, &reference)?;
            }
            report_host_time(&mut metrics, &setup, &repeats, sessions, events);
            self.report_sim(&ctx, &reference, &mut metrics);
        }
        Ok(Outcome {
            metrics,
            attempted,
            walls: repeats.walls,
            setups: setup.into_times(),
            calibrations: repeats.calibrations,
            work: vec![
                ("events", events as u64),
                ("solver_nodes", solver_nodes as u64),
            ],
        })
    }

    /// The simulated end-to-end metrics: PES over the fleet's sessions, and
    /// PES against Interactive and EBS replaying the same sessions.
    fn report_sim(&self, ctx: &ExperimentContext, reports: &[FleetRunReport], m: &mut Metrics) {
        let (mut events, mut violations, mut energy) = (0usize, 0usize, 0.0f64);
        for r in reports {
            events += r.events;
            violations += r.violations;
            energy += r.energy_uj;
        }
        let policies = Policies::new(ctx);
        let (mut int_e, mut int_v, mut ebs_e) = (0.0f64, 0usize, 0.0f64);
        for (session, weight) in self.distinct(ctx) {
            let trace = session.generate(ctx);
            let int = policies.run(ctx, Policy::Interactive, session.app_idx, &trace);
            let ebs = policies.run(ctx, Policy::Ebs, session.app_idx, &trace);
            int_e += int.energy.as_microjoules() * weight as f64;
            int_v += int.violations * weight;
            ebs_e += ebs.energy.as_microjoules() * weight as f64;
        }
        m.set(
            "violation_rate",
            "frac",
            ratio(violations as f64, events as f64),
        );
        m.set("energy_uj_per_event", "uJ", ratio(energy, events as f64));
        m.set("pes_energy_norm", "frac", ratio(energy, int_e));
        m.set("pes_vs_ebs_energy", "frac", ratio(energy, ebs_e));
        m.set(
            "pes_vs_interactive_violations",
            "frac",
            ratio(violations as f64, int_v as f64),
        );
    }

    /// The traced run: re-drive every fleet's units through the public
    /// calls the fleet makes and check the re-derived aggregates against
    /// the untraced reports, then time the comparison policies and the DOM
    /// + prediction round on a sample of the workload's sessions.
    fn trace_layers(
        &self,
        ctx: &ExperimentContext,
        reports: &[FleetRunReport],
        untraced_s: f64,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let pes = fleet_scheduler(ctx, &self.config);
        let mut path = FleetPath::default();
        let start = Instant::now();
        for (spec, report) in self.fleets.iter().zip(reports) {
            let units = Self::units(ctx, spec);
            let totals = redrive_fleet(
                ctx,
                &pes,
                &units,
                self.batch_units(spec),
                self.config.generation_cap,
                &mut path,
            );
            totals.check_fleet(report)?;
        }
        let traced_s = start.elapsed().as_secs_f64();
        path.report_layers(m);
        m.set(
            "sim.driver_frac",
            "frac",
            (untraced_s - path.calls_s()) / untraced_s,
        );
        m.set("trace.overhead_frac", "frac", traced_s / untraced_s - 1.0);

        let sample: Vec<Session> = self
            .distinct(ctx)
            .into_iter()
            .map(|(s, _)| s)
            .take(LAYER_SAMPLE)
            .collect();
        trace_policies_and_rounds(ctx, &sample, m);
        Ok(())
    }
}

/// Times each comparison policy's unit and the DOM + prediction round over
/// `sample`, and reports them with the PES and Oracle solver nodes per
/// event.
fn trace_policies_and_rounds(ctx: &ExperimentContext, sample: &[Session], m: &mut Metrics) {
    let policies = Policies::new(ctx);
    let mut times: Vec<Samples> = vec![Samples::default(); POLICIES.len()];
    let (mut events, mut pes_nodes, mut oracle_nodes) = (0usize, 0usize, 0usize);
    let (mut observe, mut round) = (Samples::default(), Samples::default());
    for s in sample {
        let trace = s.generate(ctx);
        for (i, &policy) in POLICIES.iter().enumerate() {
            let t = Instant::now();
            let unit = policies.run(ctx, policy, s.app_idx, &trace);
            times[i].push(us_since(t));
            match policy {
                Policy::Pes => pes_nodes += unit.solver_nodes,
                Policy::Oracle => oracle_nodes += unit.solver_nodes,
                _ => {}
            }
        }
        events += trace.len();
        observe_and_predict(ctx, s.app_idx, &trace, &mut observe, &mut round);
    }
    for (policy, samples) in POLICIES.iter().zip(&times) {
        m.timing(policy.timing(), samples);
    }
    m.set(
        "ilp.pes_nodes_per_event",
        "nodes/event",
        ratio(pes_nodes as f64, events as f64),
    );
    m.set(
        "ilp.oracle_nodes_per_event",
        "nodes/event",
        ratio(oracle_nodes as f64, events as f64),
    );
    m.timing("dom.observe_us", &observe);
    m.timing("predictor.round_us", &round);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workload with every fleet seed blanked: what the seed must not
    /// touch.
    fn without_seeds(mut w: FleetWorkload) -> FleetWorkload {
        for f in &mut w.fleets {
            f.seed = 0;
        }
        w
    }

    #[test]
    fn the_seed_reaches_the_program_only_as_fleet_seeds() {
        for make in [FleetWorkload::unique, FleetWorkload::sweep] {
            assert_eq!(make(7), make(7), "the same seed gives the same inputs");
            assert_ne!(make(7), make(8), "another seed gives other inputs");
            assert_eq!(without_seeds(make(7)), without_seeds(make(8)));
            let seeds: std::collections::BTreeSet<u64> =
                make(7).fleets.iter().map(|f| f.seed).collect();
            assert_eq!(
                seeds.len(),
                make(7).fleets.len(),
                "every fleet draws its own sessions"
            );
        }
    }

    #[test]
    fn workloads_run_one_worker_with_the_default_fleet_config() {
        for w in [FleetWorkload::unique(1), FleetWorkload::sweep(1)] {
            assert_eq!(
                w.config,
                FleetConfig {
                    threads: 1,
                    ..FleetConfig::default()
                }
            );
            assert!(w
                .fleets
                .iter()
                .all(|f| f.storm_every == 0 && f.max_events_per_session == 0));
        }
        assert!(FleetWorkload::unique(1)
            .fleets
            .iter()
            .all(|f| f.scenario_cycle == 0));
        assert!(FleetWorkload::sweep(1)
            .fleets
            .iter()
            .all(|f| f.scenario_cycle == SWEEP_CYCLE));
    }
}
