//! Calls into the program's layers, shared by every workload: the fleet's
//! per-unit path re-driven through public calls, the five comparison
//! policies, and the DOM + prediction round. The traced run wraps each call
//! in a timer here, from outside the program.

use std::time::Instant;

use pes_acmp::units::EnergyUj;
use pes_core::{OracleScheduler, PesConfig, PesScheduler, RunReport, SolveGeneration, SolveShard};
use pes_predictor::{PredictScratch, SessionState};
use pes_schedulers::{Ebs, InteractiveGovernor, OndemandGovernor};
use pes_sim::{run_reactive_with_plane, ExperimentContext, FleetConfig, FleetRunReport};
use pes_workload::{Trace, TraceGenerator};

use crate::metrics::{ratio, Metrics, Samples};

/// Microseconds since `start`.
pub fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// One generated session: its catalog app, trace seed and fault stream
/// (the fleet reseeds the context's fault plane per unit with it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    pub app_idx: usize,
    pub trace_seed: u64,
    pub stream: u64,
}

impl Session {
    pub fn generate(&self, ctx: &ExperimentContext) -> Trace {
        let app = &ctx.catalog.apps()[self.app_idx];
        TraceGenerator::new().generate(app, ctx.scenarios.page_ref(self.app_idx), self.trace_seed)
    }
}

/// The full-tier PES scheduler the fleet builds for `config`.
pub fn fleet_scheduler(ctx: &ExperimentContext, config: &FleetConfig) -> PesScheduler {
    PesScheduler::new(
        ctx.learner.clone(),
        PesConfig::paper_defaults()
            .with_watchdog(config.watchdog)
            .with_packed_prediction(config.packed_prediction),
    )
}

/// Aggregates of PES replays, folded in unit order like the fleet folds
/// them, so they can be compared with a [`FleetRunReport`] bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayTotals {
    pub events: usize,
    pub violations: usize,
    pub energy_uj: f64,
    pub solver_nodes: usize,
    pub memo_hits: usize,
    pub memo_misses: usize,
    pub shared_hits: usize,
    pub shared_lookups: usize,
    pub predictions: usize,
    pub correct_predictions: usize,
    pub waste_uj: f64,
}

impl ReplayTotals {
    fn add(&mut self, r: &RunReport, shard: &SolveShard) {
        self.events += r.events;
        self.violations += r.violations;
        self.energy_uj += r.total_energy.as_microjoules();
        self.solver_nodes += r.solver_nodes;
        self.memo_hits += r.solver_cache_hits;
        self.memo_misses += r.solver_cache_misses;
        self.shared_hits += shard.shared_hits();
        self.shared_lookups += shard.shared_lookups();
        self.predictions += r.predictions;
        self.correct_predictions += r.correct_predictions;
        self.waste_uj += r.waste_energy.as_microjoules();
    }

    fn merge(&mut self, o: &ReplayTotals) {
        self.events += o.events;
        self.violations += o.violations;
        self.energy_uj += o.energy_uj;
        self.solver_nodes += o.solver_nodes;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.shared_hits += o.shared_hits;
        self.shared_lookups += o.shared_lookups;
        self.predictions += o.predictions;
        self.correct_predictions += o.correct_predictions;
        self.waste_uj += o.waste_uj;
    }

    /// Checks that these re-derived aggregates are the fleet report's.
    pub fn check_fleet(&self, f: &FleetRunReport) -> Result<(), String> {
        let re = (
            self.events,
            self.violations,
            self.energy_uj.to_bits(),
            self.solver_nodes,
            (self.memo_hits, self.memo_misses),
            (self.shared_hits, self.shared_lookups),
        );
        let fleet = (
            f.events,
            f.violations,
            f.energy_bits(),
            f.solver_nodes,
            (f.memo_hits, f.memo_misses),
            (f.shared_hits, f.shared_lookups),
        );
        if re == fleet {
            Ok(())
        } else {
            Err(format!(
                "traced re-drive {re:?} differs from the fleet report {fleet:?} \
                 (events, violations, energy bits, nodes, ring hits/misses, shared hits/lookups)"
            ))
        }
    }
}

/// What the traced re-drive of the fleet path measured.
#[derive(Debug, Default)]
pub struct FleetPath {
    pub totals: ReplayTotals,
    pub trace_gen: Samples,
    pub replay: Samples,
    pub publish: Samples,
}

impl FleetPath {
    /// Host time spent inside the timed calls, in seconds.
    pub fn calls_s(&self) -> f64 {
        (self.trace_gen.sum() + self.replay.sum() + self.publish.sum()) / 1e6
    }

    /// The fleet path's timings and the counters of its PES replays.
    pub fn report_layers(&self, m: &mut Metrics) {
        let t = &self.totals;
        m.timing("workload.trace_gen_us", &self.trace_gen);
        m.timing("core.replay_us", &self.replay);
        m.timing("core.publish_us", &self.publish);
        m.set(
            "ilp.nodes_per_event",
            "nodes/event",
            ratio(t.solver_nodes as f64, t.events as f64),
        );
        m.set(
            "core.ring_hit_rate",
            "frac",
            ratio(t.memo_hits as f64, (t.memo_hits + t.memo_misses) as f64),
        );
        m.set(
            "core.shared_hit_rate",
            "frac",
            ratio(t.shared_hits as f64, t.shared_lookups as f64),
        );
        m.set(
            "predictor.accuracy",
            "frac",
            ratio(t.correct_predictions as f64, t.predictions as f64),
        );
        m.set(
            "webrt.waste_energy_frac",
            "frac",
            ratio(t.waste_uj, t.energy_uj),
        );
    }
}

/// Re-drives one fleet's units through the calls the fleet makes per unit:
/// trace generation, the shared-memo replay, and one generation publish
/// per batch of `batch` units. Appends to `out`; returns the fleet's own
/// totals for the cross-check.
pub fn redrive_fleet(
    ctx: &ExperimentContext,
    pes: &PesScheduler,
    sessions: &[Session],
    batch: usize,
    cap: usize,
    out: &mut FleetPath,
) -> ReplayTotals {
    let mut totals = ReplayTotals::default();
    let mut generation = SolveGeneration::empty();
    for chunk in sessions.chunks(batch.max(1)) {
        let mut shards = Vec::with_capacity(chunk.len());
        for s in chunk {
            let t = Instant::now();
            let trace = s.generate(ctx);
            out.trace_gen.push(us_since(t));
            let faults = ctx.faults.reseeded(s.stream);
            let mut shard = SolveShard::new();
            let t = Instant::now();
            let run = pes.run_trace_with_shared_memo(
                &ctx.platform,
                &ctx.power_plane,
                ctx.scenarios.page_ref(s.app_idx),
                &trace,
                &ctx.qos,
                &faults,
                &generation,
                &mut shard,
            );
            out.replay.push(us_since(t));
            totals.add(&run, &shard);
            shards.push(shard);
        }
        if shards.iter().any(|s| !s.is_empty()) {
            let t = Instant::now();
            generation = SolveGeneration::publish(&generation, &shards, cap.max(1));
            out.publish.push(us_since(t));
        }
    }
    out.totals.merge(&totals);
    totals
}

/// The five policies of the paper's comparison, in presentation order
/// (the discriminant is the policy's index in [`POLICIES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Interactive,
    Ondemand,
    Ebs,
    Pes,
    Oracle,
}

pub const POLICIES: [Policy; 5] = [
    Policy::Interactive,
    Policy::Ondemand,
    Policy::Ebs,
    Policy::Pes,
    Policy::Oracle,
];

impl Policy {
    pub fn name(self) -> &'static str {
        match self {
            Policy::Interactive => "Interactive",
            Policy::Ondemand => "Ondemand",
            Policy::Ebs => "EBS",
            Policy::Pes => "PES",
            Policy::Oracle => "Oracle",
        }
    }

    /// The per-layer timing this policy's unit is reported under.
    pub fn timing(self) -> &'static str {
        match self {
            Policy::Interactive => "schedulers.interactive_us",
            Policy::Ondemand => "schedulers.ondemand_us",
            Policy::Ebs => "schedulers.ebs_us",
            Policy::Pes => "core.pes_unit_us",
            Policy::Oracle => "core.oracle_unit_us",
        }
    }
}

/// One policy's replay of one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    pub energy: EnergyUj,
    pub violations: usize,
    pub events: usize,
    pub solver_nodes: usize,
}

/// The schedulers of the comparison, built once like `full_comparison`
/// builds them.
#[derive(Debug)]
pub struct Policies {
    pes: PesScheduler,
    oracle: OracleScheduler,
}

impl Policies {
    pub fn new(ctx: &ExperimentContext) -> Self {
        Policies {
            pes: PesScheduler::new(ctx.learner.clone(), PesConfig::paper_defaults()),
            oracle: OracleScheduler::new(),
        }
    }

    /// Replays `trace` under `policy`, as one unit of the comparison.
    pub fn run(
        &self,
        ctx: &ExperimentContext,
        policy: Policy,
        app_idx: usize,
        trace: &Trace,
    ) -> Unit {
        let events = trace.len();
        let reactive = |sched: &mut dyn pes_schedulers::Scheduler| {
            let r =
                run_reactive_with_plane(&ctx.platform, &ctx.power_plane, trace, sched, &ctx.qos);
            Unit {
                energy: r.total_energy,
                violations: r.violations(),
                events,
                solver_nodes: 0,
            }
        };
        let proactive = |r: RunReport| Unit {
            energy: r.total_energy,
            violations: r.violations,
            events,
            solver_nodes: r.solver_nodes,
        };
        let page = ctx.scenarios.page_ref(app_idx);
        match policy {
            Policy::Interactive => reactive(&mut InteractiveGovernor::new()),
            Policy::Ondemand => reactive(&mut OndemandGovernor::new()),
            Policy::Ebs => reactive(&mut Ebs::new(&ctx.platform)),
            Policy::Pes => proactive(self.pes.run_trace_with_plane(
                &ctx.platform,
                &ctx.power_plane,
                page,
                trace,
                &ctx.qos,
            )),
            Policy::Oracle => proactive(self.oracle.run_trace_with_plane(
                &ctx.platform,
                &ctx.power_plane,
                page,
                trace,
                &ctx.qos,
            )),
        }
    }
}

/// Times `SessionState::observe` per event and one PES prediction round
/// (`predict_sequence_with`, the learner configured as PES serves it)
/// after each observed event.
pub fn observe_and_predict(
    ctx: &ExperimentContext,
    app_idx: usize,
    trace: &Trace,
    observe: &mut Samples,
    round: &mut Samples,
) -> usize {
    let mut learner = ctx.learner.clone();
    learner.set_config(PesConfig::paper_defaults().learner);
    let mut state = SessionState::new(ctx.scenarios.page_ref(app_idx).tree.clone());
    let mut scratch = PredictScratch::new();
    let mut predicted = 0;
    for event in trace.events() {
        let t = Instant::now();
        state.observe(event);
        observe.push(us_since(t));
        let t = Instant::now();
        predicted +=
            std::hint::black_box(learner.predict_sequence_with(&state, &mut scratch)).len();
        round.push(us_since(t));
    }
    predicted
}
