//! Single-worker replay benchmark of the PES workspace.
//!
//! ```text
//! perfbench --workload <fleet_unique|fleet_sweep|paper_compare> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds the experiment context (set-up time), then repeats the
//! workload for `--seconds` seconds, checking every repeat's simulated
//! results against the first's; between repeats it builds the context
//! again and calibrates the host. `--trace 0` prints the end-to-end
//! metrics, `--trace 1`
//! the per-layer metrics of a separate traced run. The last line of
//! standard output is the JSON result; a run whose checks fail prints
//! `"correct": false` and exits with code 1. Run it on one worker thread
//! (`PES_THREADS=1`, which `run.py` sets).

mod fleet;
mod host;
mod layers;
mod metrics;
mod paper;

use std::sync::Arc;
use std::time::Instant;

use pes_acmp::{DvfsLadder, Platform};
use pes_core::FaultPlane;
use pes_predictor::{LearnerConfig, Trainer};
use pes_sim::{train_learner_parallel, ExperimentContext, ScenarioCache};
use pes_webrt::QosPolicy;
use pes_workload::AppCatalog;

use crate::metrics::{fastest, Metrics};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fleet_unique", "fleet_sweep", "paper_compare"];

/// Context builds per run: the first makes the run's context, the others
/// are spread over the timed region and dropped. `setup_s` is the fastest.
pub const SETUPS: usize = 16;
/// Fewest timed repeats a run makes, however long each takes.
const MIN_REPEATS: usize = 3;
/// Evaluation traces the context caches per app (the set the
/// `full_comparison` cross-check replays).
const CONTEXT_TRACES: usize = 2;

/// What a workload run measured.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Session replays run, all of which completed and passed the checks.
    pub attempted: u64,
    /// Wall time of each timed repeat, in seconds.
    pub walls: Vec<f64>,
    /// Wall time of each set-up build, in seconds.
    pub setups: Vec<f64>,
    /// Wall time of each host calibration, in seconds.
    pub calibrations: Vec<f64>,
    /// The simulated work of one repeat (events, solver nodes), which
    /// depends on the seed alone: it tells a seed's cost from the host's
    /// speed when runs are compared.
    pub work: Vec<(&'static str, u64)>,
}

/// Set-up times of one run.
#[derive(Debug, Default)]
pub struct Setup {
    total_s: Vec<f64>,
    training_s: Vec<f64>,
    scenarios_s: Vec<f64>,
}

impl Setup {
    /// Builds the experiment context, then the workload's own set-up
    /// `extra` on it, and records the time. The traced run builds the
    /// context from its two public parts to time them apart: the predictor
    /// training (`train_learner_parallel`) and the scenario cache
    /// (`ScenarioCache::build`).
    pub fn build<T>(
        &mut self,
        traced: bool,
        extra: impl FnOnce(&ExperimentContext) -> T,
    ) -> (ExperimentContext, T) {
        let start = Instant::now();
        let ctx = if traced {
            let catalog = AppCatalog::paper_suite();
            let t = Instant::now();
            let learner =
                train_learner_parallel(&Trainer::new(), &catalog, LearnerConfig::paper_defaults());
            self.training_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let scenarios = ScenarioCache::build(&catalog, CONTEXT_TRACES);
            self.scenarios_s.push(t.elapsed().as_secs_f64());
            let platform = Platform::exynos_5410();
            ExperimentContext {
                power_plane: Arc::new(DvfsLadder::for_platform(&platform)),
                platform,
                qos: QosPolicy::paper_defaults(),
                catalog,
                learner,
                traces_per_app: CONTEXT_TRACES,
                scenarios,
                faults: FaultPlane::none(),
            }
        } else {
            ExperimentContext::new(CONTEXT_TRACES)
        };
        let x = extra(&ctx);
        self.total_s.push(start.elapsed().as_secs_f64());
        (ctx, x)
    }

    /// The fastest build, for the reason [`Repeats::best_rate`] gives.
    pub fn fastest_s(&self) -> f64 {
        fastest(&self.total_s)
    }

    pub fn report_layers(&self, m: &mut Metrics) {
        m.set("sim.training_s", "s", fastest(&self.training_s));
        m.set("sim.scenarios_s", "s", fastest(&self.scenarios_s));
    }

    pub fn into_times(self) -> Vec<f64> {
        self.total_s
    }
}

/// The timed repeats of one run.
#[derive(Debug, Default)]
pub struct Repeats {
    /// Wall time of each repeat, in seconds.
    pub walls: Vec<f64>,
    /// Each chunk's fastest wall time over the repeats, in seconds.
    pub fastest_chunks: Vec<f64>,
    /// Wall time of each [`host::calibration_s`] run, in seconds.
    pub calibrations: Vec<f64>,
}

impl Repeats {
    /// `n` per second in one repeat made of every chunk at its fastest.
    /// Other tenants of the host only ever slow work down, in episodes
    /// that come and go within a run, so each chunk's fastest time is the
    /// steadiest reading of the program's own speed on it. A chunk is one
    /// fleet on the fleet workloads and one app's traces under every policy
    /// on `paper_compare`.
    pub fn best_rate(&self, n: usize) -> f64 {
        n as f64 / self.fastest_chunks.iter().sum::<f64>()
    }
}

/// Reports the host-time end-to-end metrics of a run that replayed
/// `sessions` sessions and `events` events per repeat, scaled to the
/// reference host by the run's [`host::slowdown`]: how fast the host was
/// drifts between runs by more than a regression bound, and the
/// calibration, made between the repeats, reads that drift.
pub fn report_host_time(
    m: &mut Metrics,
    setup: &Setup,
    repeats: &Repeats,
    sessions: usize,
    events: usize,
) {
    let slowdown = host::slowdown(&repeats.calibrations);
    m.set("setup_s", "s", setup.fastest_s() / slowdown);
    m.set(
        "sessions_per_s",
        "1/s",
        repeats.best_rate(sessions) * slowdown,
    );
    m.set("events_per_s", "1/s", repeats.best_rate(events) * slowdown);
}

/// Runs `f` until `seconds` have passed (at least [`MIN_REPEATS`] times)
/// and returns the first call's output as the run's reference. Each call
/// pushes the wall time of each of its chunks, in a fixed order, and must
/// reproduce the reference exactly: the simulated results do not depend on
/// the host. Between repeats, untimed, it makes `sides` calls of
/// `side`, each followed by host calibrations ([`host::calibration_s`]),
/// paced evenly over the run, and makes the calls still owed after the
/// last repeat; the set-up builds ride there, so that they and the
/// calibrations sample the host across the whole run rather than in one
/// burst.
pub fn repeat_for<T: PartialEq>(
    seconds: f64,
    mut f: impl FnMut(&mut Vec<f64>) -> T,
    sides: usize,
    mut side: impl FnMut(),
) -> Result<(T, Repeats), String> {
    let start = Instant::now();
    let mut r = Repeats::default();
    let mut reference = None;
    let mut sided = 0;
    while r.walls.len() < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        let mut chunks = Vec::new();
        let t = Instant::now();
        let out = std::hint::black_box(f(&mut chunks));
        r.walls.push(t.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some(out),
            Some(first) if *first == out => {}
            Some(_) => return Err(format!("repeat {} differs from the first", r.walls.len())),
        }
        if r.fastest_chunks.is_empty() {
            r.fastest_chunks = chunks;
        } else if chunks.len() == r.fastest_chunks.len() {
            for (best, c) in r.fastest_chunks.iter_mut().zip(chunks) {
                *best = best.min(c);
            }
        } else {
            return Err("repeats timed different numbers of chunks".into());
        }
        let due = (sides as f64 * start.elapsed().as_secs_f64() / seconds).floor();
        while (sided as f64) < due.min(sides as f64) {
            side();
            calibrate(&mut r.calibrations);
            sided += 1;
        }
    }
    for _ in sided..sides {
        side();
        calibrate(&mut r.calibrations);
    }
    let reference = reference.ok_or("no repeat ran")?;
    Ok((reference, r))
}

/// Calibrations made per side call of [`repeat_for`].
const CALIBRATIONS_PER_SIDE: usize = 2;

fn calibrate(into: &mut Vec<f64>) {
    for _ in 0..CALIBRATIONS_PER_SIDE {
        into.push(host::calibration_s());
    }
}

/// Wall time of `f`, in seconds, pushed onto `chunks`.
pub fn chunk<T>(chunks: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    chunks.push(t.elapsed().as_secs_f64());
    out
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    if pes_sim::parallelism() != 1 {
        return Err("the benchmark measures one worker thread: set PES_THREADS=1".into());
    }
    let outcome = match args.workload.as_str() {
        "fleet_unique" => fleet::FleetWorkload::unique(args.seed).run(args.seconds, args.trace),
        "fleet_sweep" => fleet::FleetWorkload::sweep(args.seed).run(args.seconds, args.trace),
        _ => paper::run(args.seed, args.seconds, args.trace),
    }?;
    let expected = if args.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    outcome.metrics.check_against(&expected)?;
    Ok(outcome)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let probe = host::HostProbe::start();
    match run(&args) {
        Ok(outcome) => {
            println!(
                "{} seed {} trace {}:",
                args.workload,
                args.seed,
                u8::from(args.trace)
            );
            print!("{}", outcome.metrics.table());
            println!(
                "{}",
                probe.finish_json(
                    &outcome.walls,
                    &outcome.setups,
                    &outcome.calibrations,
                    &outcome.work
                )
            );
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {}}}",
                outcome.attempted,
                outcome.metrics.json()
            );
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{}", probe.finish_json(&[], &[], &[], &[]));
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_checked() {
        assert_eq!(
            args("--workload fleet_sweep --seed 3 --seconds 10 --trace 1"),
            Ok(Args {
                workload: "fleet_sweep".into(),
                seed: 3,
                seconds: 10.0,
                trace: true,
            })
        );
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(args("--workload fleet_sweep --seed -1 --seconds 10 --trace 1").is_err());
        assert!(args("--workload fleet_sweep --seed 3 --seconds 0 --trace 1").is_err());
        assert!(args("--workload fleet_sweep --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload fleet_sweep --seed 3 --seconds 10").is_err());
    }

    #[test]
    fn repeats_must_reproduce_the_first() {
        let mut sides = 0;
        let mut k = 0.0;
        let (first, r) = repeat_for(
            0.0,
            |chunks| {
                // The second chunk is fastest in the second repeat.
                k += 1.0;
                chunks.extend([1.0, (k - 2.0f64).abs() + 1.0]);
                1
            },
            5,
            || sides += 1,
        )
        .expect("identical repeats pass");
        assert_eq!(first, 1);
        assert_eq!(r.walls.len(), MIN_REPEATS);
        assert_eq!(r.fastest_chunks, [1.0, 1.0]);
        assert_eq!(r.best_rate(10), 5.0);
        assert_eq!(sides, 5, "every side call is made");
        assert_eq!(r.calibrations.len(), 5 * CALIBRATIONS_PER_SIDE);
        let mut n = 0;
        assert!(repeat_for(
            0.0,
            |_| {
                n += 1;
                n
            },
            0,
            || {}
        )
        .is_err());
    }
}
