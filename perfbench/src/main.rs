//! End-to-end benchmark of the FLEX query service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uber-cold --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Drives `QueryService` over the synthetic Uber dataset with one of three
//! workloads, checks every answer, and prints one JSON object as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer breakdown with `--trace 1`. See `perfbench/README.md`.

mod bench;
mod checks;
mod oracle;
mod queries;
mod sql;
mod stats;
mod trace;

use bench::{Kind, Run, SetupTimes, COLD_MIN_ROUNDS};
use checks::Checker;
use oracle::Oracle;
use queries::cold_stream;
use std::process::ExitCode;
use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload uber-cold|dashboard-hot|adhoc-durable \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut run = Run::new(args.kind, args.seed);
    if let Err(e) = run.prepare() {
        eprintln!("perfbench: preparing the run failed: {e}");
        return ExitCode::from(1);
    }
    let outcome = if args.trace {
        trace::traced_run(&run, Duration::from_secs(args.seconds))
    } else {
        untraced_run(&run, Duration::from_secs(args.seconds))
    };
    let _ = std::fs::remove_dir_all(&run.state_dir);
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN: a metric that could not be measured
                // fails the run instead of printing an invalid number.
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                )
            })
            .collect();
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && finite,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn untraced_run(run: &Run, budget: Duration) -> Outcome {
    let params = run.params();
    let mut checker = Checker::new(params.epsilon);
    let mut times = SetupTimes::default();
    let ready = run.setup(&mut times, &mut checker);
    let oracle = Oracle::new(&ready.db);
    let names = bench::names(&ready.db);
    let cold = if run.kind == Kind::UberCold {
        cold_stream(run.seed, cold_rounds(budget), &names)
    } else {
        Vec::new()
    };
    let mut phase = run.timed(&ready, &oracle, budget, &cold, COLD_MIN_ROUNDS, false);
    run.check(ready, &mut phase, &cold, &oracle);
    phase.checker.absorb(checker);
    let (correct, rel_error) = phase.checker.finish();
    let metrics = bench::end_to_end(&times, &phase, rel_error);
    for m in &metrics {
        eprintln!("{:>20} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Outcome {
        correct,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
    }
}

/// Rounds of the cold stream to generate: more than the run can use.
pub fn cold_rounds(budget: Duration) -> usize {
    COLD_MIN_ROUNDS + 2 + budget.as_secs() as usize
}
