//! The repository's benchmark: one seeded workload per process, a timed pass
//! in a closed loop (one client, the next op starts when the last returns),
//! and with `--trace 1` a traced pass that times each layer's public calls
//! from outside.  See README.md in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod host;
mod inputs;
mod lsq;
mod range;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use report::{Outcome, END_TO_END, PER_LAYER};
use sketch_obs::{JsonValue, Recorder, Stopwatch, TraceCollector};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use workload::{Traced, Workload};

/// The workloads; README.md says why each exists.
const WORKLOADS: [&str; 3] = ["lsq_solve", "rangefinder_csr", "serve_mixed"];

/// Set-up (inputs, pool, warm-up op) runs this many times; `setup_s` is the median.
const SETUPS: usize = 9;
/// Ops of the traced pass.
const TRACED_OPS: usize = 3;
/// The timed pass never stops before the tail statistic exists.
const MIN_SAMPLES: usize = stats::TAIL_BEYOND + 1;
/// ...and never runs past this multiple of `--seconds`.
const MAX_OVERRUN: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "lsq_solve" => Box::new(lsq::setup(seed)?),
        "rangefinder_csr" => Box::new(range::setup(seed)?),
        _ => Box::new(serve::setup(seed)?),
    })
}

fn line(key: &str, value: JsonValue) {
    println!("{}", JsonValue::Object(vec![(key.into(), value)]).render());
}

fn floats(values: &[f64]) -> JsonValue {
    JsonValue::Array(values.iter().map(|&v| JsonValue::Float(v)).collect())
}

fn run() -> Result<String, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    // A serve batch is hundreds of tiny parallel regions.  On a shared
    // two-vCPU host, waking the second worker for each made the batch time
    // follow the host's scheduler (run-to-run spread 23% on two threads, 14%
    // on one), so this workload runs on a pool of one.
    if args.workload == "serve_mixed" {
        rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build_global()
            .map_err(|e| format!("cannot size the thread pool: {e:?}"))?;
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let sw = Stopwatch::start();
        kept = Some(setup(&args.workload, args.seed)?);
        setup_s.push(sw.elapsed_seconds());
    }
    let mut w = kept.expect("at least one set-up");
    line("host", host::header(&args.workload, w.operand_bytes()));

    // The warm-up op of the kept set-up is the reference; its checks count
    // as one attempted op.
    let mut attempted = 1u64;
    let mut failed = 0u64;
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    match w.verify() {
        Ok(extra) => values.extend(extra),
        Err(e) => {
            eprintln!("perfbench: reference check failed: {e}");
            failed += 1;
        }
    }

    let cpu_before = host::cpu_seconds()?;
    let pool_before = rayon::pool_stats();
    let sw = Stopwatch::start();
    let mut samples = Vec::new();
    while (sw.elapsed_seconds() < args.seconds || samples.len() < MIN_SAMPLES)
        && sw.elapsed_seconds() < MAX_OVERRUN * args.seconds
    {
        let (wall_ms, ok) = w.op();
        samples.push(wall_ms);
        attempted += 1;
        failed += u64::from(!ok);
    }
    let timed_wall = sw.elapsed_seconds();
    let cpu = host::cpu_seconds()? - cpu_before;
    let pool_after = rayon::pool_stats();

    let p50 = stats::median(&samples);
    let tail = stats::tail(&samples).ok_or("too few timed ops for the tail statistic")?;
    values.insert("op_ms.p50".into(), p50);
    values.insert("op_ms.tail".into(), tail.value);
    values.insert("setup_s".into(), stats::median(&setup_s));
    values.insert("modelled_ms".into(), w.modelled_ms());
    let mut timed = vec![
        ("samples".into(), JsonValue::UInt(tail.samples as u64)),
        ("tail_percentile".into(), JsonValue::Float(tail.percentile)),
        ("op_ms".into(), floats(&samples)),
        ("setup_s".into(), floats(&setup_s)),
    ];
    // The calls an op is made of, each with its own median and tail.
    for (name, part) in w.parts() {
        let part_tail = stats::tail(part).ok_or("too few timed ops for the tail statistic")?;
        timed.push((format!("{name}.p50"), JsonValue::Float(stats::median(part))));
        timed.push((format!("{name}.tail"), JsonValue::Float(part_tail.value)));
        timed.push((name, floats(part)));
    }
    line("timed", JsonValue::Object(timed));

    let names: &[(&str, &str)] = if args.trace {
        let ops = samples.len() as f64;
        let tasks = (pool_after.tasks - pool_before.tasks) as f64;
        values.insert("host.cpu_per_wall".into(), cpu / timed_wall);
        values.insert("rayon.tasks".into(), tasks / ops);
        values.insert(
            "rayon.inline_ratio".into(),
            if tasks > 0.0 {
                (pool_after.inline_tasks - pool_before.inline_tasks) as f64 / tasks
            } else {
                0.0
            },
        );
        let cost = w.op_cost();
        values.insert("sim.launches".into(), cost.launches as f64);
        values.insert("sim.bytes".into(), cost.total_bytes() as f64);
        values.insert("sim.flops".into(), cost.flops as f64);
        values.insert("sim.model_ratio".into(), p50 / w.modelled_ms());

        let collector = TraceCollector::shared();
        w.pool()
            .attach_recorder(collector.clone() as Arc<dyn Recorder>);
        let mut traced: Vec<Traced> = Vec::new();
        let mut events = Vec::new();
        for _ in 0..TRACED_OPS {
            attempted += 1;
            let before = collector.len();
            match w.traced_op() {
                Ok(t) => {
                    failed += u64::from(!t.bits_equal);
                    traced.push(t);
                }
                Err(e) => {
                    eprintln!("perfbench: traced op failed: {e}");
                    failed += 1;
                }
            }
            events.push((collector.len() - before) as f64);
        }
        w.pool().detach_recorder();
        if traced.is_empty() {
            return Err("no traced op succeeded".into());
        }
        traced.sort_by(|a, b| a.root.wall_ms.total_cmp(&b.root.wall_ms));
        let typical = &traced[traced.len() / 2];
        let mut layer_names: Vec<&String> = traced.iter().flat_map(|t| t.layers.keys()).collect();
        layer_names.sort();
        layer_names.dedup();
        let layers: BTreeMap<String, f64> = layer_names
            .into_iter()
            .map(|name| {
                let v: Vec<f64> = traced
                    .iter()
                    .map(|t| t.layers.get(name).copied().unwrap_or(0.0))
                    .collect();
                (name.clone(), stats::median(&v))
            })
            .collect();
        let flags = typical.root.flagged();
        line("trace", typical.root.to_json());
        line(
            "layers",
            JsonValue::Object(
                layers
                    .iter()
                    .map(|(k, &v)| (k.clone(), JsonValue::Float(v)))
                    .collect(),
            ),
        );
        line(
            "unattributed_over_10pct",
            JsonValue::Array(flags.iter().cloned().map(JsonValue::Str).collect()),
        );
        let op_ms: Vec<f64> = traced.iter().map(|t| t.root.wall_ms).collect();
        let unattributed: Vec<f64> = traced.iter().map(|t| t.root.unattributed_ms()).collect();
        values.insert("trace.op_ms".into(), stats::median(&op_ms));
        values.insert("trace.unattributed_ms".into(), stats::median(&unattributed));
        values.insert("trace.unattributed_flags".into(), flags.len() as f64);
        values.insert("obs.trace_overhead".into(), stats::median(&op_ms) / p50);
        values.insert("obs.events".into(), stats::median(&events));
        for (name, v) in layers {
            values.entry(name).or_insert(v);
        }
        // Layers this workload never calls: no work, so zero counts and rates.
        for (name, _) in PER_LAYER {
            values.entry(name.into()).or_insert(0.0);
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };
    values.insert("peak_rss_mb".into(), host::peak_rss_mb()?);
    let outcome = Outcome::new(attempted, failed, names, &values)?;
    Ok(outcome.to_json().render())
}

fn main() -> ExitCode {
    match run() {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
