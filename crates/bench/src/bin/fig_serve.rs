//! Multi-tenant serving figure: co-scheduling vs. FIFO-one-at-a-time on the
//! shared device pool.
//!
//! Sweeps tenant counts × pool sizes over a fixed mixed workload (CountSketch,
//! Gaussian, Count-Gauss; dense and CSR operands; every job a single-device
//! "shard class").  For each cell the same fair-queue drain order is executed
//! twice:
//!
//! * **co-scheduled** — the [`Scheduler`] packs jobs onto disjoint device
//!   subsets via `DevicePool::subpool`, so independent jobs run concurrently
//!   on the modelled cluster clock;
//! * **FIFO** — every job is widened to the whole pool and run back to back,
//!   the "one job owns the cluster" baseline.
//!
//! The binary *enforces* the headline property — on every pool of ≥ 2 devices
//! with ≥ 4 independent jobs the co-scheduled makespan is strictly below the
//! FIFO makespan — and exits non-zero on any violation, so the CI smoke run
//! doubles as a regression gate.
//!
//! Run with: `cargo run --release -p sketch-bench --bin fig_serve [-- --smoke] [--out PATH] [--trace PATH]`

use sketch_bench::cli;
use sketch_bench::report::{ms, Table};
use sketch_core::{EmbeddingDim, JsonValue, Pipeline, SketchSpec};
use sketch_gpu_sim::DevicePool;
use sketch_obs::{chrome_trace_with_metrics, write_json, MetricsRegistry};
use sketch_serve::{JobQueue, JobSpec, OperandSpec, Scheduler, ServiceRun};

/// One swept configuration: the same drained job list, scheduled both ways.
struct Cell {
    tenants: usize,
    jobs: usize,
    devices: usize,
    cosched: ServiceRun,
    fifo: ServiceRun,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.fifo.makespan() / self.cosched.makespan()
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("tenants".into(), JsonValue::UInt(self.tenants as u64)),
            ("jobs".into(), JsonValue::UInt(self.jobs as u64)),
            ("devices".into(), JsonValue::UInt(self.devices as u64)),
            (
                "cosched_makespan_ms".into(),
                JsonValue::Float(self.cosched.makespan() * 1e3),
            ),
            (
                "fifo_makespan_ms".into(),
                JsonValue::Float(self.fifo.makespan() * 1e3),
            ),
            ("speedup_vs_fifo".into(), JsonValue::Float(self.speedup())),
            (
                "cosched_utilization".into(),
                JsonValue::Array(
                    self.cosched
                        .utilizations()
                        .into_iter()
                        .map(JsonValue::Float)
                        .collect(),
                ),
            ),
        ])
    }
}

/// The fixed mixed workload: `jobs_per_tenant` single-device jobs for each of
/// `tenants` tenants, cycling through sketch kinds and operand layouts.
/// Deterministic: seeds derive from the job index alone.
fn workload(tenants: usize, jobs_per_tenant: usize, d: usize) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(tenants * jobs_per_tenant);
    for t in 0..tenants {
        for j in 0..jobs_per_tenant {
            let idx = (t * jobs_per_tenant + j) as u64;
            let seed = 1000 + idx;
            let plan = match idx % 3 {
                0 => Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), seed)),
                1 => Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), seed)),
                _ => {
                    Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), seed)
                }
            };
            let operand = if idx.is_multiple_of(2) {
                OperandSpec::Dense {
                    rows: d,
                    cols: 8,
                    seed,
                }
            } else {
                OperandSpec::Csr {
                    rows: d,
                    cols: 8,
                    nnz_target: d / 2,
                    seed,
                }
            };
            jobs.push(JobSpec::new(format!("tenant-{t}"), plan, operand));
        }
    }
    jobs
}

fn main() {
    let args = cli::FIG_SERVE.from_env();
    let smoke = args.smoke;
    let out_path = args.out.unwrap_or_else(|| "BENCH_serve.json".into());
    let trace_path = args.trace;

    let d = if smoke { 1 << 12 } else { 1 << 15 };
    let tenant_counts: &[usize] = &[2, 4];
    let device_counts: &[usize] = &[1, 2, 4];
    let jobs_per_tenant = 2usize;

    let scheduler = Scheduler::new();
    let mut cells: Vec<Cell> = Vec::new();
    for &tenants in tenant_counts {
        for &devices in device_counts {
            // Drain through the fair queue so both schedules see the same
            // deterministic job order.
            let mut queue = JobQueue::new(tenants * jobs_per_tenant);
            for job in workload(tenants, jobs_per_tenant, d) {
                queue.push(job).expect("workload fits the queue bound");
            }
            let drained = queue.drain();
            let pool = DevicePool::h100(devices);
            let cosched = scheduler
                .run(&pool, &drained)
                .expect("co-scheduled run fits the modelled pool");
            let fifo = scheduler
                .run_fifo(&pool, &drained)
                .expect("FIFO run fits the modelled pool");
            cells.push(Cell {
                tenants,
                jobs: drained.len(),
                devices,
                cosched,
                fifo,
            });
        }
    }

    // Text report.
    let mut table = Table::new(
        format!("Co-scheduling vs FIFO (d = {d}, {jobs_per_tenant} jobs/tenant)"),
        &[
            "tenants",
            "jobs",
            "devices",
            "cosched ms",
            "fifo ms",
            "speedup",
        ],
    );
    for c in &cells {
        table.push_row(vec![
            c.tenants.to_string(),
            c.jobs.to_string(),
            c.devices.to_string(),
            ms(c.cosched.makespan() * 1e3),
            ms(c.fifo.makespan() * 1e3),
            format!("{:.2}", c.speedup()),
        ]);
    }
    table.print();

    // JSON report.
    let doc = JsonValue::Object(vec![
        ("experiment".into(), JsonValue::Str("fig_serve".into())),
        ("smoke".into(), JsonValue::Bool(smoke)),
        ("device".into(), JsonValue::Str("H100 (modelled)".into())),
        (
            "interconnect".into(),
            JsonValue::Str("NVLink 4 (modelled)".into()),
        ),
        ("d".into(), JsonValue::UInt(d as u64)),
        (
            "jobs_per_tenant".into(),
            JsonValue::UInt(jobs_per_tenant as u64),
        ),
        (
            "cells".into(),
            JsonValue::Array(cells.iter().map(Cell::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write serve JSON");
    println!("wrote {out_path}");

    // Perfetto-compatible trace of one representative cell: the largest sweep
    // point, re-scheduled and exported through the service timeline (per-job
    // clocks shifted onto the merged cluster clock, so every track stays
    // monotone).
    if let Some(path) = &trace_path {
        let cell = cells
            .iter()
            .max_by_key(|c| (c.devices, c.tenants))
            .expect("sweep is non-empty");
        let events = cell.cosched.to_trace_events();
        let metrics = MetricsRegistry::new();
        metrics.add("serve.trace_jobs", cell.jobs as u64);
        let trace_doc = chrome_trace_with_metrics(&events, Some(&metrics));
        write_json(std::path::Path::new(path), &trace_doc).expect("write trace JSON");
        println!(
            "wrote {path} ({} events, {} devices)",
            events.len(),
            cell.devices
        );
    }

    // Gate: with >= 2 devices and >= 4 independent jobs, co-scheduling must
    // strictly beat running the jobs one at a time across the whole pool.
    let mut violations = 0usize;
    for c in &cells {
        if c.devices >= 2 && c.jobs >= 4 && c.cosched.makespan() >= c.fifo.makespan() {
            eprintln!(
                "VIOLATION: {} jobs on {} devices: co-scheduled {:.6} ms >= FIFO {:.6} ms",
                c.jobs,
                c.devices,
                c.cosched.makespan() * 1e3,
                c.fifo.makespan() * 1e3
            );
            violations += 1;
        }
    }
    if violations > 0 {
        eprintln!("{violations} configuration(s) failed the co-scheduling gate");
        std::process::exit(1);
    }
    println!("co-scheduling gate passed: cosched < FIFO on every pool of >= 2 devices");
}
