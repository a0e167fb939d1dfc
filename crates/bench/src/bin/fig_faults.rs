//! Fault-injection figure: device death under the pipelined executor, swept
//! over fault time × pool size.
//!
//! For each cell a fixed Count-Gauss pipeline runs twice on modelled H100
//! pools: once fault-free, once with the highest-ordinal device dying at a
//! fraction of the fault-free makespan.  The executor reschedules the dying
//! device's stage over the survivors and regenerates the affected shards from
//! their Philox seeds, so the recovered result must be **bit-for-bit
//! identical** to the fault-free run — the binary exits non-zero if a single
//! bit drifts, and also gates that the recovered makespan stays bounded
//! (below 2x the fault-free serialized cost), so the CI smoke run doubles as
//! a chaos regression gate.
//!
//! Run with: `cargo run --release -p sketch-bench --bin fig_faults [-- --smoke] [--out PATH] [--trace PATH]`

use sketch_bench::cli;
use sketch_bench::report::{ms, Table};
use sketch_core::{EmbeddingDim, JsonValue, Operand, Pipeline};
use sketch_dist::{pipelined_sketch, ExecutorOptions, PipelinedRun};
use sketch_gpu_sim::{DevicePool, FaultPlan, FaultSpec};
use sketch_la::{Layout, Matrix};
use sketch_obs::{chrome_trace_with_metrics, write_json, MetricsRegistry, TraceCollector};

/// One swept configuration: the fault-free reference and the recovered run.
struct Cell {
    devices: usize,
    fault_frac: f64,
    fault_at_s: f64,
    clean: PipelinedRun,
    faulted: PipelinedRun,
    bits_identical: bool,
}

impl Cell {
    fn to_json(&self) -> JsonValue {
        let fault = &self.faulted.fault;
        JsonValue::Object(vec![
            ("devices".into(), JsonValue::UInt(self.devices as u64)),
            ("fault_frac".into(), JsonValue::Float(self.fault_frac)),
            (
                "fault_at_ms".into(),
                JsonValue::Float(self.fault_at_s * 1e3),
            ),
            (
                "clean_makespan_ms".into(),
                JsonValue::Float(self.clean.pipelined_seconds * 1e3),
            ),
            (
                "recovered_makespan_ms".into(),
                JsonValue::Float(self.faulted.pipelined_seconds * 1e3),
            ),
            (
                "clean_serial_ms".into(),
                JsonValue::Float(self.clean.serial_seconds * 1e3),
            ),
            (
                "recovery_overhead_ms".into(),
                JsonValue::Float(fault.recovery_overhead_seconds * 1e3),
            ),
            ("lost_ms".into(), JsonValue::Float(fault.lost_seconds * 1e3)),
            (
                "failures".into(),
                JsonValue::UInt(fault.failures.len() as u64),
            ),
            (
                "shards_recomputed".into(),
                JsonValue::UInt(fault.shards_recomputed as u64),
            ),
            ("survivors".into(), JsonValue::UInt(fault.survivors as u64)),
            (
                "bits_identical".into(),
                JsonValue::Bool(self.bits_identical),
            ),
        ])
    }
}

fn bits_equal(a: &Matrix, b: &Matrix) -> bool {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return false;
    }
    for i in 0..a.nrows() {
        for j in 0..a.ncols() {
            if a.get(i, j).to_bits() != b.get(i, j).to_bits() {
                return false;
            }
        }
    }
    true
}

fn run_cell(
    a: &Matrix,
    plan: &Pipeline,
    devices: usize,
    fault_frac: f64,
    trace: Option<&std::sync::Arc<TraceCollector>>,
) -> (Cell, Option<MetricsRegistry>) {
    let opts = ExecutorOptions::default();
    let clean_pool = DevicePool::h100(devices);
    let clean = pipelined_sketch(&clean_pool, Operand::Dense(a), plan, &opts)
        .expect("fault-free run fits the modelled pool");
    let fault_at_s = fault_frac * clean.pipelined_seconds;

    let pool = DevicePool::h100(devices);
    if let Some(collector) = trace {
        pool.attach_recorder(collector.clone());
    }
    pool.apply_fault_plan(&FaultPlan::healthy().with_fault(
        devices - 1,
        FaultSpec::Dies {
            after_sim_seconds: fault_at_s,
        },
    ));
    let faulted = pipelined_sketch(&pool, Operand::Dense(a), plan, &opts)
        .expect("recovery absorbs the death");
    let metrics = trace.map(|_| {
        let m = MetricsRegistry::new();
        faulted.record_metrics(&m, &pool);
        m
    });
    let bits_identical = bits_equal(&faulted.result, &clean.result);
    (
        Cell {
            devices,
            fault_frac,
            fault_at_s,
            clean,
            faulted,
            bits_identical,
        },
        metrics,
    )
}

fn main() {
    let args = cli::FIG_FAULTS.from_env();
    let smoke = args.smoke;
    let out_path = args.out.unwrap_or_else(|| "BENCH_faults.json".into());
    let trace_path = args.trace;

    let d = if smoke { 1 << 12 } else { 1 << 15 };
    let n = 8usize;
    let device_counts: &[usize] = &[2, 4, 7];
    let fault_fracs: &[f64] = &[0.25, 0.5, 0.75];
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 20_260_808, 0);
    let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 9);

    let mut cells: Vec<Cell> = Vec::new();
    for &devices in device_counts {
        for &frac in fault_fracs {
            let (cell, _) = run_cell(&a, &plan, devices, frac, None);
            cells.push(cell);
        }
    }

    // Text report.
    let mut table = Table::new(
        format!("Device death & bit-exact recovery (d = {d}, Count-Gauss)"),
        &[
            "devices",
            "fault at",
            "clean ms",
            "recovered ms",
            "overhead ms",
            "shards redone",
            "bits",
        ],
    );
    for c in &cells {
        table.push_row(vec![
            c.devices.to_string(),
            format!("{:.0}% M", c.fault_frac * 100.0),
            ms(c.clean.pipelined_seconds * 1e3),
            ms(c.faulted.pipelined_seconds * 1e3),
            ms(c.faulted.fault.recovery_overhead_seconds * 1e3),
            c.faulted.fault.shards_recomputed.to_string(),
            if c.bits_identical { "=" } else { "DRIFT" }.to_string(),
        ]);
    }
    table.print();

    // JSON report.
    let doc = JsonValue::Object(vec![
        ("experiment".into(), JsonValue::Str("fig_faults".into())),
        ("smoke".into(), JsonValue::Bool(smoke)),
        ("device".into(), JsonValue::Str("H100 (modelled)".into())),
        (
            "interconnect".into(),
            JsonValue::Str("NVLink 4 (modelled)".into()),
        ),
        ("d".into(), JsonValue::UInt(d as u64)),
        ("n".into(), JsonValue::UInt(n as u64)),
        (
            "cells".into(),
            JsonValue::Array(cells.iter().map(Cell::to_json).collect()),
        ),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write faults JSON");
    println!("wrote {out_path}");

    // Perfetto-compatible trace of one representative cell: the largest pool
    // with a mid-run death, re-run with the pool recorder attached so the
    // dedicated fault track (death point + recovery span) rides beside the
    // ordinary compute/comm streams, and the `fault.*` counters ride under
    // `sketchMetrics`.
    if let Some(path) = &trace_path {
        let collector = TraceCollector::shared();
        let (cell, metrics) = run_cell(
            &a,
            &plan,
            *device_counts.last().expect("sweep is non-empty"),
            0.5,
            Some(&collector),
        );
        let events = collector.snapshot();
        let trace_doc = chrome_trace_with_metrics(&events, metrics.as_ref());
        write_json(std::path::Path::new(path), &trace_doc).expect("write trace JSON");
        println!(
            "wrote {path} ({} events, {} failure(s))",
            events.len(),
            cell.faulted.fault.failures.len()
        );
    }

    // Gates: every injected death must be observed, recovered bit-exactly,
    // and stay within the overhead bound (recovered makespan below twice the
    // fault-free serialized cost).
    let mut violations = 0usize;
    for c in &cells {
        if !c.bits_identical {
            eprintln!(
                "VIOLATION: {} devices, death at {:.0}% M: recovered bits drifted",
                c.devices,
                c.fault_frac * 100.0
            );
            violations += 1;
        }
        if c.faulted.fault.failures.is_empty() {
            eprintln!(
                "VIOLATION: {} devices, death at {:.0}% M: fault never fired",
                c.devices,
                c.fault_frac * 100.0
            );
            violations += 1;
        }
        if c.faulted.pipelined_seconds >= 2.0 * c.clean.serial_seconds {
            eprintln!(
                "VIOLATION: {} devices, death at {:.0}% M: recovered {:.6} ms >= 2x serial {:.6} ms",
                c.devices,
                c.fault_frac * 100.0,
                c.faulted.pipelined_seconds * 1e3,
                c.clean.serial_seconds * 1e3
            );
            violations += 1;
        }
    }
    if violations > 0 {
        eprintln!("{violations} configuration(s) failed the fault-recovery gate");
        std::process::exit(1);
    }
    println!(
        "fault-recovery gate passed: every death recovered bit-exactly within the overhead bound"
    );
}
