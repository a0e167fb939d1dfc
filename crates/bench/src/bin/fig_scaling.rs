//! Multi-device scaling figure: strong/weak scaling, the overlap ablation and
//! the sparse-operand sweep of the unified execution engine, emitted as JSON to
//! seed the benchmark trajectory.
//!
//! Four experiments, all on modelled H100 pools joined by NVLink:
//!
//! * **strong scaling** — a fixed CountSketch problem across 1/2/4/8 devices;
//! * **weak scaling** — the per-device problem held constant while devices grow;
//! * **overlap ablation** — at a fixed pool size, serial vs. pipelined vs.
//!   compute-only makespan for every sketch kind plus the Count-Gauss pipeline,
//!   isolating how much of the collectives the stream schedule hides;
//! * **sparse scaling** — CountSketch over CSR operands at several densities
//!   across the device grid, exercising the executor's zero-copy
//!   `Operand::slice_rows` sharding (the same engine, sparse operand).
//!
//! Every JSON row records the per-stage ring `CommPattern` (allreduce for the
//! row-sharded CountSketch families, allgather for the column-sharded
//! Gaussian/SRHT panels).
//!
//! The binary also *enforces* the headline property — pipelined makespan strictly
//! below serial makespan on every pool of ≥ 2 devices — and exits non-zero if any
//! run violates it, so the CI smoke run doubles as a regression gate.
//!
//! Run with: `cargo run --release -p sketch-bench --bin fig_scaling [-- --smoke] [--out PATH] [--trace PATH]`

use sketch_bench::report::{ms, pct, Table};
use sketch_bench::{cli, config::random_csr};
use sketch_core::{EmbeddingDim, JsonValue, Operand, Pipeline, SketchSpec};
use sketch_dist::{pipelined_sketch, ExecutorOptions, PipelinedRun};
use sketch_gpu_sim::DevicePool;
use sketch_la::{Layout, Matrix};
use sketch_obs::{chrome_trace_with_metrics, write_json, MetricsRegistry, TraceCollector};
use sketch_sparse::CsrMatrix;

/// One measured configuration, ready for both the text table and the JSON report.
struct Run {
    label: String,
    devices: usize,
    shards: usize,
    d: usize,
    n: usize,
    /// Stored nonzeros of the operand (`None` for dense operands).
    nnz: Option<usize>,
    run: PipelinedRun,
}

impl Run {
    fn to_json(&self) -> JsonValue {
        let r = &self.run;
        JsonValue::Object(vec![
            ("label".into(), JsonValue::Str(self.label.clone())),
            ("devices".into(), JsonValue::UInt(self.devices as u64)),
            ("shards".into(), JsonValue::UInt(self.shards as u64)),
            ("d".into(), JsonValue::UInt(self.d as u64)),
            ("n".into(), JsonValue::UInt(self.n as u64)),
            ("serial_ms".into(), JsonValue::Float(r.serial_seconds * 1e3)),
            (
                "pipelined_ms".into(),
                JsonValue::Float(r.pipelined_seconds * 1e3),
            ),
            (
                "compute_only_ms".into(),
                JsonValue::Float(r.compute_only_seconds * 1e3),
            ),
            (
                "speedup_vs_serial".into(),
                JsonValue::Float(r.speedup_vs_serial()),
            ),
            (
                "overlap_efficiency".into(),
                JsonValue::Float(r.overlap_efficiency()),
            ),
            (
                "comm_total_bytes".into(),
                JsonValue::UInt(r.comm_total_bytes()),
            ),
            (
                "per_device_utilization".into(),
                JsonValue::Array(r.utilizations().into_iter().map(JsonValue::Float).collect()),
            ),
            (
                // The ring collective of each pipeline stage, in stage order.
                "comm_patterns".into(),
                JsonValue::Array(
                    r.comm
                        .iter()
                        .map(|c| JsonValue::Str(c.pattern.as_str().into()))
                        .collect(),
                ),
            ),
            (
                "nnz".into(),
                match self.nnz {
                    Some(nnz) => JsonValue::UInt(nnz as u64),
                    None => JsonValue::Null,
                },
            ),
        ])
    }
}

fn execute(label: &str, d: usize, n: usize, devices: usize, plan: &Pipeline) -> Run {
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);
    let pool = DevicePool::h100(devices);
    let run = pipelined_sketch(&pool, &a, plan, &ExecutorOptions::default())
        .expect("scaling configurations fit the modelled device");
    Run {
        label: label.to_string(),
        devices,
        shards: run.schedules.iter().map(|s| s.num_shards()).sum(),
        d,
        n,
        nnz: None,
        run,
    }
}

fn execute_sparse(label: &str, a: &CsrMatrix, devices: usize, plan: &Pipeline) -> Run {
    let pool = DevicePool::h100(devices);
    let run = pipelined_sketch(&pool, Operand::Csr(a), plan, &ExecutorOptions::default())
        .expect("sparse scaling configurations fit the modelled device");
    Run {
        label: label.to_string(),
        devices,
        shards: run.schedules.iter().map(|s| s.num_shards()).sum(),
        d: a.nrows(),
        n: a.ncols(),
        nnz: Some(a.nnz()),
        run,
    }
}

fn push_rows(table: &mut Table, runs: &[Run]) {
    for r in runs {
        table.push_row(vec![
            r.label.clone(),
            r.devices.to_string(),
            r.shards.to_string(),
            ms(r.run.serial_seconds * 1e3),
            ms(r.run.pipelined_seconds * 1e3),
            ms(r.run.compute_only_seconds * 1e3),
            format!("{:.2}", r.run.speedup_vs_serial()),
            pct(100.0 * r.run.overlap_efficiency()),
        ]);
    }
}

fn main() {
    let args = cli::FIG_SCALING.from_env();
    let smoke = args.smoke;
    let out_path = args.out.unwrap_or_else(|| "BENCH_scaling.json".into());
    let trace_path = args.trace;

    let (d_strong, n) = if smoke { (1 << 12, 8) } else { (1 << 16, 16) };
    let d_weak_base = if smoke { 1 << 11 } else { 1 << 14 };
    let device_counts: &[usize] = &[1, 2, 4, 8];
    let ablation_devices = 4usize;

    let count_plan =
        |d: usize| Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), 7));

    // Strong scaling: fixed problem, growing pool.
    let strong: Vec<Run> = device_counts
        .iter()
        .map(|&p| execute("CountSketch", d_strong, n, p, &count_plan(d_strong)))
        .collect();

    // Weak scaling: d grows with the pool, per-device rows constant.
    let weak: Vec<Run> = device_counts
        .iter()
        .map(|&p| {
            let d = d_weak_base * p;
            execute("CountSketch", d, n, p, &count_plan(d))
        })
        .collect();

    // Overlap ablation: every kind at a fixed pool size.
    let d_ab = d_weak_base;
    let ablation_plans: Vec<(&str, Pipeline)> = vec![
        ("CountSketch", count_plan(d_ab)),
        (
            "Gaussian",
            Pipeline::single(SketchSpec::gaussian(d_ab, EmbeddingDim::Ratio(2), 3)),
        ),
        (
            "SRHT",
            Pipeline::single(SketchSpec::srht(d_ab, EmbeddingDim::Ratio(2), 4)),
        ),
        (
            "HashCountSketch",
            Pipeline::single(SketchSpec::hash_countsketch(
                d_ab,
                EmbeddingDim::Square(2),
                5,
            )),
        ),
        (
            "Count-Gauss",
            Pipeline::count_gauss(d_ab, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 6),
        ),
    ];
    let ablation: Vec<Run> = ablation_plans
        .iter()
        .map(|(label, plan)| execute(label, d_ab, n, ablation_devices, plan))
        .collect();

    // Sparse scaling: CountSketch over CSR operands at several densities,
    // sharded with the executor's zero-copy block-row views.  Labels carry the
    // *measured* density (nnz / (d*n)) of each operand.
    let d_sparse = d_weak_base;
    let densities: &[f64] = &[0.001, 0.01, 0.1];
    let sparse: Vec<Run> = densities
        .iter()
        .flat_map(|&target| {
            let a = random_csr(d_sparse, n, target, 77);
            let measured = 100.0 * a.nnz() as f64 / (d_sparse * n) as f64;
            let plan = count_plan(d_sparse);
            device_counts
                .iter()
                .map(|&p| execute_sparse(&format!("CSR CountSketch {measured:.2}%"), &a, p, &plan))
                .collect::<Vec<Run>>()
        })
        .collect();

    // Text report.
    let headers = [
        "method",
        "devices",
        "shards",
        "serial ms",
        "pipelined ms",
        "compute ms",
        "speedup",
        "overlap %",
    ];
    let mut t_strong = Table::new(
        format!("Strong scaling (d = {d_strong}, n = {n})"),
        &headers,
    );
    push_rows(&mut t_strong, &strong);
    t_strong.print();
    let mut t_weak = Table::new(
        format!("Weak scaling ({d_weak_base} rows per device, n = {n})"),
        &headers,
    );
    push_rows(&mut t_weak, &weak);
    t_weak.print();
    let mut t_ab = Table::new(
        format!("Overlap ablation (d = {d_ab}, n = {n}, {ablation_devices} devices)"),
        &headers,
    );
    push_rows(&mut t_ab, &ablation);
    t_ab.print();
    let mut t_sparse = Table::new(
        format!("Sparse CSR scaling (d = {d_sparse}, n = {n}, CountSketch)"),
        &headers,
    );
    push_rows(&mut t_sparse, &sparse);
    t_sparse.print();

    // JSON report.
    let section = |runs: &[Run]| JsonValue::Array(runs.iter().map(Run::to_json).collect());
    let doc = JsonValue::Object(vec![
        ("experiment".into(), JsonValue::Str("fig_scaling".into())),
        ("smoke".into(), JsonValue::Bool(smoke)),
        ("device".into(), JsonValue::Str("H100 (modelled)".into())),
        (
            "interconnect".into(),
            JsonValue::Str("NVLink 4 (modelled)".into()),
        ),
        ("strong_scaling".into(), section(&strong)),
        ("weak_scaling".into(), section(&weak)),
        ("overlap_ablation".into(), section(&ablation)),
        ("sparse_scaling".into(), section(&sparse)),
    ]);
    std::fs::write(&out_path, doc.render()).expect("write scaling JSON");
    println!("wrote {out_path}");

    // Perfetto-compatible trace of one representative execution: the strong
    // scaling problem on a 4-device pool, recorded end to end.  A single traced
    // run keeps every track's sim timestamps monotone (each pool starts its
    // modelled clocks at zero), and the modelled half of the trace is fully
    // deterministic — same bytes on every host and thread count.
    if let Some(path) = &trace_path {
        let trace_devices = 4usize;
        let collector = TraceCollector::shared();
        let a = Matrix::random_gaussian(d_strong, n, Layout::RowMajor, 42, 0);
        let pool = DevicePool::h100(trace_devices);
        pool.attach_recorder(collector.clone());
        let run = pipelined_sketch(
            &pool,
            &a,
            &count_plan(d_strong),
            &ExecutorOptions::default(),
        )
        .expect("traced run fits the modelled device");
        let metrics = MetricsRegistry::new();
        run.record_metrics(&metrics, &pool);
        let trace_doc = chrome_trace_with_metrics(&collector.snapshot(), Some(&metrics));
        write_json(std::path::Path::new(path), &trace_doc).expect("write trace JSON");
        println!(
            "wrote {path} ({} events, {trace_devices} devices)",
            collector.len()
        );
    }

    // Gate: on >= 2 devices the pipelined makespan must beat the serial one.
    let mut violations = 0usize;
    for r in strong
        .iter()
        .chain(weak.iter())
        .chain(ablation.iter())
        .chain(sparse.iter())
    {
        if r.devices >= 2 && r.run.pipelined_seconds >= r.run.serial_seconds {
            eprintln!(
                "VIOLATION: {} on {} devices: pipelined {:.6} ms >= serial {:.6} ms",
                r.label,
                r.devices,
                r.run.pipelined_seconds * 1e3,
                r.run.serial_seconds * 1e3
            );
            violations += 1;
        }
    }
    if violations > 0 {
        eprintln!("{violations} configuration(s) failed the overlap gate");
        std::process::exit(1);
    }
    println!("overlap gate passed: pipelined < serial on every pool of >= 2 devices");
}
