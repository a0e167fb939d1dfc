//! The paper's evaluation, one subcommand per table or figure:
//!
//! | subcommand | regenerates |
//! |---|---|
//! | `table1` | Table 1: embedding dimensions, arithmetic, read/writes and distortion, plus a measured-counter check |
//! | `fig2` | Figure 2: sketch generation + apply time against the Gram matrix |
//! | `fig3` | Figure 3: percent of peak memory throughput |
//! | `fig4` | Figure 4: percent of peak FLOP/s |
//! | `fig5` | Figure 5: the per-phase runtime breakdown of each least squares solver |
//! | `fig6` | Figure 6: relative residuals on the easy (low noise) problem |
//! | `fig7` | Figure 7: relative residuals on the hard (high noise) problem |
//! | `fig8` | Figure 8: residual against the condition number of `A` (`b = A·e`) |
//! | `sec7` | Section 7: per-device compute and communication of the three sketches on the executor |
//! | `ablations` | design-choice ablations: atomic vs gather CountSketch, operand layout, the multisketch layout (Section 6.1), radix-4 vs radix-2 FWHT, SyRK vs GeMM |
//!
//! With no subcommand every one runs, in the order above.  Two carry gates, and the
//! binary exits 1 if either fails:
//!
//! * `sec7`: on every pool the CountSketch result is bit-equal to the single-device
//!   apply, and its allreduce moves exactly `2 (p-1) · k·n` words;
//! * `ablations`: the Count→Gauss pipeline, whose Gaussian GEMM reads the row-major
//!   CountSketch output in place, is bit-equal to the naive convert-then-GEMM sequence
//!   and models strictly faster than it.
//!
//! `--smoke` runs both gates on smaller problems (`sec7`: d = 2^10, n = 8, p ∈ {2, 4};
//! `ablations`: d = 2^12, n = 8); the other subcommands have one size.  `--trace PATH`
//! records one representative `fig5` solve (the largest measured point, multisketch
//! method) end to end and writes a Perfetto-loadable Chrome trace: profiler phases,
//! kernel spans and the executor's stream schedule, with the metrics summary attached.
//!
//! Run with: `cargo run --release -p sketch-bench --bin paper [-- SUBCOMMAND] [--smoke] [--trace PATH]`

use sketch_bench::analytic::SketchMethod;
use sketch_bench::cli;
use sketch_bench::lsq_experiments::{
    lsq_breakdown_measured_rows, lsq_breakdown_paper_rows, residual_rows, stability_rows,
};
use sketch_bench::report::{ms, pct, sci, Table};
use sketch_bench::sketch_experiments::sketch_timing_rows;
use sketch_bench::ExperimentScale;
use sketch_core::fwht::{fwht_in_place, fwht_radix2_in_place};
use sketch_core::{EmbeddingDim, Pipeline, SketchOperator, SketchSpec};
use sketch_dist::{pipelined_sketch, CommCost, ExecutorOptions};
use sketch_gpu_sim::{Device, DevicePool};
use sketch_la::blas3::{gram_gemm, syrk_gram};
use sketch_la::{Layout, Matrix};
use sketch_lsq::{solve, LsqProblem, Method};
use sketch_obs::{
    chrome_trace_with_metrics, write_json, MetricsRegistry, Stopwatch, TraceCollector,
};

/// `2^k` label of a power-of-two dimension.
fn pow2(d: usize) -> String {
    format!("2^{}", d.trailing_zeros())
}

fn table1() {
    let (d, n, eps) = (1usize << 21, 128usize, 0.5f64);
    let mut symbolic = Table::new(
        format!("Table 1 (symbolic, evaluated at d = 2^21, n = {n}, eps = {eps})"),
        &[
            "Sketch",
            "Embed dim",
            "Arithmetic",
            "Read/Writes",
            "Max distortion",
        ],
    );
    for method in SketchMethod::TABLE1 {
        symbolic.push_row(vec![
            method.label().to_string(),
            sci(method.asymptotic_embedding_dim(n, eps)),
            sci(method.arithmetic(d, n)),
            sci(method.read_writes(d, n)),
            format!("{:.2}", method.max_distortion(eps)),
        ]);
    }
    symbolic.print();

    let mut measured = Table::new(
        "Measured kernel counters (d = 2^16, n = 64, experimental embedding dims)",
        &["Method", "flops", "bytes read", "bytes written"],
    );
    let (dm, nm) = (1usize << 16, 64usize);
    for method in SketchMethod::ALL {
        let cost = method.costs(dm, nm).apply;
        measured.push_row(vec![
            method.label().to_string(),
            sci(cost.flops as f64),
            sci(cost.bytes_read as f64),
            sci(cost.bytes_written as f64),
        ]);
    }
    measured.print();
}

fn fig2() {
    for (scale, title) in [
        (
            ExperimentScale::PaperModel,
            "Figure 2 — paper scale (modelled H100 time)",
        ),
        (
            ExperimentScale::Measured,
            "Figure 2 — measured at reduced sizes (modelled H100 time + host wall clock)",
        ),
    ] {
        let mut table = Table::new(
            title,
            &[
                "d", "n", "method", "gen ms", "apply ms", "total ms", "wall ms", "note",
            ],
        );
        for r in sketch_timing_rows(scale, 42) {
            table.push_row(vec![
                pow2(r.point.d),
                r.point.n.to_string(),
                r.method.label().to_string(),
                ms(r.gen_model_ms),
                ms(r.apply_model_ms),
                ms(r.total_model_ms()),
                ms(r.wall_ms),
                if r.out_of_memory {
                    "OOM (blank bar)".into()
                } else {
                    String::new()
                },
            ]);
        }
        table.print();
    }
}

/// Figures 3 (`flops = false`: memory throughput) and 4 (`flops = true`: FLOP/s):
/// percent of the H100's peak per sketch method at paper scale.
fn peak_fractions(flops: bool) {
    let (title, column) = if flops {
        (
            "Figure 4 — percent of peak FP64 FLOP/s (paper scale, H100 model)",
            "% peak FLOP/s",
        )
    } else {
        (
            "Figure 3 — percent of peak memory throughput (paper scale, H100 model)",
            "% peak bandwidth",
        )
    };
    let mut table = Table::new(title, &["d", "n", "method", column]);
    for r in sketch_timing_rows(ExperimentScale::PaperModel, 42) {
        table.push_row(vec![
            pow2(r.point.d),
            r.point.n.to_string(),
            r.method.label().to_string(),
            if r.out_of_memory {
                "OOM".into()
            } else if flops {
                pct(r.pct_peak_flops)
            } else {
                pct(r.pct_peak_bandwidth)
            },
        ]);
    }
    table.print();
}

fn fig5(trace_path: Option<&str>) {
    let mut paper = Table::new(
        "Figure 5 — paper scale (modelled H100 ms per phase)",
        &["d", "n", "method", "total ms", "phases"],
    );
    for r in lsq_breakdown_paper_rows() {
        let phases = r
            .phase_ms
            .iter()
            .map(|(p, t)| format!("{}={:.3}", p.label(), t))
            .collect::<Vec<_>>()
            .join(", ");
        paper.push_row(vec![
            pow2(r.point.d),
            r.point.n.to_string(),
            r.method.to_string(),
            if r.out_of_memory {
                "OOM".into()
            } else {
                ms(r.total_model_ms)
            },
            if r.out_of_memory {
                "blank bar".into()
            } else {
                phases
            },
        ]);
    }
    paper.print();

    let mut measured = Table::new(
        "Figure 5 — measured at reduced sizes (modelled ms; wall clock alongside)",
        &["d", "n", "method", "total model ms", "wall ms"],
    );
    for r in lsq_breakdown_measured_rows(42) {
        measured.push_row(vec![
            pow2(r.point.d),
            r.point.n.to_string(),
            r.method.to_string(),
            ms(r.total_model_ms),
            ms(r.wall_ms),
        ]);
    }
    measured.print();

    // One traced solve: a single pool and a single profiler keep every trace
    // track's modelled timestamps monotone, and the modelled half of the trace
    // is deterministic (same bytes on every host and thread count).
    if let Some(path) = trace_path {
        let point = *ExperimentScale::Measured
            .sweep()
            .last()
            .expect("the measured sweep is never empty");
        let collector = TraceCollector::shared();
        let pool = DevicePool::h100(1);
        pool.attach_recorder(collector.clone());
        let problem = LsqProblem::performance(pool.device(0), point.d, point.n, 42)
            .expect("measured sweep sizes are always valid");
        let sol = solve(&pool, &problem, Method::MultiSketch, 42)
            .expect("the multisketch solve succeeds at measured sizes");

        let metrics = MetricsRegistry::new();
        let total = pool.total_cost();
        metrics.add("lsq.kernel_launches", total.launches);
        metrics.add("lsq.bytes_read", total.bytes_read);
        metrics.add("lsq.bytes_written", total.bytes_written);
        metrics.add("lsq.flops", total.flops);
        metrics.add("lsq.phases", sol.breakdown.phases.len() as u64);

        let trace_doc = chrome_trace_with_metrics(&collector.snapshot(), Some(&metrics));
        write_json(std::path::Path::new(path), &trace_doc).expect("write trace JSON");
        println!(
            "wrote {path} ({} events, method {})",
            collector.len(),
            sol.method
        );
    }
}

/// Figures 6 (`hard = false`: η ~ N(0, 0.01)) and 7 (`hard = true`: η ~ N(3, 2)):
/// relative least squares residuals.
fn residuals(hard: bool) {
    let title = if hard {
        "Figure 7 — relative residuals, hard problem (eta ~ N(3, 2))"
    } else {
        "Figure 6 — relative residuals, easy problem (eta ~ N(0, 0.01))"
    };
    let mut table = Table::new(title, &["d", "n", "method", "||b - Ax|| / ||b||"]);
    for r in residual_rows(hard, 42) {
        table.push_row(vec![
            pow2(r.point.d),
            r.point.n.to_string(),
            r.method.to_string(),
            r.residual.map(sci).unwrap_or_else(|| "failed".into()),
        ]);
    }
    table.print();
}

fn fig8() {
    let mut table = Table::new(
        "Figure 8 — residual vs cond(A), b = A*ones (normal equations fail past ~1e8)",
        &["cond(A)", "method", "||b - Ax|| / ||b||"],
    );
    for r in stability_rows(42) {
        table.push_row(vec![
            sci(r.kappa),
            r.method.to_string(),
            r.residual
                .map(sci)
                .unwrap_or_else(|| "failed (POTRF breakdown)".into()),
        ]);
    }
    table.print();
}

/// Section 7 on the pipelined executor, one shard per device (a block-row split of
/// `A` across `p` ranks).  Returns the number of failed checks.
fn sec7(smoke: bool) -> usize {
    let (log_d, n, processes): (u32, usize, &[usize]) = if smoke {
        (10, 8, &[2, 4])
    } else {
        (14, 32, &[2, 4, 8, 16])
    };
    let d = 1usize << log_d;
    let a = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);

    let count_plan = Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), 1));
    let plans = [
        (
            "Gaussian",
            Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), 2)),
        ),
        ("CountSketch", count_plan.clone()),
        (
            "MultiSketch",
            Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 3),
        ),
    ];
    let device = Device::unlimited();
    let single_count = count_plan
        .build_for(&device, n)
        .expect("valid spec")
        .apply_matrix(&device, &a)
        .expect("fits in memory");
    let k = single_count.nrows() as u64;
    let opts = ExecutorOptions::default().with_shards_per_device(1);

    let mut table = Table::new(
        format!("Section 7 — distributed sketching (d = 2^{log_d}, n = {n}, one shard per device)"),
        &[
            "p",
            "method",
            "comm words (executor)",
            "paper local-pipeline words",
            "max per-device flops (generation + shard kernels)",
        ],
    );
    let mut violations = 0;
    for &p in processes {
        for (label, plan) in &plans {
            let pool = DevicePool::unlimited(p);
            let run = pipelined_sketch(&pool, &a, plan, &opts).expect("dims match");
            let words: u64 = run.comm.iter().map(CommCost::total_words).sum();
            let max_flops = pool
                .devices()
                .iter()
                .map(|dev| dev.tracker().snapshot().flops)
                .max()
                .unwrap_or(0);
            let paper = if plan.is_count_gauss() {
                sci(CommCost::allreduce(p, 2 * n, n).total_words() as f64)
            } else {
                "-".to_string()
            };
            table.push_row(vec![
                p.to_string(),
                label.to_string(),
                sci(words as f64),
                paper,
                sci(max_flops as f64),
            ]);

            if *label == "CountSketch" {
                let expected = 2 * (p as u64 - 1) * k * n as u64;
                if words != expected {
                    eprintln!(
                        "p = {p}: CountSketch allreduce moved {words} words, expected {expected}"
                    );
                    violations += 1;
                }
                let same_bits = (0..single_count.nrows()).all(|i| {
                    (0..n)
                        .all(|j| run.result.get(i, j).to_bits() == single_count.get(i, j).to_bits())
                });
                if !same_bits {
                    eprintln!("p = {p}: CountSketch result differs from the single-device apply");
                    violations += 1;
                }
            }
        }
    }
    table.print();
    println!(
        "Comm words are what the executor moves: a ring allreduce of the k x n partial sum \
         for the CountSketch stage, a ring allgather of column panels for the Gaussian stage, \
         and both for the multisketch, whose CountSketch stage is reduced before its Gaussian \
         stage so the result stays bit-identical to one device.  The paper's local-pipeline \
         words are Section 7's scheme, in which every rank runs the whole multisketch and only \
         the 2n x n result is allreduced; they are printed for reference and not executed."
    );
    if violations > 0 {
        eprintln!("{violations} check(s) failed");
    } else {
        println!("CountSketch gate passed: bit-equal to one device, allreduce = 2(p-1)·k·n words");
    }
    violations
}

fn time_wall<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Stopwatch::start();
    let out = f();
    (out, start.elapsed_seconds() * 1e3)
}

/// The design-choice ablations (modelled H100 ms next to measured wall ms).
/// Returns the number of failed checks.
fn ablations(smoke: bool) -> usize {
    let (log_d, n, log_fwht) = if smoke { (12, 8, 14) } else { (16, 32, 20) };
    let d = 1 << log_d;
    let device = Device::h100();
    let a_rm = Matrix::random_gaussian(d, n, Layout::RowMajor, 42, 0);
    let a_cm = a_rm.to_layout(&device, Layout::ColMajor);

    let mut table = Table::new(
        format!("Ablations at d = 2^{log_d}, n = {n} (modelled H100 ms | measured wall ms)"),
        &["experiment", "variant", "model ms", "wall ms"],
    );

    // 1. Atomic (Algorithm 2) vs gather vs SpMM CountSketch.
    let count_spec = SketchSpec::countsketch(d, EmbeddingDim::Square(2), 7).resolve(n);
    let cs = count_spec.build_countsketch(&device).expect("valid spec");
    for (label, run) in [
        ("atomic (Alg 2)", 0usize),
        ("gather (no atomics)", 1),
        ("SpMM baseline", 2),
    ] {
        let dev = Device::h100();
        let csl = count_spec.build_countsketch(&dev).expect("valid spec");
        dev.tracker().reset();
        let (_, wall) = time_wall(|| match run {
            0 => csl.apply_matrix(&dev, &a_rm).unwrap(),
            1 => csl.apply_matrix_gather(&dev, &a_rm).unwrap(),
            _ => csl.apply_matrix_spmm(&dev, &a_rm).unwrap(),
        });
        let model = dev.model_time(&dev.tracker().snapshot()) * 1e3;
        table.push_row(vec![
            "CountSketch kernel".into(),
            label.into(),
            ms(model),
            ms(wall),
        ]);
    }

    // 2. Row-major vs column-major operand for Algorithm 2.
    for (label, operand) in [("row-major A", &a_rm), ("column-major A", &a_cm)] {
        let dev = Device::h100();
        let (_, wall) = time_wall(|| cs.apply_matrix(&dev, operand).unwrap());
        let model = dev.model_time(&dev.tracker().snapshot()) * 1e3;
        table.push_row(vec![
            "operand layout".into(),
            label.into(),
            ms(model),
            ms(wall),
        ]);
    }

    // 3. Multisketch layout: the pipeline's Gaussian GEMM reads the row-major k₁ x n
    //    CountSketch output in place; the naive sequence converts it first.
    let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 9);
    let multi = plan.build_for(&device, n).expect("fits on the device");
    let stages = plan.resolve(n).expect("valid plan");
    let count = stages[0].build_countsketch(&device).expect("valid spec");
    let gauss = stages[1]
        .build_gaussian(&device)
        .expect("fits on the device");
    let dev = Device::h100();
    let (z_pipeline, wall) = time_wall(|| multi.apply_matrix(&dev, &a_rm).unwrap());
    let pipeline_model = dev.model_time(&dev.tracker().snapshot()) * 1e3;
    let dev = Device::h100();
    let (z_naive, naive_wall) = time_wall(|| {
        let y = count.apply_matrix(&dev, &a_rm).unwrap();
        let y_cm = y.to_layout(&dev, Layout::ColMajor);
        gauss.apply_matrix(&dev, &y_cm).unwrap()
    });
    let naive_model = dev.model_time(&dev.tracker().snapshot()) * 1e3;
    for (label, model, wall) in [
        ("GEMM reads row-major Y", pipeline_model, wall),
        ("naive conversion", naive_model, naive_wall),
    ] {
        table.push_row(vec![
            "multisketch layout".into(),
            label.into(),
            ms(model),
            ms(wall),
        ]);
    }
    let mut violations = 0;
    let same_bits = (0..z_naive.nrows())
        .all(|i| (0..n).all(|j| z_pipeline.get(i, j).to_bits() == z_naive.get(i, j).to_bits()));
    if !same_bits {
        eprintln!("the Count→Gauss pipeline differs from the naive conversion");
        violations += 1;
    }
    if pipeline_model >= naive_model {
        eprintln!(
            "the Count→Gauss pipeline models {pipeline_model} ms, not below the naive {naive_model} ms"
        );
        violations += 1;
    }

    // 4. Radix-4 vs radix-2 FWHT (wall clock only; same modelled traffic).
    let mut v4 = sketch_rng::fill::gaussian_vec(1, 0, 1 << log_fwht);
    let mut v2 = v4.clone();
    let (_, wall4) = time_wall(|| fwht_in_place(&mut v4));
    let (_, wall2) = time_wall(|| fwht_radix2_in_place(&mut v2));
    table.push_row(vec![
        "FWHT radix".into(),
        "radix-4 (Alg 3)".into(),
        "-".into(),
        ms(wall4),
    ]);
    table.push_row(vec![
        "FWHT radix".into(),
        "radix-2".into(),
        "-".into(),
        ms(wall2),
    ]);

    // 5. SyRK vs GeMM for the Gram matrix.
    for (label, use_syrk) in [("GeMM (paper's choice)", false), ("SyRK", true)] {
        let dev = Device::h100();
        let (_, wall) = time_wall(|| {
            if use_syrk {
                syrk_gram(&dev, &a_cm)
            } else {
                gram_gemm(&dev, &a_cm).unwrap()
            }
        });
        let model = dev.model_time(&dev.tracker().snapshot()) * 1e3;
        table.push_row(vec![
            "Gram matrix".into(),
            label.into(),
            ms(model),
            ms(wall),
        ]);
    }

    table.print();
    if violations > 0 {
        eprintln!("{violations} check(s) failed");
    } else {
        println!(
            "Multisketch layout gate passed: pipeline bit-equal to the naive conversion and faster"
        );
    }
    violations
}

fn main() {
    let args = cli::PAPER.from_env();
    if args.trace.is_some() && args.subcommand.is_some_and(|s| s != "fig5") {
        eprintln!("paper: --trace records the fig5 solve; run fig5 or every subcommand");
        eprintln!("{}", cli::PAPER.usage());
        std::process::exit(2);
    }
    let subcommands = match args.subcommand {
        Some(one) => vec![one],
        None => cli::PAPER.subcommands.to_vec(),
    };
    let mut failed = Vec::new();
    for name in subcommands {
        if args.subcommand.is_none() {
            println!("\n########## {name} ##########");
        }
        let violations = match name {
            "sec7" => sec7(args.smoke),
            "ablations" => ablations(args.smoke),
            figure => {
                match figure {
                    "table1" => table1(),
                    "fig2" => fig2(),
                    "fig3" | "fig4" => peak_fractions(figure == "fig4"),
                    "fig5" => fig5(args.trace.as_deref()),
                    "fig6" | "fig7" => residuals(figure == "fig7"),
                    "fig8" => fig8(),
                    other => unreachable!("the parser admits no subcommand {other}"),
                }
                0
            }
        };
        if violations > 0 {
            failed.push(name);
        }
    }
    if !failed.is_empty() {
        eprintln!("gate(s) failed in: {}", failed.join(", "));
        std::process::exit(1);
    }
}
