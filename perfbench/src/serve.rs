//! `serve_mixed`: a seeded stream of small jobs from four tenants, all five
//! sketch plans, dense and CSR operands, device asks of 1, 2 and 4, on a pool
//! of four.  One op is one batch: every job through `ServeEngine::submit`,
//! then one `ServeEngine::run`.  Per-call overheads dominate here (operand
//! materialisation, operator generation, simulated sharding, scheduling), the
//! opposite use of the CountSketch layer from `lsq_solve`.

use crate::inputs::{job_file, JobMix};
use crate::stats::nearest_rank;
use crate::trace::{Node, Probe, Tally};
use crate::workload::{bits, err, put, Traced, Workload};
use sketch_core::{Operand, SketchKind};
use sketch_dist::{pipelined_sketch, ExecutorOptions};
use sketch_gpu_sim::{DevicePool, KernelCost};
use sketch_la::Matrix;
use sketch_obs::Stopwatch;
use sketch_serve::{JobFile, JobSpec, OperandData, ServeEngine, ServeError, ServiceReport};
use std::collections::BTreeMap;

/// Devices in the shared pool.
pub const DEVICES: usize = 4;

/// The job mix: 32 jobs, d in 2^14..2^16, n in {8, 16}.
pub fn job_mix() -> JobMix {
    JobMix {
        jobs: 32,
        rows: vec![1 << 14, 1 << 15, 1 << 16],
        cols: vec![8, 16],
        devices: vec![1, 2, 4],
        tenants: vec!["ads", "search", "batch-lab", "maps"],
    }
}

/// The serve workload after set-up.
pub struct Serve {
    pool: DevicePool,
    file: JobFile,
    /// Result bits of each job of the file, in file order.
    reference: Vec<Vec<u64>>,
    makespan_ms: f64,
    cost: KernelCost,
}

/// Render the seeded job stream to JSON, parse it back as the service's job
/// file, build the pool and run the warm-up batch.
pub fn setup(seed: u64) -> Result<Serve, String> {
    let json = job_file(seed, &job_mix()).to_json();
    let file = JobFile::from_json(&json).map_err(err)?;
    let pool = DevicePool::unlimited(DEVICES);
    let before = pool.total_cost();
    let mut serve = Serve {
        pool,
        file,
        reference: Vec::new(),
        makespan_ms: 0.0,
        cost: KernelCost::zero(),
    };
    let (report, seqs) = serve.batch().map_err(err)?;
    serve.cost = serve.pool.total_cost() - before;
    serve.makespan_ms = report.service.makespan() * 1e3;
    let mut reference = vec![Vec::new(); serve.file.jobs.len()];
    for sj in &report.service.jobs {
        let idx = seqs
            .iter()
            .position(|&s| s == sj.seq)
            .ok_or("unknown job sequence number")?;
        reference[idx] = bits(sj.run.result.as_slice());
    }
    if report.jobs_rejected() > 0 || reference.iter().any(Vec::is_empty) {
        return Err("the warm-up batch did not run every job".into());
    }
    serve.reference = reference;
    Ok(serve)
}

fn operand(data: &OperandData) -> Operand<'_> {
    match data {
        OperandData::Dense(m) => Operand::Dense(m),
        OperandData::Csr(c) => Operand::Csr(c),
    }
}

/// The layer-metric name of a job's operator apply.
fn apply_metric(job: &JobSpec) -> &'static str {
    let csr = matches!(job.operand, sketch_serve::OperandSpec::Csr { .. });
    if job.pipeline.is_count_gauss() {
        return "core.multisketch_apply_ms";
    }
    match (job.pipeline.stages[0].kind, csr) {
        (SketchKind::CountSketch, false) => "core.countsketch_apply_ms",
        (SketchKind::CountSketch, true) => "core.countsketch_csr_apply_ms",
        (SketchKind::Gaussian, _) => "core.gaussian_apply_ms",
        (SketchKind::Srht, _) => "core.srht_apply_ms",
        _ => "core.hash_countsketch_apply_ms",
    }
}

impl Serve {
    fn engine(&self) -> ServeEngine<'_> {
        ServeEngine::new(&self.pool, self.file.admission(), self.file.queue_capacity)
    }

    /// One batch, untimed (set-up's warm-up).
    fn batch(&self) -> Result<(ServiceReport, Vec<u64>), ServeError> {
        let mut engine = self.engine();
        let seqs = self
            .file
            .jobs
            .iter()
            .map(|j| engine.submit(j.clone()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((engine.run()?, seqs))
    }

    /// Every job ran, none was rejected or abandoned, and each result is the
    /// reference bit for bit.
    fn check(&self, report: &ServiceReport, seqs: &[u64]) -> bool {
        report.jobs_rejected() == 0
            && report.service.abandoned.is_empty()
            && report.service.jobs.len() == self.reference.len()
            && report.service.jobs.iter().all(|sj| {
                seqs.iter()
                    .position(|&s| s == sj.seq)
                    .is_some_and(|i| bits(sj.run.result.as_slice()) == self.reference[i])
            })
    }
}

impl Workload for Serve {
    fn pool(&self) -> &DevicePool {
        &self.pool
    }

    fn operand_bytes(&self) -> u64 {
        self.file
            .jobs
            .iter()
            .map(|j| match j.operand {
                sketch_serve::OperandSpec::Dense { rows, cols, .. } => 8 * (rows * cols) as u64,
                sketch_serve::OperandSpec::Csr { nnz_target, .. } => 16 * nnz_target as u64,
            })
            .sum()
    }

    fn modelled_ms(&self) -> f64 {
        self.makespan_ms
    }

    fn op_cost(&self) -> KernelCost {
        self.cost
    }

    fn op(&mut self) -> (f64, bool) {
        let jobs = self.file.jobs.clone();
        let mut engine = self.engine();
        let sw = Stopwatch::start();
        let mut seqs = Vec::with_capacity(jobs.len());
        let mut submitted = true;
        for job in jobs {
            match engine.submit(job) {
                Ok(seq) => seqs.push(seq),
                Err(_) => submitted = false,
            }
        }
        let report = engine.run();
        let wall_ms = sw.elapsed_seconds() * 1e3;
        let ok = submitted && matches!(&report, Ok(r) if self.check(r, &seqs));
        (wall_ms, ok)
    }

    /// The batch with each submit and the run timed, then under the run the
    /// work it does per job replayed one call at a time: materialise the
    /// operand, sketch it on the job's subpool, and under that generate the
    /// operator and apply it.  The run's unattributed time is scheduling and
    /// timeline merging.
    fn traced_op(&mut self) -> Result<Traced, String> {
        let probe = Probe::new(&self.pool);
        let jobs = self.file.jobs.clone();
        let mut engine = self.engine();
        let sw = Stopwatch::start();
        let mut submit: Option<Node> = None;
        let mut seqs = Vec::with_capacity(jobs.len());
        for job in jobs {
            let (seq, node, _) =
                probe.call("sketch-serve", "ServeEngine::submit", || engine.submit(job));
            seqs.push(seq.map_err(err)?);
            match submit.as_mut() {
                Some(s) => s.absorb(node),
                None => submit = Some(node),
            }
        }
        let (report, mut run_node, _) =
            probe.call("sketch-serve", "ServeEngine::run", || engine.run());
        let wall_ms = sw.elapsed_seconds() * 1e3;
        let report = report.map_err(err)?;
        let submit = submit.ok_or("the job file is empty")?;
        run_node.modelled_ms = report.service.makespan() * 1e3;
        let mut bits_equal = self.check(&report, &seqs);

        let mut layers = BTreeMap::new();
        let mut countsketch = Tally::default();
        let (mut sharded_ms, mut solo_ms) = (0.0, 0.0);
        let solo_pool = DevicePool::unlimited(1);
        let opts = ExecutorOptions::default();
        let mut jobs_by_seq: Vec<_> = report.service.jobs.iter().collect();
        jobs_by_seq.sort_by_key(|sj| sj.seq);
        for sj in jobs_by_seq {
            let idx = seqs
                .iter()
                .position(|&s| s == sj.seq)
                .ok_or("unknown job sequence number")?;
            let job = &self.file.jobs[idx];
            let plan = job.salted_pipeline();
            let (data, node, _) = probe.call("sketch-serve", "OperandSpec::materialize", || {
                job.operand.materialize()
            });
            put(&mut layers, "serve.materialize_ms", node.wall_ms);
            run_node.adopt(node);

            let sub = self.pool.subpool(&sj.device_ordinals).map_err(err)?;
            let (run, mut dist, _) = probe.call("sketch-dist", "pipelined_sketch", || {
                pipelined_sketch(&sub, operand(&data), &plan, &opts)
            });
            let run = run.map_err(err)?;
            dist.modelled_ms = run.pipelined_seconds * 1e3;
            bits_equal &= bits(run.result.as_slice()) == self.reference[idx];
            put(&mut layers, "dist.sketch_ms", dist.wall_ms);
            put(
                &mut layers,
                "dist.shards",
                run.schedules.iter().map(|s| s.num_shards()).sum::<usize>() as f64,
            );
            put(
                &mut layers,
                "dist.comm_bytes",
                run.comm_total_bytes() as f64,
            );
            put(
                &mut layers,
                "dist.timeline_ops",
                run.timeline.entries().len() as f64,
            );
            put(
                &mut layers,
                "dist.overlap_efficiency",
                run.overlap_efficiency() / seqs.len() as f64,
            );

            let dev = sub.device(0);
            let n = job.operand.cols();
            let (op, gen, _) = probe.call("sketch-core", "Pipeline::build_for", || {
                plan.build_for(dev, n)
            });
            let op = op.map_err(err)?;
            put(&mut layers, "core.generate_ms", gen.wall_ms);
            dist.adopt(gen);
            let mut out = Matrix::zeros_with_layout(op.output_dim(), n, op.output_layout());
            let metric = apply_metric(job);
            let (r, apply, cost) =
                probe.call("sketch-core", &format!("{}::apply_into", op.name()), || {
                    op.apply_into(dev, operand(&data), &mut out.view_mut())
                });
            r.map_err(err)?;
            if metric.starts_with("core.countsketch") {
                countsketch.add(&apply, &cost);
            }
            put(&mut layers, metric, apply.wall_ms);
            dist.adopt(apply);

            if sj.device_ordinals.len() > 1 {
                let sw = Stopwatch::start();
                let solo =
                    pipelined_sketch(&solo_pool, operand(&data), &plan, &opts).map_err(err)?;
                solo_ms += sw.elapsed_seconds() * 1e3;
                sharded_ms += dist.wall_ms;
                bits_equal &= bits(solo.result.as_slice()) == self.reference[idx];
            }
            run_node.adopt(dist);
        }

        let waits: Vec<f64> = report
            .service
            .jobs
            .iter()
            .map(|sj| sj.queue_wait())
            .collect();
        let utils = report.service.utilizations();
        put(
            &mut layers,
            "serve.submit_us",
            submit.wall_ms * 1e3 / submit.calls as f64,
        );
        put(&mut layers, "serve.run_ms", run_node.wall_ms);
        put(
            &mut layers,
            "serve.unattributed_ms",
            run_node.unattributed_ms(),
        );
        put(&mut layers, "serve.jobs_run", report.jobs_run() as f64);
        put(
            &mut layers,
            "serve.jobs_rejected",
            report.jobs_rejected() as f64,
        );
        put(&mut layers, "serve.retries", report.service.retries as f64);
        put(
            &mut layers,
            "serve.queue_wait_p95_s",
            nearest_rank(&waits, 0.95),
        );
        put(
            &mut layers,
            "serve.utilization_mean",
            utils.iter().sum::<f64>() / utils.len() as f64,
        );
        put(&mut layers, "core.countsketch_gbps", countsketch.gbps());
        put(
            &mut layers,
            "sim.model_ratio.countsketch",
            countsketch.model_ratio(),
        );
        if solo_ms > 0.0 {
            put(&mut layers, "dist.sharded_host_ratio", sharded_ms / solo_ms);
        }

        let mut root = Node::new(
            "sketch-serve",
            "batch",
            wall_ms,
            report.service.makespan() * 1e3,
        );
        root.adopt(submit);
        root.adopt(run_node);
        Ok(Traced {
            root,
            layers,
            bits_equal,
        })
    }

    /// The tenant-isolation contract: each job's co-scheduled result equals
    /// its solo run on a pool of one.
    fn verify(&self) -> Result<BTreeMap<String, f64>, String> {
        let solo_pool = DevicePool::unlimited(1);
        for (job, reference) in self.file.jobs.iter().zip(&self.reference) {
            let data = job.operand.materialize();
            let solo = pipelined_sketch(
                &solo_pool,
                operand(&data),
                &job.salted_pipeline(),
                &ExecutorOptions::default(),
            )
            .map_err(err)?;
            if bits(solo.result.as_slice()) != *reference {
                return Err(format!(
                    "a {} job of tenant {} differs from its solo run",
                    apply_metric(job),
                    job.tenant
                ));
            }
        }
        Ok(BTreeMap::new())
    }
}
