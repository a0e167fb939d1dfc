//! Chaos suite: device death, stragglers, and bit-exact recovery.
//!
//! The fault contract: because every random ingredient of a sketch is a pure
//! function of a Philox seed, the pipelined executor can recompute a dead
//! device's stage on the survivors and land on **exactly** the bits the
//! fault-free run produces — no checkpoint, no replay log.  These tests pin
//! that end to end: a device dying at any injected sim-time, for every sketch
//! kind (plus the Count-Gauss pipeline), dense and CSR operands, on 2/4/7
//! device pools, yields results bit-for-bit identical to the no-fault run.
//! Every run is made twice, from the plan's specs and as a pipeline built
//! beforehand on the pool's first device, and the two must agree on every field
//! and every device's cost: either way the pipeline is generated once, there.
//! Stragglers only stretch the modelled clock, never the bits; the serve
//! layer retries dead-device jobs under a typed budget and renders
//! byte-identical ledgers across reruns.

use gpu_countsketch::prelude::*;
use gpu_countsketch::serve::{OperandData, QueuedJob, RejectReason, ServiceReport};
use proptest::prelude::*;

/// Every sketch kind plus the two-stage Count-Gauss pipeline.
fn plans(d: usize, seed: u64) -> Vec<Pipeline> {
    vec![
        Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(2), seed)),
        Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Ratio(2), seed)),
        Pipeline::single(SketchSpec::srht(d, EmbeddingDim::Ratio(2), seed)),
        Pipeline::single(SketchSpec::hash_countsketch(
            d,
            EmbeddingDim::Square(2),
            seed,
        )),
        Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), seed),
    ]
}

/// One dense and one CSR operand, materialised from the same seed recipe the
/// serve layer uses.
fn operands(d: usize, seed: u64) -> Vec<OperandData> {
    vec![
        OperandSpec::Dense {
            rows: d,
            cols: 8,
            seed,
        }
        .materialize(),
        OperandSpec::Csr {
            rows: d,
            cols: 8,
            nnz_target: d / 2,
            seed,
        }
        .materialize(),
    ]
}

fn operand_of(data: &OperandData) -> Operand<'_> {
    match data {
        OperandData::Dense(m) => Operand::Dense(m),
        OperandData::Csr(s) => Operand::Csr(s),
    }
}

/// Run `plan` on a fresh pool of `devices` H100s under `faults`, from its specs
/// or (`build_first`) built on the pool's first device beforehand, and each
/// device's cost, the build included.
fn run_on(
    devices: usize,
    faults: &FaultPlan,
    operand: &OperandData,
    plan: &Pipeline,
    build_first: bool,
) -> (PipelinedRun, Vec<KernelCost>) {
    let pool = DevicePool::h100(devices);
    pool.apply_fault_plan(faults);
    let before: Vec<KernelCost> = pool
        .devices()
        .iter()
        .map(|d| d.tracker().snapshot())
        .collect();
    let operand = operand_of(operand);
    let opts = ExecutorOptions::default();
    let run = if build_first {
        let built = plan
            .compose_for(pool.device(0), operand.ncols())
            .expect("plan builds");
        pipelined_sketch(&pool, operand, &built, &opts)
    } else {
        pipelined_sketch(&pool, operand, plan, &opts)
    }
    .expect("run fits the modelled pool");
    let costs = pool
        .devices()
        .iter()
        .zip(before)
        .map(|(d, before)| d.tracker().snapshot() - before)
        .collect();
    (run, costs)
}

/// Run `plan` from its specs on a fresh pool of `devices` H100s under `faults`,
/// and again, on a twin pool under the same faults, as a pipeline built on the
/// twin pool's first device.  Every field of the two runs and each device's
/// cost must match; returns the spec run and its device costs.
fn run_both(
    devices: usize,
    faults: &FaultPlan,
    operand: &OperandData,
    plan: &Pipeline,
) -> (PipelinedRun, Vec<KernelCost>) {
    let (run, costs) = run_on(devices, faults, operand, plan, false);
    let (twin, twin_costs) = run_on(devices, faults, operand, plan, true);
    assert!(bits_equal(&run.result, &twin.result), "result bits");
    assert_eq!(run.timeline.entries(), twin.timeline.entries());
    for (spec_s, built_s) in [
        (run.serial_seconds, twin.serial_seconds),
        (run.pipelined_seconds, twin.pipelined_seconds),
        (run.compute_only_seconds, twin.compute_only_seconds),
        (run.comm_seconds, twin.comm_seconds),
    ] {
        assert_eq!(spec_s.to_bits(), built_s.to_bits());
    }
    assert_eq!(run.comm, twin.comm);
    assert_eq!(run.schedules, twin.schedules);
    assert_eq!(run.fault, twin.fault);
    assert_eq!(costs, twin_costs, "device costs");
    (run, costs)
}

fn run_plan(
    devices: usize,
    faults: &FaultPlan,
    operand: &OperandData,
    plan: &Pipeline,
) -> PipelinedRun {
    run_both(devices, faults, operand, plan).0
}

/// Strict bit equality — `max_abs_diff == 0` would conflate `-0.0` and `0.0`.
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

fn dies_at(device: usize, after_sim_seconds: f64) -> FaultPlan {
    FaultPlan::healthy().with_fault(device, FaultSpec::Dies { after_sim_seconds })
}

#[test]
fn device_death_recovers_bit_exactly_for_every_plan() {
    let d = 1 << 10;
    for devices in [2usize, 4, 7] {
        for (i, plan) in plans(d, 40).into_iter().enumerate() {
            for (which, operand) in operands(d, 7 + i as u64).iter().enumerate() {
                let clean = run_plan(devices, &FaultPlan::healthy(), operand, &plan);
                assert!(clean.fault.is_clean());

                // The highest-ordinal device owns the last shard of every
                // stage, so a death at 30% of the fault-free makespan always
                // lands mid-flight.
                let faults = dies_at(devices - 1, 0.3 * clean.pipelined_seconds);
                let run = run_plan(devices, &faults, operand, &plan);

                let ctx = format!("plan {i} operand {which} on {devices} devices");
                assert!(
                    bits_equal(&run.result, &clean.result),
                    "recovered bits drifted: {ctx}"
                );
                assert_eq!(run.fault.failures.len(), 1, "death never fired: {ctx}");
                let f = &run.fault.failures[0];
                assert_eq!(f.device, devices - 1, "{ctx}");
                assert!(f.detected_at_seconds >= f.at_sim_seconds, "{ctx}");
                assert_eq!(run.fault.survivors, devices - 1, "{ctx}");
                assert!(run.fault.shards_recomputed > 0, "{ctx}");
            }
        }
    }
}

#[test]
fn cascading_deaths_peel_the_pool_down_to_a_lone_survivor() {
    let d = 1 << 10;
    let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 9);
    let operand = &operands(d, 7)[0];
    let clean = run_plan(3, &FaultPlan::healthy(), operand, &plan);

    let faults = FaultPlan::healthy()
        .with_fault(
            2,
            FaultSpec::Dies {
                after_sim_seconds: 0.1 * clean.pipelined_seconds,
            },
        )
        .with_fault(
            1,
            FaultSpec::Dies {
                after_sim_seconds: 0.2 * clean.pipelined_seconds,
            },
        );
    let run = run_plan(3, &faults, operand, &plan);

    assert!(bits_equal(&run.result, &clean.result));
    let mut dead: Vec<usize> = run.fault.failures.iter().map(|f| f.device).collect();
    dead.sort_unstable();
    assert_eq!(dead, vec![1, 2]);
    assert_eq!(run.fault.survivors, 1);
    assert!(run.fault.shards_recomputed > 0);
    assert!(run.fault.lost_seconds > 0.0);
}

#[test]
fn a_death_in_stage_0_leaves_stage_1_built_on_device_0_and_replicated_on_every_survivor() {
    let d = 1 << 10;
    let plan = Pipeline::count_gauss(d, EmbeddingDim::Square(2), EmbeddingDim::Ratio(2), 5);
    let stage0 = Pipeline::single(plan.stages[0].clone());
    let operand = &operands(d, 7)[0];
    let devices = 3;
    // Device 0 owns stage 0's first shard, so it dies during stage 0.
    let stage0_clean = run_plan(devices, &FaultPlan::healthy(), operand, &stage0);
    let faults = dies_at(0, 0.3 * stage0_clean.pipelined_seconds);

    let (run, costs) = run_both(devices, &faults, operand, &plan);
    let (_, stage0_costs) = run_both(devices, &faults, operand, &stage0);
    assert_eq!(run.fault.failures.len(), 1);
    assert_eq!(
        (run.fault.failures[0].device, run.fault.failures[0].stage),
        (0, 0)
    );
    // Device 0 built the whole pipeline before the first stage, so it carries
    // stage 1's generation and nothing else of stage 1; every survivor carries
    // a stage-1 replica, whichever way the plan was given (`run_both` compares
    // the spec run with the built one device by device).
    let built = plan.compose_for(&Device::h100(), 8).unwrap();
    let generation = built.stages()[1].1.as_operator().generation_cost();
    assert_eq!(costs[0], stage0_costs[0] + generation);
    for survivor in 1..devices {
        let stage1 = costs[survivor] - stage0_costs[survivor];
        assert!(
            stage1.flops >= generation.flops && stage1.bytes_written >= generation.bytes_written,
            "device {survivor} holds no stage-1 replica"
        );
    }
}

#[test]
fn a_fully_dead_pool_surfaces_the_typed_error() {
    let d = 1 << 9;
    let plan = &plans(d, 3)[0];
    let operand = &operands(d, 7)[0];
    let pool = DevicePool::h100(2);
    pool.apply_fault_plan(
        &FaultPlan::healthy()
            .with_fault(
                0,
                FaultSpec::Dies {
                    after_sim_seconds: 0.0,
                },
            )
            .with_fault(
                1,
                FaultSpec::Dies {
                    after_sim_seconds: 0.0,
                },
            ),
    );
    let opts = ExecutorOptions::default();
    let a = match operand {
        OperandData::Dense(m) => m,
        OperandData::Csr(_) => unreachable!(),
    };
    let err = pipelined_sketch(&pool, Operand::Dense(a), plan, &opts)
        .expect_err("no survivor can absorb the work");
    assert!(err.is_device_failure(), "got {err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (death time, victim ordinal, straggler factor, plan, pool size):
    /// the recovered result is bit-identical to the fault-free run.  Late
    /// death times (past the makespan) legitimately never fire — the run is
    /// then clean, and the bits must *still* match.
    #[test]
    fn prop_chaos_never_changes_the_bits(
        devices in 2usize..8,
        victim_draw in 0usize..1000,
        frac_permille in 0u64..1200,
        straggler_tenths in 10u64..80,
        plan_idx in 0usize..5,
    ) {
        let d = 1 << 9;
        let plan = plans(d, 60)[plan_idx].clone();
        let operand = &operands(d, 5)[plan_idx % 2];
        let clean = run_plan(devices, &FaultPlan::healthy(), operand, &plan);

        let victim = victim_draw % devices;
        let slow = (victim + 1) % devices;
        let fault_at = frac_permille as f64 * 1e-3 * clean.pipelined_seconds;
        let faults = FaultPlan::healthy()
            .with_fault(victim, FaultSpec::Dies { after_sim_seconds: fault_at })
            .with_fault(slow, FaultSpec::Straggler {
                slowdown_factor: straggler_tenths as f64 / 10.0,
            });
        let run = run_plan(devices, &faults, operand, &plan);

        prop_assert!(
            bits_equal(&run.result, &clean.result),
            "bits drifted: plan {plan_idx}, victim {victim} at {frac_permille} permille, \
             {straggler_tenths}/10x straggler, {devices} devices"
        );
        if !run.fault.is_clean() {
            prop_assert_eq!(run.fault.survivors, devices - run.fault.failures.len());
            prop_assert!(run.fault.shards_recomputed > 0);
            for f in &run.fault.failures {
                prop_assert!(f.detected_at_seconds >= f.at_sim_seconds);
                prop_assert!(f.recovered_at_seconds >= f.detected_at_seconds);
            }
        }
    }

    /// A 1.0x straggler is a bitwise no-op: result, pipelined makespan, and
    /// serial cost all carry identical bits to the healthy pool's.
    #[test]
    fn prop_unit_straggler_is_bitwise_invisible(
        devices in 1usize..8,
        victim_draw in 0usize..1000,
        plan_idx in 0usize..5,
    ) {
        let d = 1 << 9;
        let plan = plans(d, 60)[plan_idx].clone();
        let operand = &operands(d, 5)[plan_idx % 2];
        let clean = run_plan(devices, &FaultPlan::healthy(), operand, &plan);

        let faults = FaultPlan::healthy().with_fault(
            victim_draw % devices,
            FaultSpec::Straggler { slowdown_factor: 1.0 },
        );
        let run = run_plan(devices, &faults, operand, &plan);

        prop_assert!(bits_equal(&run.result, &clean.result));
        prop_assert_eq!(
            run.pipelined_seconds.to_bits(),
            clean.pipelined_seconds.to_bits()
        );
        prop_assert_eq!(run.serial_seconds.to_bits(), clean.serial_seconds.to_bits());
        prop_assert!(run.fault.is_clean());
    }
}

// ---------------------------------------------------------------------------
// Serve layer: retries, ledgers, and rerun determinism under chaos.
// ---------------------------------------------------------------------------

/// One job per (plan, operand layout) for `tenant`.
fn jobs_for(tenant: &str, d: usize) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (i, plan) in plans(d, 40 + tenant.len() as u64).into_iter().enumerate() {
        jobs.push(JobSpec::new(
            tenant,
            plan.clone(),
            OperandSpec::Dense {
                rows: d,
                cols: 8,
                seed: 7,
            },
        ));
        jobs.push(JobSpec::new(
            tenant,
            plan,
            OperandSpec::Csr {
                rows: d,
                cols: 8,
                nnz_target: d / 2,
                seed: 7 + i as u64,
            },
        ));
    }
    jobs
}

/// The reference bits: the job alone on a fresh fault-free single-device pool.
fn solo_result(job: &JobSpec) -> Matrix {
    let pool = DevicePool::unlimited(1);
    let run = Scheduler::new()
        .run(
            &pool,
            &[QueuedJob {
                job: job.clone(),
                seq: 0,
            }],
        )
        .expect("solo run fits one device");
    run.jobs.into_iter().next().unwrap().run.result
}

#[test]
fn serve_chaos_retries_bitwise_and_renders_byte_identical_ledgers() {
    let d = 1 << 9;
    let specs: Vec<JobSpec> = jobs_for("alice", d)
        .into_iter()
        .take(4)
        .chain(jobs_for("bob", d).into_iter().take(4))
        .collect();
    let chaos = || -> ServiceReport {
        // Device 0 is dead on arrival and device 1 limps at 4x: every job
        // claiming ordinal 0 fails once and retries onto the survivors.
        let pool = DevicePool::unlimited(3);
        pool.apply_fault_plan(
            &FaultPlan::healthy()
                .with_fault(
                    0,
                    FaultSpec::Dies {
                        after_sim_seconds: 0.0,
                    },
                )
                .with_fault(
                    1,
                    FaultSpec::Straggler {
                        slowdown_factor: 4.0,
                    },
                ),
        );
        let mut engine = ServeEngine::new(&pool, AdmissionController::new(), 32);
        for job in &specs {
            engine.submit(job.clone()).expect("queue has room");
        }
        engine.run().expect("chaos run completes")
    };

    let first = chaos();
    assert!(
        first.service.retries >= 1,
        "the dead device must force at least one retry"
    );
    assert_eq!(first.jobs_run(), specs.len() as u64);
    // Retried jobs still land on the solo-run bits: recovery changes the
    // placement, never the result.
    for job in &first.service.jobs {
        assert!(
            bits_equal(&job.run.result, &solo_result(&specs[job.seq as usize])),
            "{} job seq {} drifted under chaos",
            job.tenant,
            job.seq
        );
    }

    // The whole report — ledgers, rejection reasons, timeline — renders to
    // the same bytes on a fresh pool with the same fault plan.
    let second = chaos();
    assert_eq!(first.to_json().render(), second.to_json().render());
}

#[test]
fn retry_exhaustion_is_ledgered_with_the_typed_reason() {
    let d = 1 << 9;
    let pool = DevicePool::unlimited(1);
    pool.apply_fault_plan(&dies_at(0, 0.0));
    let admission = AdmissionController::new()
        .with_tenant("doomed", TenantLimits::unlimited().with_max_retries(0));
    let mut engine = ServeEngine::new(&pool, admission, 4);
    engine
        .submit(jobs_for("doomed", d).remove(0))
        .expect("queue has room");
    let report = engine.run().expect("abandonment is not an engine error");

    let ledger = &report.tenants["doomed"];
    assert_eq!((ledger.jobs_run, ledger.jobs_rejected), (0, 1));
    assert_eq!(ledger.rejected_by_reason["retries_exhausted"], 1);
    assert_eq!(report.service.abandoned.len(), 1);
    let abandoned = &report.service.abandoned[0];
    assert_eq!(
        abandoned.reason,
        RejectReason::RetriesExhausted { attempts: 1 }
    );
    assert_eq!(abandoned.tenant, "doomed");
}
