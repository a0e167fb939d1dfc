//! Property-based integration tests for the subspace-embedding guarantees every solver
//! in the workspace relies on (Definitions 1.1–1.2 of the paper).

use gpu_countsketch::la::cond::orthonormal_columns;
use gpu_countsketch::la::norms::vec_norm2;
use gpu_countsketch::prelude::*;
use gpu_countsketch::sketch::embedding::subspace_embedding_distortion;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every sketch preserves the norm of a random vector within a generous band when
    /// its embedding dimension follows the paper's conventions.
    #[test]
    fn prop_norms_are_preserved_within_the_band(seed in 0u64..200) {
        let device = Device::unlimited();
        let d = 4096usize;
        let n = 8usize;
        let x = gpu_countsketch::rng::fill::gaussian_vec(seed, 3, d);
        let nx = vec_norm2(&x);

        let plans = [
            Pipeline::single(SketchSpec::countsketch(d, EmbeddingDim::Square(8), seed)),
            Pipeline::single(SketchSpec::gaussian(d, EmbeddingDim::Ratio(16), seed)),
            Pipeline::single(SketchSpec::srht(d, EmbeddingDim::Ratio(32), seed)),
            Pipeline::count_gauss(d, EmbeddingDim::Square(16), EmbeddingDim::Ratio(16), seed),
            Pipeline::single(SketchSpec::hash_countsketch(d, EmbeddingDim::Square(8), seed)),
        ];
        let operators: Vec<Box<dyn SketchOperator>> = plans
            .iter()
            .map(|plan| plan.build_for(&device, n).unwrap())
            .collect();
        for op in operators {
            let y = op.apply_vector(&device, &x).unwrap();
            let ratio = vec_norm2(&y) / nx;
            prop_assert!((0.4..1.6).contains(&ratio),
                "{}: ratio {ratio}", op.name());
        }
    }

    /// The sketched Gram matrix of an orthonormal basis stays close to the identity —
    /// the empirical subspace embedding property.
    #[test]
    fn prop_subspace_embedding_distortion_is_bounded(seed in 0u64..100) {
        let device = Device::unlimited();
        let d = 2048usize;
        let n = 4usize;
        let basis = orthonormal_columns(&device, d, n, seed).unwrap();
        let cs = SketchSpec::countsketch(d, EmbeddingDim::Square(16), seed + 1)
            .build_for(&device, n)
            .unwrap();
        let eps = subspace_embedding_distortion(&device, cs.as_ref(), &basis).unwrap();
        prop_assert!(eps < 0.8, "CountSketch distortion {eps}");
    }

    /// Sketching commutes with the block-row distribution for any process count.
    #[test]
    fn prop_distribution_is_exact(p in 1usize..8, seed in 0u64..100) {
        let device = Device::unlimited();
        let d = 512usize;
        let n = 4usize;
        let a = Matrix::random_gaussian(d, n, Layout::RowMajor, seed, 0);
        let spec = SketchSpec::countsketch(d, EmbeddingDim::Square(2), seed);
        let cs = spec.resolve(n).build_countsketch(&device).unwrap();
        let single = cs.apply_matrix(&device, &a).unwrap();
        let pool = DevicePool::unlimited(p);
        let opts = ExecutorOptions::default().with_shards_per_device(1);
        let reduced = pipelined_sketch(&pool, &a, &Pipeline::single(spec), &opts).unwrap();
        prop_assert!(reduced.result.max_abs_diff(&single).unwrap() < 1e-9);
    }

    /// The sketch-and-solve residual is sandwiched between the optimum and the
    /// theoretical distortion envelope.
    #[test]
    fn prop_sketch_and_solve_residual_bounds(seed in 0u64..50) {
        let pool = DevicePool::unlimited(1);
        let device = pool.device(0);
        let problem = LsqProblem::easy(device, 2048, 6, seed).unwrap();
        let best = solve(&pool, &problem, Method::Qr, seed).unwrap()
            .relative_residual(device, &problem).unwrap();
        let sol = solve(&pool, &problem, Method::CountSketch, seed + 1).unwrap();
        let res = sol.relative_residual(device, &problem).unwrap();
        prop_assert!(res + 1e-12 >= best);
        prop_assert!(res <= 2.5 * best, "residual {res} vs best {best}");
    }
}
