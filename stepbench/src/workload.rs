//! The benchmark's workloads and the set-up every run starts with.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsetrain_core::prune::PruneConfig;
use sparsetrain_nn::data::{Dataset, SyntheticSpec};
use sparsetrain_nn::models::ModelKind;
use sparsetrain_nn::train::{TrainConfig, Trainer};
use sparsetrain_sparse::EngineHandle;
use std::time::Instant;

/// Distinct one-batch datasets a run cycles through.
pub const BATCHES: usize = 25;

/// Untimed steps after the trainer is built: the first one runs the
/// `auto` planner's probe races, and by the last one every pruner's
/// threshold FIFO (depth N_F = 4) is warm.
pub const WARMUP_STEPS: usize = 4;

/// Seeds the model's initial weights. Fixed, so that every benchmark seed
/// trains the same network: the weights set how sparse activations and
/// gradients start out, and with them the cost of a step.
const INIT_SEED: u64 = 7;

/// One benchmark workload: a model, a batch size and an engine.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub model: ModelKind,
    pub batch: usize,
    /// `None` is the default dense im2row path that never enters the
    /// execution context.
    pub engine: Option<&'static str>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "alexnet-auto",
        model: ModelKind::Alexnet,
        batch: 16,
        engine: Some("auto"),
    },
    Workload {
        name: "alexnet-dense",
        model: ModelKind::Alexnet,
        batch: 16,
        engine: None,
    },
    Workload {
        name: "resnet18-auto",
        model: ModelKind::Resnet18,
        batch: 4,
        engine: Some("auto"),
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    pub fn engine_label(&self) -> &'static str {
        self.engine.unwrap_or("dense")
    }

    /// The model: width 16 AlexNet or width 8 ResNet-18 at CIFAR geometry,
    /// the paper's pruning at every site, initialised from [`INIT_SEED`].
    pub fn build_model(&self) -> sparsetrain_nn::Sequential {
        self.model
            .build(3, 32, 10, Some(PruneConfig::paper_default()), INIT_SEED)
    }

    /// The training configuration for `seed` on `engine`: the optimizer
    /// settings of the repository's Table II experiments.
    pub fn config(&self, seed: u64, engine: Option<&str>) -> TrainConfig {
        let engine = engine.map(|name| name.parse::<EngineHandle>().unwrap_or_else(|e| panic!("{e}")));
        TrainConfig {
            batch_size: self.batch,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed,
            engine,
            ..TrainConfig::standard()
        }
    }
}

/// A trainer that has finished set-up, with the batches it trains on.
pub struct Setup {
    pub batches: Vec<Dataset>,
    pub trainer: Trainer,
    /// Synthetic data generation, seconds.
    pub generate_s: f64,
    /// Model build plus trainer construction, milliseconds.
    pub build_ms: f64,
    /// Each warm-up step, milliseconds (the first holds the probe races).
    pub warmup_ms: Vec<f64>,
}

impl Setup {
    /// The one-batch dataset trained on at global step `step`.
    pub fn batch(&self, step: usize) -> &Dataset {
        &self.batches[step % self.batches.len()]
    }
}

/// Generates the data, builds the model and trainer, and runs the
/// warm-up steps. The data (drawn from the fixed CIFAR-10-like
/// distribution) and the initial weights are the same for every seed; the
/// seed deals the samples into batches and seeds the trainer's shuffling
/// and pruning streams.
pub fn setup(w: &Workload, seed: u64) -> Setup {
    let started = Instant::now();
    let spec = SyntheticSpec {
        train_samples: BATCHES * w.batch,
        test_samples: 0,
        ..SyntheticSpec::cifar10_like()
    };
    let (pool, _) = spec.generate();
    let batches = draw_batches(&pool, w.batch, seed);
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let trainer = Trainer::new(w.build_model(), w.config(seed, w.engine));
    let build_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut setup = Setup {
        batches,
        trainer,
        generate_s,
        build_ms,
        warmup_ms: Vec::with_capacity(WARMUP_STEPS),
    };
    for step in 0..WARMUP_STEPS {
        let started = Instant::now();
        let Setup { batches, trainer, .. } = &mut setup;
        let stats = trainer.train_epoch(&batches[step % batches.len()]);
        assert!(
            stats.loss.is_finite(),
            "warm-up step {step} gave loss {}",
            stats.loss
        );
        setup.warmup_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    setup
}

/// Deals `pool` into one-batch datasets in an order drawn from `seed`.
fn draw_batches(pool: &Dataset, batch: usize, seed: u64) -> Vec<Dataset> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..pool.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
        .chunks(batch)
        .map(|chunk| Dataset {
            images: chunk.iter().map(|&i| pool.images[i].clone()).collect(),
            labels: chunk.iter().map(|&i| pool.labels[i]).collect(),
            num_classes: pool.num_classes,
        })
        .collect()
}
