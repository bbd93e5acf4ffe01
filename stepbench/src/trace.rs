//! The traced run: per-step and per-(layer, stage) spans, measured from
//! outside the program.
//!
//! The run sets up like the untraced run, which freezes the `auto`
//! planner's plan. It then alternates untraced rounds, timed exactly like
//! the untraced run's, with traced rounds that drive the same network step
//! by step through the public API
//! (`Sequential::forward`, `softmax_cross_entropy`, `Sequential::backward`,
//! `Sgd::step`), timing each call, under an execution context whose plan
//! maps every frozen cell to a timing wrapper around that cell's engine.
//! Last it times standalone calls into pruning, compression, checkpointing
//! and the simulator on data taken from the run.

use crate::run::{capture, checkpoint_round_trip, restart, simulate, untraced_round, ROUND_STEPS};
use crate::util::{median, spearman, Metric};
use crate::workload::{self, Setup, Workload, WARMUP_STEPS};
use crate::Report;
use sparsetrain_core::dataflow::trace::LayerTrace;
use sparsetrain_core::prune::{LayerPruner, PruneConfig, StepStreams, StreamSeeds};
use sparsetrain_nn::data::Dataset;
use sparsetrain_nn::loss::softmax_cross_entropy;
use sparsetrain_nn::optim::Sgd;
use sparsetrain_nn::{Batch, Layer, Sequential};
use sparsetrain_sim::{ArchConfig, Machine};
use sparsetrain_sparse::engine::BandContext;
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::{registry, ExecutionContext, KernelEngine, Plan, RowMask, Stage};
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Convolution layers of both models, in forward order: one per-cell
/// metric per `(conv, stage)` except the first layers' GTA, which never
/// runs (the network input needs no gradient).
const ALEXNET_CONVS: [&str; 5] = ["conv1", "conv2", "conv3", "conv4", "conv5"];
const RESNET18_CONVS: [&str; 15] = [
    "stem.conv",
    "s0b0.conv1",
    "s0b0.conv2",
    "s0b1.conv1",
    "s0b1.conv2",
    "s1b0.conv1",
    "s1b0.conv2",
    "s1b0.short_conv",
    "s1b1.conv1",
    "s1b1.conv2",
    "s2b0.conv1",
    "s2b0.conv2",
    "s2b0.short_conv",
    "s2b1.conv1",
    "s2b1.conv2",
];
const FIRST_CONVS: [&str; 2] = ["conv1", "stem.conv"];

/// Standalone repetitions for the off-step timings (medians reported).
const REPS: usize = 5;

fn stage_key(stage: Stage) -> &'static str {
    match stage {
        Stage::Forward => "fwd",
        Stage::InputGrad => "gta",
        Stage::WeightGrad => "gtw",
    }
}

/// One timed plan cell.
struct Cell {
    layer: String,
    stage: Stage,
    /// Engine calls over the traced phase.
    calls: u64,
    /// Engine time in the current step.
    ns: u64,
    /// Input non-zeros and input size over the whole traced phase.
    nnz: u64,
    size: u64,
}

static CELLS: Mutex<Vec<Cell>> = Mutex::new(Vec::new());
static RECORDING: AtomicBool = AtomicBool::new(false);

fn record(slot: usize, started: Instant, maps: &[&[SparseFeatureMap]]) {
    let ns = started.elapsed().as_nanos() as u64;
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    let (mut nnz, mut size) = (0u64, 0u64);
    for fm in maps.iter().flat_map(|m| m.iter()) {
        nnz += fm.nnz() as u64;
        size += (fm.channels() * fm.height() * fm.width()) as u64;
    }
    let mut cells = CELLS.lock().expect("span table poisoned");
    let cell = &mut cells[slot];
    cell.calls += 1;
    cell.ns += ns;
    cell.nnz += nnz;
    cell.size += size;
}

/// A registered engine that times each batched call and delegates to the
/// engine the frozen plan chose for its cell.
struct TimedEngine {
    name: &'static str,
    inner: &'static dyn KernelEngine,
    slot: usize,
}

impl KernelEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn forward_batch(
        &self,
        inputs: &[SparseFeatureMap],
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
    ) -> Vec<Tensor3> {
        let started = Instant::now();
        let outs = self.inner.forward_batch(inputs, weights, bias, geom);
        record(self.slot, started, &[inputs]);
        outs
    }

    fn forward_batch_into(
        &self,
        inputs: &[SparseFeatureMap],
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
        outs: &mut [Tensor3],
    ) {
        let started = Instant::now();
        self.inner.forward_batch_into(inputs, weights, bias, geom, outs);
        record(self.slot, started, &[inputs]);
    }

    fn input_grad_batch_into(
        &self,
        douts: &[SparseFeatureMap],
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[Vec<RowMask>],
        dins: &mut [Tensor3],
    ) {
        let started = Instant::now();
        self.inner
            .input_grad_batch_into(douts, weights, geom, masks, dins);
        record(self.slot, started, &[douts]);
    }

    fn weight_grad_batch_into(
        &self,
        inputs: &[SparseFeatureMap],
        douts: &[SparseFeatureMap],
        geom: ConvGeometry,
        dw: &mut Tensor4,
    ) {
        let started = Instant::now();
        self.inner.weight_grad_batch_into(inputs, douts, geom, dw);
        record(self.slot, started, &[inputs, douts]);
    }

    // Everything below delegates untimed: the planned context reaches the
    // engine only through the batched calls above.

    fn forward_into(
        &self,
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
        out: &mut Tensor3,
    ) {
        self.inner.forward_into(input, weights, bias, geom, out);
    }

    fn input_grad_into(
        &self,
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[RowMask],
        din: &mut Tensor3,
    ) {
        self.inner.input_grad_into(dout, weights, geom, masks, din);
    }

    fn weight_grad_into(
        &self,
        input: &SparseFeatureMap,
        dout: &SparseFeatureMap,
        geom: ConvGeometry,
        dw: &mut Tensor4,
    ) {
        self.inner.weight_grad_into(input, dout, geom, dw);
    }

    fn prepare_forward(
        &self,
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
    ) -> BandContext {
        self.inner.prepare_forward(input, weights, bias, geom)
    }

    fn prepare_input_grad(
        &self,
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[RowMask],
        in_h: usize,
        in_w: usize,
    ) -> BandContext {
        self.inner
            .prepare_input_grad(dout, weights, geom, masks, in_h, in_w)
    }

    fn prepare_weight_grad(
        &self,
        input: &SparseFeatureMap,
        dout: &SparseFeatureMap,
        geom: ConvGeometry,
    ) -> BandContext {
        self.inner.prepare_weight_grad(input, dout, geom)
    }

    #[allow(clippy::too_many_arguments)]
    fn forward_band(
        &self,
        ctx: &BandContext,
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
        oh: usize,
        ow: usize,
        f_lo: usize,
        out_band: &mut [f32],
    ) {
        self.inner
            .forward_band(ctx, input, weights, bias, geom, oh, ow, f_lo, out_band);
    }

    #[allow(clippy::too_many_arguments)]
    fn input_grad_band(
        &self,
        ctx: &BandContext,
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[RowMask],
        in_h: usize,
        in_w: usize,
        c_lo: usize,
        din_band: &mut [f32],
    ) {
        self.inner
            .input_grad_band(ctx, dout, weights, geom, masks, in_h, in_w, c_lo, din_band);
    }

    fn weight_grad_band(
        &self,
        ctx: &BandContext,
        input: &SparseFeatureMap,
        dout: &SparseFeatureMap,
        geom: ConvGeometry,
        f_lo: usize,
        dw_band: &mut [f32],
    ) {
        self.inner.weight_grad_band(ctx, input, dout, geom, f_lo, dw_band);
    }

    fn for_each_batch_chunk(&self, parts: Vec<&mut [f32]>, work: &(dyn Fn(usize, usize, &mut [f32]) + Sync)) {
        self.inner.for_each_batch_chunk(parts, work);
    }
}

/// Registers one timing wrapper per cell of `plan` and returns the plan
/// that maps each cell to its wrapper.
fn wrap_plan(plan: &Plan) -> Plan {
    let mut wrapped = Plan::new(plan.default_engine());
    let mut cells = CELLS.lock().expect("span table poisoned");
    for (layer, stage, handle) in plan.cells() {
        let slot = cells.len();
        let name: &'static str =
            Box::leak(format!("timed/{layer}/{stage}/{}", handle.name()).into_boxed_str());
        let engine: &'static TimedEngine = Box::leak(Box::new(TimedEngine {
            name,
            inner: handle.engine(),
            slot,
        }));
        let timed = registry::register(name, "timing wrapper around a planned engine", engine)
            .unwrap_or_else(|_| panic!("timing wrapper {name} registered twice"));
        wrapped.set(layer, stage, timed);
        cells.push(Cell {
            layer: layer.to_string(),
            stage,
            calls: 0,
            ns: 0,
            nnz: 0,
            size: 0,
        });
    }
    wrapped
}

/// Host time of one traced step, ms.
struct StepSpans {
    total: f64,
    forward: f64,
    backward: f64,
    loss: f64,
    optim: f64,
    /// Per plan cell, in [`CELLS`] order.
    cells: Vec<f64>,
}

impl StepSpans {
    fn engine(&self) -> f64 {
        self.cells.iter().fold(0.0, |sum, ms| sum + ms)
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One training step through the public API, each call timed. Mirrors
/// `Trainer::train_epoch` on a one-batch dataset (in dataset order).
fn traced_step(
    net: &mut Sequential,
    ctx: &mut ExecutionContext,
    sgd: &mut Sgd,
    streams: &mut StreamSeeds,
    batch: &Dataset,
) -> Result<StepSpans, String> {
    let step_start = Instant::now();
    let t = Instant::now();
    net.zero_grads();
    let mut optim = ms_since(t);

    let t = Instant::now();
    let outs = net.forward(Batch::borrowed(&batch.images), ctx, true);
    let forward = ms_since(t);

    let t = Instant::now();
    let mut loss_sum = 0.0f64;
    let mut grads = Vec::with_capacity(outs.len());
    for (out, &label) in outs.iter().zip(&batch.labels) {
        let (loss, dlogits) = softmax_cross_entropy(out.as_slice(), label);
        loss_sum += f64::from(loss);
        grads.push(Tensor3::from_vec(dlogits.len(), 1, 1, dlogits));
    }
    drop(outs);
    let loss = ms_since(t);

    let t = Instant::now();
    let step: StepStreams = streams.streams();
    net.backward(grads, ctx, &step);
    let backward = ms_since(t);
    streams.advance_step();

    let t = Instant::now();
    sgd.step(net, 1.0 / batch.len() as f32);
    optim += ms_since(t);
    streams.advance_epoch();
    let total = ms_since(step_start);

    if !loss_sum.is_finite() {
        return Err(format!("non-finite loss {loss_sum}"));
    }
    let cells = CELLS
        .lock()
        .expect("span table poisoned")
        .iter_mut()
        .map(|c| {
            let ms = c.ns as f64 / 1e6;
            c.ns = 0;
            ms
        })
        .collect();
    Ok(StepSpans {
        total,
        forward,
        backward,
        loss,
        optim,
        cells,
    })
}

/// Checks that every wrapped cell ran exactly once per traced step.
fn check_cell_calls(steps: u64, report: &mut Report) {
    let wrong: Vec<String> = CELLS
        .lock()
        .expect("span table poisoned")
        .iter()
        .filter(|c| c.calls != steps)
        .map(|c| format!("{}/{} ran {} times", c.layer, c.stage, c.calls))
        .collect();
    if !wrong.is_empty() {
        report.fail(format!(
            "traced cells off the replayed plan ({steps} steps): {}",
            wrong.join(", ")
        ));
    }
}

/// The per-cell metric names of both models.
fn cell_metric_names() -> Vec<String> {
    let mut names = Vec::new();
    for conv in ALEXNET_CONVS.iter().chain(&RESNET18_CONVS) {
        for stage in Stage::ALL {
            if stage == Stage::InputGrad && FIRST_CONVS.contains(conv) {
                continue;
            }
            names.push(format!("sparse.{conv}.{}_ms", stage_key(stage)));
        }
    }
    names
}

/// Runs the traced benchmark.
pub fn run(w: &Workload, seed: u64, seconds: f64, report: &mut Report) {
    let mut setup = workload::setup(w, seed);
    let plan = setup.trainer.context_mut().plan().cloned();
    if let Some(plan) = &plan {
        report.plan("replayed under timing wrappers", plan);
    }
    let warm = &setup.warmup_ms;
    let probe_s = (warm[0] - median(&warm[1..])).max(0.0) / 1e3;
    let start = setup.trainer.snapshot();

    // Untraced and traced rounds alternate, each from the same start on
    // the same batches, so that both sample the same host conditions. The
    // untraced rounds run exactly as the untraced run times them: the base
    // of `trace.overhead`.
    let config = w.config(seed, w.engine);
    let mut ctx = match &plan {
        Some(plan) => ExecutionContext::with_plan(wrap_plan(plan)),
        None => ExecutionContext::scalar(),
    };
    let mut untraced_ms = Vec::new();
    let mut spans: Vec<StepSpans> = Vec::new();
    let mut rounds = 0;
    while rounds == 0 || untraced_ms.iter().sum::<f64>() < seconds * 1e3 / 2.0 {
        if rounds > 0 && !restart(&mut setup.trainer, &start, report) {
            break;
        }
        untraced_ms.extend(untraced_round(&mut setup, report).ms);
        rounds += 1;
        if !restart(&mut setup.trainer, &start, report) {
            break;
        }
        let mut sgd = Sgd::new(config.lr, config.momentum, config.weight_decay);
        sgd.restore_velocities(start.optimizer.velocities.clone());
        let mut streams = setup.trainer.stream_seeds();
        let Setup { batches, trainer, .. } = &mut setup;
        let net = trainer.network_mut();
        RECORDING.store(true, Ordering::Relaxed);
        for step in 0..ROUND_STEPS {
            let batch = &batches[(WARMUP_STEPS + step) % batches.len()];
            report.attempted += 1;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                traced_step(net, &mut ctx, &mut sgd, &mut streams, batch)
            }));
            match outcome {
                Ok(Ok(s)) => spans.push(s),
                Ok(Err(e)) => report.fail(format!("traced step {step}: {e}")),
                Err(_) => report.fail(format!("traced step {step} panicked")),
            }
        }
        RECORDING.store(false, Ordering::Relaxed);
    }
    check_cell_calls(spans.len() as u64, report);
    if let (Some(frozen), Some(replayed)) = (&plan, ctx.plan()) {
        if replayed.len() > frozen.len() {
            report.fail(format!(
                "traced run decided {} cells outside the frozen plan's {}",
                replayed.len() - frozen.len(),
                frozen.len()
            ));
        }
    }
    report.line(format!(
        "{rounds} rounds of {ROUND_STEPS} steps from the same start: {} untraced steps, {} traced steps",
        untraced_ms.len(),
        spans.len()
    ));

    let col = |f: &dyn Fn(&StepSpans) -> f64| median(&spans.iter().map(f).collect::<Vec<_>>());
    let step_ms = median(&untraced_ms);
    let traced_ms = col(&|s| s.total);
    let mut metrics = vec![
        Metric::new("nn.forward_ms", col(&|s| s.forward), "ms"),
        Metric::new("nn.backward_ms", col(&|s| s.backward), "ms"),
        Metric::new("nn.loss_ms", col(&|s| s.loss), "ms"),
        Metric::new("nn.optim_ms", col(&|s| s.optim), "ms"),
        Metric::new("nn.glue_ms", col(&|s| s.forward + s.backward - s.engine()), "ms"),
        Metric::new("trace.step_ms", traced_ms, "ms"),
        Metric::new(
            "trace.unaccounted_ms",
            col(&|s| s.total - s.forward - s.backward - s.loss - s.optim),
            "ms",
        ),
        Metric::new("trace.overhead", traced_ms / step_ms, "x"),
    ];

    // Per-cell and per-stage engine time, and each stage's input density.
    let cells = CELLS.lock().expect("span table poisoned");
    let mut per_conv_ms: Vec<(String, f64)> = Vec::new();
    for name in cell_metric_names() {
        let value = cells
            .iter()
            .position(|c| name == format!("sparse.{}.{}_ms", c.layer, stage_key(c.stage)))
            .map_or(0.0, |i| col(&|s| s.cells[i]));
        metrics.push(Metric::new(name, value, "ms"));
    }
    for stage in Stage::ALL {
        let slots: Vec<usize> = (0..cells.len()).filter(|&i| cells[i].stage == stage).collect();
        let total = col(&|s| slots.iter().fold(0.0, |sum, &i| sum + s.cells[i]));
        metrics.push(Metric::new(
            format!("sparse.{}_ms", stage_key(stage)),
            total,
            "ms",
        ));
    }
    for stage in Stage::ALL {
        let (nnz, size) = cells
            .iter()
            .filter(|c| c.stage == stage)
            .fold((0u64, 0u64), |(n, s), c| (n + c.nnz, s + c.size));
        let density = if size == 0 { 0.0 } else { nnz as f64 / size as f64 };
        metrics.push(Metric::new(
            format!("sparse.{}.in_density", stage_key(stage)),
            density,
            "nnz/elem",
        ));
    }
    for (i, c) in cells.iter().enumerate() {
        let ms = col(&|s| s.cells[i]);
        match per_conv_ms.iter_mut().find(|(l, _)| *l == c.layer) {
            Some((_, total)) => *total += ms,
            None => per_conv_ms.push((c.layer.clone(), ms)),
        }
    }
    drop(cells);

    let planned = plan.as_ref();
    metrics.push(Metric::new("sparse.planner.probe_s", probe_s, "s"));
    metrics.push(Metric::new(
        "sparse.planner.cells",
        planned.map_or(0, Plan::len) as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "sparse.planner.scalar_cells",
        planned.map_or(0, |p| p.cells().filter(|(_, _, h)| h.name() == "scalar").count()) as f64,
        "count",
    ));

    off_step_metrics(
        w,
        seed,
        &mut setup,
        WARMUP_STEPS + ROUND_STEPS,
        &per_conv_ms,
        &mut metrics,
        report,
    );
    metrics.push(Metric::new("nn.data.generate_s", setup.generate_s, "s"));
    metrics.push(Metric::new("nn.models.build_ms", setup.build_ms, "ms"));
    report.metrics = metrics;
}

/// Standalone calls into pruning, compression, checkpointing, trace
/// capture and the simulator, on data taken from the run.
fn off_step_metrics(
    w: &Workload,
    seed: u64,
    setup: &mut Setup,
    step: usize,
    per_conv_ms: &[(String, f64)],
    metrics: &mut Vec<Metric>,
    report: &mut Report,
) {
    let batch_len = setup.batch(step).len();

    // Trace capture and simulation: host time, and simulated cycles.
    let mut capture_ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(capture(setup, w, step, 0));
        capture_ms.push(ms_since(t));
    }
    let sim = simulate(setup, w, step);
    let machine = Machine::new(ArchConfig::paper_default());
    let mut simulate_ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(machine.simulate(&sim.trace));
        simulate_ms.push(ms_since(t));
    }

    // Pruning and compression over the tapped pre-prune gradients.
    let tapped = {
        let Setup { batches, trainer, .. } = setup;
        trainer.tap_gradients(&batches[step % batches.len()])
    };
    let seeds = StepStreams::new(seed, u64::MAX, 0);
    let (mut prune_ns, mut prune_elems) = (0.0, 0usize);
    let (mut compress_ns, mut compress_elems) = (0.0, 0usize);
    for (site, values) in &tapped {
        let per_sample = values.len() / batch_len.max(1);
        if per_sample == 0 {
            continue;
        }
        let stream = seeds.site(site);
        let mut pruner = LayerPruner::new(PruneConfig::paper_default());
        let mut pruned = values.clone();
        for rep in 0..PruneConfig::paper_default().fifo_depth + REPS {
            pruned.copy_from_slice(values);
            let mut parts: Vec<&mut [f32]> = pruned.chunks_mut(per_sample).collect();
            let t = Instant::now();
            pruner.prune_batch_parts(&mut parts, &stream);
            if rep >= PruneConfig::paper_default().fifo_depth {
                prune_ns += t.elapsed().as_nanos() as f64;
                prune_elems += values.len();
            }
        }
        // Compression sees the pruned gradients in the conv's dO shape.
        let conv = site.replace("prune", "conv");
        let shape = sim.trace.layers.iter().find_map(|l| match l {
            LayerTrace::Conv(c) if c.name == conv => {
                Some((c.dout.channels(), c.dout.height(), c.dout.width()))
            }
            _ => None,
        });
        if let Some((c, h, wd)) = shape.filter(|(c, h, wd)| c * h * wd == per_sample) {
            let tensors: Vec<Tensor3> = pruned
                .chunks(per_sample)
                .map(|s| Tensor3::from_vec(c, h, wd, s.to_vec()))
                .collect();
            for _ in 0..REPS {
                let t = Instant::now();
                for tensor in &tensors {
                    std::hint::black_box(SparseFeatureMap::from_tensor(tensor));
                }
                compress_ns += t.elapsed().as_nanos() as f64;
                compress_elems += pruned.len();
            }
        }
    }
    let kept: Vec<f64> = setup
        .trainer
        .grad_densities()
        .into_iter()
        .filter(|(name, _)| name.contains("prune"))
        .map(|(_, d)| d)
        .collect();
    metrics.push(Metric::new(
        "core.prune.ns_per_elem",
        prune_ns / prune_elems.max(1) as f64,
        "ns",
    ));
    metrics.push(Metric::new(
        "core.prune.kept_density",
        kept.iter().sum::<f64>() / kept.len().max(1) as f64,
        "nnz/elem",
    ));
    metrics.push(Metric::new(
        "sparse.compress.ns_per_elem",
        compress_ns / compress_elems.max(1) as f64,
        "ns",
    ));

    // Checkpoint round trips, by phase.
    let mut phases: [Vec<f64>; 4] = Default::default();
    let mut bytes = 0;
    for _ in 0..REPS {
        report.attempted += 1;
        match checkpoint_round_trip(&mut setup.trainer) {
            Ok((ms, len)) => {
                for (acc, v) in phases.iter_mut().zip(ms) {
                    acc.push(v);
                }
                bytes = len;
            }
            Err(e) => report.fail(format!("checkpoint: {e}")),
        }
    }
    for (name, values) in ["snapshot", "encode", "decode", "resume"].iter().zip(&phases) {
        metrics.push(Metric::new(format!("checkpoint.{name}_ms"), median(values), "ms"));
    }
    metrics.push(Metric::new("checkpoint.bytes", bytes as f64, "bytes"));

    // The simulator beside the measurement: rank correlation of each conv
    // layer's simulated cycles with its measured engine time.
    let (cycles, measured): (Vec<f64>, Vec<f64>) = per_conv_ms
        .iter()
        .filter_map(|(layer, ms)| {
            let (_, cycles) = sim.layer_cycles.iter().find(|(name, _)| name == layer)?;
            Some((*cycles as f64, *ms))
        })
        .unzip();
    let rank_corr = spearman(&cycles, &measured);
    report.line(format!(
        "simulator (unvalidated: no hardware reference in the repo): speedup {:.3}x, energy gain {:.3}x \
         over the dense baseline; the paper reports 2.7x / 2.2x (context only). Spearman rank correlation of \
         per-conv simulated cycles with measured engine ms over {} layers: {}",
        sim.speedup(),
        sim.energy_gain(),
        cycles.len(),
        rank_corr.map_or("undefined (no engine spans)".to_string(), |r| format!("{r:.3}"))
    ));
    metrics.push(Metric::new("core.dataflow.capture_ms", median(&capture_ms), "ms"));
    metrics.push(Metric::new("sim.simulate_ms", median(&simulate_ms), "ms"));
    metrics.push(Metric::new(
        "sim.sparse_cycles",
        sim.sparse.total_cycles as f64,
        "cycles",
    ));
    metrics.push(Metric::new(
        "sim.dense_cycles",
        sim.dense.total_cycles as f64,
        "cycles",
    ));
    metrics.push(Metric::new("sim.rank_corr", rank_corr.unwrap_or(0.0), "rho"));
}
