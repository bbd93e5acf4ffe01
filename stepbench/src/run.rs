//! The untraced run: end-to-end metrics of a closed loop of training
//! steps, with the output checks that count as failures.

use crate::util::{median, peak_rss_mb, percentile, Fnv, Metric};
use crate::workload::{self, Setup, Workload, WARMUP_STEPS};
use crate::Report;
use sparsetrain_checkpoint::{decode_snapshot, encode_snapshot, Snapshot};
use sparsetrain_core::dataflow::NetworkTrace;
use sparsetrain_nn::train::Trainer;
use sparsetrain_nn::Layer;
use sparsetrain_sim::baseline::simulate_baseline;
use sparsetrain_sim::{ArchConfig, Machine, SimReport};
use sparsetrain_sparse::Plan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median, and the timed rounds
/// alternate among them.
const SETUP_REPS: usize = 3;

/// Timed steps per round. Every round resumes the post-warm-up snapshot
/// and trains the same batches, so each round repeats the same work
/// bitwise (the step time falls as training proceeds, so a run timing
/// ever-later steps would measure a moving target).
pub const ROUND_STEPS: usize = 25;

/// Rounds every run times at least: 200 steps, so that ten lie beyond the
/// 95th percentile.
const MIN_ROUNDS: usize = 8;

/// Checkpoint round trips after each round; `checkpoint_ms` is the
/// fastest of all of them (spread over the run, like the steps).
const CHECKPOINT_REPS: usize = 10;

/// Training samples simulated per run (one trace each, averaged).
const SIM_SAMPLES: usize = 8;

/// The simulator's view of the training samples a run traced.
pub struct Simulated {
    /// The first sample's trace.
    pub trace: NetworkTrace,
    /// SparseTrain and the dense baseline, averaged over the samples.
    pub sparse: SimReport,
    pub dense: SimReport,
    /// Each layer's SparseTrain cycles summed over the samples, in forward
    /// order.
    pub layer_cycles: Vec<(String, u64)>,
}

impl Simulated {
    pub fn speedup(&self) -> f64 {
        self.sparse.speedup_over(&self.dense)
    }

    pub fn energy_gain(&self) -> f64 {
        self.sparse.energy_efficiency_over(&self.dense)
    }
}

/// Captures a dataflow trace of sample `start` of the batch trained at
/// global step `step`.
pub fn capture(setup: &mut Setup, w: &Workload, step: usize, start: usize) -> NetworkTrace {
    let Setup { batches, trainer, .. } = setup;
    trainer.capture_trace_at(
        &batches[step % batches.len()],
        start,
        w.model.name(),
        "cifar10-like",
    )
}

/// Traces [`SIM_SAMPLES`] samples from the batches of global steps
/// `step`, `step + 1`, … and simulates each on SparseTrain and on the dense
/// baseline.
pub fn simulate(setup: &mut Setup, w: &Workload, step: usize) -> Simulated {
    let traces = (0..SIM_SAMPLES)
        .map(|j| capture(setup, w, step + j / w.batch, j % w.batch))
        .collect();
    simulate_traces(traces)
}

/// Simulates each trace on SparseTrain and on the dense baseline.
fn simulate_traces(traces: Vec<NetworkTrace>) -> Simulated {
    let machine = Machine::new(ArchConfig::paper_default());
    let mut sparse = Vec::with_capacity(traces.len());
    let mut dense = Vec::with_capacity(traces.len());
    let mut layer_cycles: Vec<(String, u64)> = Vec::new();
    for trace in &traces {
        let report = machine.simulate(trace);
        for layer in &report.layers {
            match layer_cycles.iter_mut().find(|(name, _)| *name == layer.name) {
                Some((_, cycles)) => *cycles += layer.total_cycles(),
                None => layer_cycles.push((layer.name.clone(), layer.total_cycles())),
            }
        }
        sparse.push(report);
        dense.push(simulate_baseline(&machine, trace));
    }
    Simulated {
        trace: traces.into_iter().next().expect("at least one sample"),
        sparse: SimReport::mean_of(&sparse),
        dense: SimReport::mean_of(&dense),
        layer_cycles,
    }
}

/// The untimed reference round: [`ROUND_STEPS`] steps from the set-up's
/// current state, with a trace captured before every
/// `ROUND_STEPS / SIM_SAMPLES`-th step, so that the simulation averages
/// over the round's model states rather than one. Returns the losses
/// (`None` where a step failed) and the simulation; failures count into
/// `report`.
fn reference_round(setup: &mut Setup, w: &Workload, report: &mut Report) -> (Vec<Option<f64>>, Simulated) {
    let every = ROUND_STEPS / SIM_SAMPLES;
    let mut losses = Vec::with_capacity(ROUND_STEPS);
    let mut traces = Vec::with_capacity(SIM_SAMPLES);
    for step in 0..ROUND_STEPS {
        let global = WARMUP_STEPS + step;
        if step % every == every - 1 && traces.len() < SIM_SAMPLES {
            // Capturing moves the trainer's state; resuming the state from
            // before it keeps this round's steps those of the timed rounds.
            let before = setup.trainer.snapshot();
            traces.push(capture(setup, w, global, traces.len() % w.batch));
            report.attempted += 1;
            if let Err(e) = setup.trainer.resume(&before) {
                report.fail(format!("resuming after a trace capture: {e}"));
            }
        }
        report.attempted += 1;
        let batch = setup.batch(global).clone();
        match catch_unwind(AssertUnwindSafe(|| setup.trainer.train_epoch(&batch))) {
            Ok(stats) if stats.loss.is_finite() => losses.push(Some(stats.loss)),
            Ok(stats) => {
                report.fail(format!("reference step {step}: non-finite loss {}", stats.loss));
                losses.push(None);
            }
            Err(_) => {
                report.fail(format!("reference step {step}: panicked"));
                losses.push(None);
            }
        }
    }
    (losses, simulate_traces(traces))
}

/// FNV hash of every parameter's bit pattern.
pub fn param_hash(trainer: &mut Trainer) -> u64 {
    let mut h = Fnv::new();
    trainer
        .network_mut()
        .visit_params(&mut |w, _| w.iter().for_each(|v| h.bytes(&v.to_bits().to_le_bytes())));
    h.finish()
}

/// One checkpoint round trip through memory, in phases (ms): snapshot,
/// encode, decode, resume. Returns the encoded size too, or the reason the
/// round trip failed or did not restore the same state.
pub fn checkpoint_round_trip(trainer: &mut Trainer) -> Result<([f64; 4], usize), String> {
    let t0 = Instant::now();
    let snap = trainer.snapshot();
    let t1 = Instant::now();
    let bytes = encode_snapshot(&snap).map_err(|e| format!("encode: {e}"))?;
    let t2 = Instant::now();
    let decoded = decode_snapshot(&bytes).map_err(|e| format!("decode: {e}"))?;
    let t3 = Instant::now();
    trainer.resume(&decoded).map_err(|e| format!("resume: {e}"))?;
    let t4 = Instant::now();
    if decoded != snap {
        return Err("decoded snapshot differs from the encoded one".into());
    }
    let again = encode_snapshot(&trainer.snapshot()).map_err(|e| format!("re-encode: {e}"))?;
    if again != bytes {
        return Err("resumed trainer snapshots to different bytes".into());
    }
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(([ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t3, t4)], bytes.len()))
}

/// The fields of a run that depend only on the build and the seed.
struct Deterministic {
    losses: Vec<f64>,
    densities: Vec<(String, f64)>,
    sim: Simulated,
}

impl Deterministic {
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for loss in &self.losses {
            h.u64(loss.to_bits());
        }
        for (site, density) in &self.densities {
            h.bytes(site.as_bytes());
            h.u64(density.to_bits());
        }
        h.u64(self.sim.sparse.total_cycles);
        h.u64(self.sim.dense.total_cycles);
        h.finish()
    }
}

/// One round of timed steps through `Trainer::train_epoch`.
pub struct Round {
    /// Step time of every step that succeeded, ms.
    pub ms: Vec<f64>,
    /// Loss of every step, `None` where the step failed.
    pub losses: Vec<Option<f64>>,
}

/// Trains [`ROUND_STEPS`] steps from the trainer's current state, timing
/// each; failed steps (panics, non-finite losses) count into `report`.
pub fn untraced_round(setup: &mut Setup, report: &mut Report) -> Round {
    let Setup { batches, trainer, .. } = setup;
    let mut round = Round {
        ms: Vec::with_capacity(ROUND_STEPS),
        losses: Vec::with_capacity(ROUND_STEPS),
    };
    for step in 0..ROUND_STEPS {
        let batch = &batches[(WARMUP_STEPS + step) % batches.len()];
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| trainer.train_epoch(batch)));
        let ms = started.elapsed().as_secs_f64() * 1e3;
        report.attempted += 1;
        match outcome {
            Ok(stats) if stats.loss.is_finite() => {
                round.ms.push(ms);
                round.losses.push(Some(stats.loss));
            }
            Ok(stats) => {
                report.fail(format!("step {step}: non-finite loss {}", stats.loss));
                round.losses.push(None);
            }
            Err(_) => {
                report.fail(format!("step {step}: panicked"));
                round.losses.push(None);
            }
        }
    }
    round
}

/// Resumes `snap` for the next round; a failure is counted and stops the
/// rounds.
pub fn restart(trainer: &mut Trainer, snap: &Snapshot, report: &mut Report) -> bool {
    report.attempted += 1;
    match trainer.resume(snap) {
        Ok(()) => true,
        Err(e) => {
            report.fail(format!("resuming the round snapshot: {e}"));
            false
        }
    }
}

/// One timed round and the checkpoint round trips that followed it.
struct Timed {
    setup: usize,
    step_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
}

/// Runs the untraced benchmark: set-up (several times), the timed rounds,
/// then the output checks and the off-step metrics.
pub fn run(w: &Workload, seed: u64, seconds: f64, process_start: Instant, report: &mut Report) {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_REPS {
        let started = if rep == 0 { process_start } else { Instant::now() };
        setups.push(workload::setup(w, seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    report.line(format!("setup_s reps: {setup_s:.3?}"));
    let plans: Vec<Plan> = setups
        .iter_mut()
        .filter_map(|s| s.trainer.context_mut().plan().cloned())
        .collect();
    for (i, plan) in plans.iter().enumerate() {
        report.plan(&format!("set-up {}/{}", i + 1, plans.len()), plan);
    }
    if let Some(first) = plans.first() {
        let flips = first
            .cells()
            .filter(|&(layer, stage, handle)| plans.iter().any(|p| p.get(layer, stage) != Some(handle)))
            .count();
        report.line(format!(
            "plan cells that differ across the set-ups: {flips} of {}",
            first.len()
        ));
    }

    let starts: Vec<Snapshot> = setups.iter().map(|s| s.trainer.snapshot()).collect();
    // Untimed: the deterministic fields, from set-up 1's reference round.
    let (losses, sim) = reference_round(&mut setups[0], w, report);
    let det = Deterministic {
        losses: losses.iter().map(|l| l.unwrap_or(f64::NAN)).collect(),
        densities: setups[0].trainer.grad_densities(),
        sim,
    };

    // Rounds go round-robin over the set-ups, so that the timed steps
    // sample several independent probe races: every candidate engine is
    // bitwise identical to scalar, so the plan moves the time, never the
    // losses.
    let mut timed: Vec<Timed> = Vec::new();
    let mut timed_ms = 0.0;
    while timed.len() < MIN_ROUNDS || timed_ms < seconds * 1e3 {
        let i = timed.len() % setups.len();
        if !restart(&mut setups[i].trainer, &starts[i], report) {
            break;
        }
        let round = untraced_round(&mut setups[i], report);
        timed_ms += round.ms.iter().sum::<f64>();
        if round.losses != losses {
            report.fail(format!(
                "timed round {} lost differently from the reference round on the same batches",
                timed.len() + 1
            ));
        }
        let mut checkpoint_ms = Vec::with_capacity(CHECKPOINT_REPS);
        for _ in 0..CHECKPOINT_REPS {
            report.attempted += 1;
            match checkpoint_round_trip(&mut setups[i].trainer) {
                Ok((phases, _)) => checkpoint_ms.push(phases.iter().sum::<f64>()),
                Err(e) => report.fail(format!("checkpoint: {e}")),
            }
        }
        timed.push(Timed {
            setup: i,
            step_ms: round.ms,
            checkpoint_ms,
        });
    }
    let steps_ms: Vec<f64> = timed.iter().flat_map(|r| r.step_ms.iter().copied()).collect();
    let (p95, beyond) = percentile(&steps_ms, 0.95);
    report.line(format!(
        "timed {} rounds of {ROUND_STEPS} steps in {:.2} s: {} steps, {beyond} of them beyond p95",
        timed.len(),
        timed_ms / 1e3,
        steps_ms.len(),
    ));
    for i in 0..setups.len() {
        let medians: Vec<f64> = timed
            .iter()
            .filter(|r| r.setup == i)
            .map(|r| median(&r.step_ms))
            .collect();
        report.line(format!(
            "set-up {}/{} round medians (ms): {medians:.2?}",
            i + 1,
            setups.len()
        ));
    }
    let checkpoint_ms = timed
        .iter()
        .flat_map(|r| r.checkpoint_ms.iter().copied())
        .fold(f64::INFINITY, f64::min);

    let setup = &mut setups[0];
    let start = &starts[0];
    // The first timed batch must match the scalar engine bitwise (the
    // planner's parity contract): one more untimed step from the start on
    // each engine.
    if w.name == "alexnet-auto" && restart(&mut setup.trainer, start, report) {
        report.attempted += 1;
        let ok = catch_unwind(AssertUnwindSafe(|| {
            let mut scalar = Trainer::new(w.build_model(), w.config(seed, Some("scalar")));
            let batch = setup.batch(WARMUP_STEPS).clone();
            let auto = setup.trainer.train_epoch(&batch);
            scalar.resume(start).is_ok() && {
                let reference = scalar.train_epoch(&batch);
                reference.loss.to_bits() == auto.loss.to_bits()
                    && param_hash(&mut scalar) == param_hash(&mut setup.trainer)
            }
        }))
        .unwrap_or(false);
        if ok {
            report.line("parity: first timed batch matches the scalar engine bitwise".into());
        } else {
            report.fail("parity: first timed batch differs from the scalar engine".into());
        }
    }

    let digest = det.digest();
    let kept: Vec<f64> = det
        .densities
        .iter()
        .filter(|(site, _)| site.contains("prune"))
        .map(|(_, d)| *d)
        .collect();
    report.line(format!(
        "reference round ({ROUND_STEPS} steps): mean loss {:.4}, mean kept gradient density {:.4} over {} prune sites",
        det.losses.iter().sum::<f64>() / det.losses.len() as f64,
        kept.iter().sum::<f64>() / kept.len().max(1) as f64,
        kept.len()
    ));
    report.line(format!(
        "digest: {digest:016x} (losses of {} steps, {} density sites, simulated cycles)",
        det.losses.len(),
        det.densities.len()
    ));
    report.check_digest(w, seed, digest);

    // The median step and the throughput are printed but not reported:
    // on a shared host they follow the other tenants' load, which comes and
    // goes over minutes, by more than any bound a regression gate could
    // use. The 95th percentile sits at the loaded level that nearly every
    // run reaches, so it moves with the program far more than with the
    // host.
    report.line(format!(
        "  {:<34} {:>16.6} samples/s (not gated: follows the host's load)",
        "samples_per_s",
        (steps_ms.len() * w.batch) as f64 * 1e3 / timed_ms
    ));
    report.line(format!(
        "  {:<34} {:>16.6} ms (not gated: follows the host's load)",
        "step_ms",
        median(&steps_ms)
    ));
    let final_loss = det.losses.iter().sum::<f64>() / det.losses.len() as f64;
    report.metrics = vec![
        Metric::new("step_ms_p95", p95, "ms"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("final_loss", final_loss, "nats"),
        Metric::new("sim_speedup", det.sim.speedup(), "x"),
        Metric::new("sim_energy_gain", det.sim.energy_gain(), "x"),
        Metric::new("checkpoint_ms", checkpoint_ms, "ms"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
}
