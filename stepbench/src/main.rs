//! `sparsetrain-stepbench`: the training-step benchmark.
//!
//! ```text
//! sparsetrain-stepbench --workload <alexnet-auto|alexnet-dense|resnet18-auto>
//!                       [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` times a closed loop of real training steps and prints the
//! end-to-end metrics; `--trace 1` replays the same set-up's frozen plan
//! under timing wrappers and prints the per-(layer, stage) breakdown. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this crate.

mod run;
mod trace;
mod util;
mod workload;

use sparsetrain_sparse::Plan;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use util::{Fnv, Metric};
use workload::Workload;

/// Environment variables the library reads that would silently change the
/// measured program: engine selection, a replayed plan file, fault
/// injection, on-disk checkpointing, and the experiment profile.
const GUARDED_ENV: [&str; 5] = [
    "SPARSETRAIN_ENGINE",
    "SPARSETRAIN_PLAN",
    "SPARSETRAIN_FAULTS",
    "SPARSETRAIN_CHECKPOINT_DIR",
    "SPARSETRAIN_PROFILE",
];

/// Where runs leave their logs (metrics, plan, digest), relative to the
/// working directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: sparsetrain-stepbench --workload <alexnet-auto|alexnet-dense|resnet18-auto> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 27.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Refuses to measure a program that an environment variable reconfigures.
fn guard_env() -> Result<(), String> {
    let set: Vec<&str> = GUARDED_ENV
        .into_iter()
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set; these change the measured program (unset them)",
            set.join(", ")
        ))
    }
}

/// What a run prints, checks and reports.
pub struct Report {
    lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn line(&mut self, line: String) {
        println!("{line}");
        self.lines.push(line);
    }

    /// Counts a failed operation or output check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.line(format!("FAILED: {why}"));
    }

    /// Records a frozen execution plan as text (kept out of the digest:
    /// which engine wins a probe race depends on timing).
    pub fn plan(&mut self, label: &str, plan: &Plan) {
        self.line(format!("frozen plan, {label} ({} cells):", plan.len()));
        for l in plan.to_text().lines() {
            self.line(format!("  plan| {l}"));
        }
    }

    /// Compares `digest` with the one an earlier run of this build left for
    /// the same workload and seed; a mismatch is a failure.
    pub fn check_digest(&mut self, w: &Workload, seed: u64, digest: u64) {
        let path = PathBuf::from(OUT_DIR).join(format!("{}-seed{seed}.digest", w.name));
        let build = build_id();
        let current = format!("build {build:016x}\ndigest {digest:016x}\n");
        match std::fs::read_to_string(&path) {
            Ok(previous) if previous == current => {
                self.line("digest: matches the earlier run of this build".into())
            }
            Ok(previous) if previous.starts_with(&format!("build {build:016x}\n")) => {
                self.fail(format!(
                    "digest {digest:016x} differs from the earlier run of this build ({})",
                    previous.trim().replace('\n', ", ")
                ));
            }
            _ => {
                let _ = std::fs::create_dir_all(OUT_DIR);
                if std::fs::write(&path, current).is_ok() {
                    self.line(format!("digest: recorded in {}", path.display()));
                }
            }
        }
    }
}

/// Identifies the running build: a hash of the executable's bytes.
fn build_id() -> u64 {
    let mut h = Fnv::new();
    if let Ok(bytes) = std::env::current_exe().and_then(std::fs::read) {
        h.bytes(&bytes);
    }
    h.finish()
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sparsetrain-stepbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = guard_env() {
        eprintln!("sparsetrain-stepbench: {e}");
        return ExitCode::from(2);
    }
    // One rayon thread, fixed before the first parallel call reads it.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    let w = args.workload;
    let mut report = Report {
        lines: Vec::new(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    report.line(format!(
        "# stepbench workload={} seed={} seconds={} trace={} rayon_threads={} engine={} batch={} commit={} src={} machine={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads(),
        w.engine_label(),
        w.batch,
        env!("STEPBENCH_COMMIT"),
        env!("STEPBENCH_SOURCE"),
        util::machine_fingerprint(),
    ));
    if args.trace {
        trace::run(&w, args.seed, args.seconds, &mut report);
    } else {
        run::run(&w, args.seed, args.seconds, process_start, &mut report);
    }
    let non_finite: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite ({})", m.name, m.value))
        .collect();
    for why in non_finite {
        report.fail(why);
    }
    let table: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit))
        .collect();
    for line in table {
        report.line(line);
    }
    let ops = format!(
        "  ops {} attempted, failed_ops {}",
        report.attempted, report.failed
    );
    report.line(ops);
    let json = util::result_json(
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        &report.metrics,
    );
    report.lines.push(json.clone());
    let log = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.log",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        let _ = std::fs::write(log, report.lines.join("\n") + "\n");
    }
    println!("{json}");
    ExitCode::SUCCESS
}
