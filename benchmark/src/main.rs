//! `swap-benchmark`: the outside-in benchmark of the atomic-swap exchange.
//!
//! ```text
//! swap-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last stdout line is the result
//!     object BENCHMARK.json describes (end-to-end metrics with --trace 0,
//!     per-layer metrics with --trace 1)
//! swap-benchmark run   [--workload NAME] [--seed N] [--seconds S]
//!     every workload (or one), each in a process of its own, untraced;
//!     prints each end-to-end metric; exits 1 on a failed check
//! swap-benchmark trace [--workload NAME] [--seed N] [--seconds S]
//!     the same plus a traced run each: per-layer metrics, span files, and
//!     the tracing overhead
//! swap-benchmark agree [--workload NAME] [--seed N] [--seconds S]
//!     two sets of ten seeds per workload on this build; fails unless every
//!     spread and every second median is within the metric's bound
//! ```

mod probes;
mod span;
mod spec;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use probes::Values;
use span::{Recorder, NO_PARENT};
use spec::{Metric, Spec};
use stats::{median, percentile, quartiles, spread, within_bound, worsening, Better};
use swap_store::json::JsonValue;
use workload::{Inputs, Repetition, Shape, Tally, Workload};

/// What is kept of one finished repetition.
#[derive(Debug)]
struct Summary {
    swaps: u64,
    samples: usize,
    swaps_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    recovery_ms: Option<f64>,
    verify_integrity_ms: f64,
}

/// `setup_s` is the median over at least this many set-ups, and over as
/// many as fit into [`SETUP_MIN_S`]: `fresh_rings` mints nothing ahead of its
/// window, and a sub-millisecond set-up holds no bound on three samples.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_S: f64 = 0.5;
/// Seeds per set of `agree`: what the acceptance check runs.
const AGREE_SEEDS: u64 = 10;
/// A run measures at least this many repetitions, however slow.
const MIN_REPETITIONS: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("swap-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// The flags every mode shares, all optional on the command line.
#[derive(Debug, Clone)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String], spec: &Spec) -> Result<Options, String> {
    let mut options = Options { workload: None, seed: 1, seconds: spec.run_seconds, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                options.workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(options)
}

/// `Ok(true)` when everything ran and every check passed.
fn run_cli(args: &[String]) -> Result<bool, String> {
    let spec = spec::load();
    match args.first().map(String::as_str) {
        Some("run") => many(&parse_options(&args[1..], &spec)?, false),
        Some("trace") => many(&parse_options(&args[1..], &spec)?, true),
        Some("agree") => agree(&parse_options(&args[1..], &spec)?, &spec),
        Some(flag) if flag.starts_with("--") => {
            let options = parse_options(args, &spec)?;
            let workload = options.workload.ok_or("--workload is required")?;
            Ok(single(workload, &options, &spec))
        }
        _ => Err("usage: swap-benchmark [run|trace|agree] [--workload NAME] [--seed N] \
                  [--seconds S] [--trace 0|1]"
            .into()),
    }
}

// ─── One workload, in this process ───────────────────────────────────────

/// Scratch space for journals and span files: beside the executable, so it
/// lands in the build directory of whichever checkout is being measured.
fn work_dir(workload: Workload) -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let beside = exe.parent().expect("an executable lives in a directory");
    beside.join("swap-benchmark-work").join(format!("{}-{}", workload.name(), std::process::id()))
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn single(workload: Workload, options: &Options, spec: &Spec) -> bool {
    let threads = workload::pool_threads();
    let work = work_dir(workload);
    let store = work.join("store");
    let mut tally = Tally::default();
    println!(
        "workload {} seed {} seconds {} trace {} pool threads {threads} of {} cores",
        workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // Set-up, several times over: inputs from the seed, identities minted,
    // the exchange opened and, on `durable_deep_book`, its book preloaded —
    // all that happens before a window's first timed call.
    let mut setups = Vec::new();
    let mut inputs;
    let setting_up = Instant::now();
    loop {
        let clock = Instant::now();
        inputs = Inputs::generate(workload, Shape::FULL, options.seed, threads);
        let opened = workload::opened_exchange(&inputs, threads, &store, &mut tally);
        setups.push(clock.elapsed().as_secs_f64());
        drop(opened);
        if setups.len() >= SETUP_REPEATS && setting_up.elapsed().as_secs_f64() >= SETUP_MIN_S {
            break;
        }
    }
    // One unmeasured repetition leaves the allocator, the page cache and
    // the scheduler warm, and gives the report every later one must repeat.
    let mut unrecorded = Recorder::new(false);
    let reference = workload::run_repetition(&inputs, threads, &store, &mut unrecorded, &mut tally);

    // Repetitions are folded into per-repetition summaries as they finish,
    // so memory does not grow with how many of them fit into the run.
    let mut rec = Recorder::new(options.trace);
    let mut summaries: Vec<Summary> = Vec::new();
    let mut last = reference;
    let clock = Instant::now();
    while summaries.len() < MIN_REPETITIONS || clock.elapsed().as_secs_f64() < options.seconds {
        let mut rep = workload::run_repetition(&inputs, threads, &store, &mut rec, &mut tally);
        // Same inputs, separate simulated world: the report must repeat.
        tally.check(rep.report == last.report, || {
            format!("repetition {} reported differently from the one before", summaries.len())
        });
        rep.latencies_ns.sort_unstable();
        let ms = |p: f64| percentile(&rep.latencies_ns, p).map_or(0.0, |ns| ns as f64 / 1e6);
        summaries.push(Summary {
            swaps: rep.swaps,
            samples: rep.latencies_ns.len(),
            swaps_per_s: rep.swaps as f64 / (rep.window_ns as f64 / 1e9),
            p50_ms: ms(50.0),
            p99_ms: ms(99.0),
            recovery_ms: rep.recovery.map(|(ns, _)| ns as f64 / 1e6),
            verify_integrity_ms: rep.verify_integrity_ns as f64 / 1e6,
        });
        last = rep;
    }
    let measured_s = clock.elapsed().as_secs_f64();

    let over = |f: fn(&Summary) -> Option<f64>| {
        median(&summaries.iter().filter_map(f).collect::<Vec<_>>())
    };
    let mut metrics = Values::new();
    let swaps = (last.report.swaps_settled + last.report.swaps_refunded) as f64;
    if options.trace {
        metrics = layer_metrics(&inputs, &last, &summaries, &rec, &work, spec, &mut tally);
        let spans = work.join(format!("{}.spans.csv", workload.name()));
        match rec.write_csv(&spans) {
            Ok(()) => println!("{} spans written to {}", rec.spans().len(), spans.display()),
            Err(e) => tally.check(false, || format!("span file not written: {e}")),
        }
    } else {
        metrics.insert("swaps_per_s", over(|s| Some(s.swaps_per_s)).expect("repetitions ran"));
        metrics.insert("settle_latency_p50_ms", over(|s| Some(s.p50_ms)).expect("repetitions ran"));
        metrics.insert("settle_latency_p99_ms", over(|s| Some(s.p99_ms)).expect("repetitions ran"));
        metrics.insert("sim_ticks_per_swap", last.report.wall_ticks as f64 / swaps);
        metrics.insert("chain_bytes_per_swap", last.report.storage.total_bytes() as f64 / swaps);
        metrics.insert("peak_rss_mb", peak_rss_mb());
        metrics.insert("setup_s", median(&setups).expect("set-ups ran"));
    }
    // The issue's other two end-to-end metrics. BENCHMARK.json lists them
    // per layer, because it can bound only what is never 0 on any workload.
    metrics.insert(spec::RECOVERY_MS, over(|s| s.recovery_ms).unwrap_or(0.0));
    metrics.insert("failed_share", tally.failed as f64 / tally.attempted.max(1) as f64);
    // Only a traced run leaves something behind: its span file.
    let _ = std::fs::remove_dir_all(if options.trace { &store } else { &work });

    println!(
        "{} repetitions in {measured_s:.2} s: {} swaps, {} latency samples ({} a repetition); \
         {} set-ups",
        summaries.len(),
        summaries.iter().map(|s| s.swaps).sum::<u64>(),
        summaries.iter().map(|s| s.samples).sum::<usize>(),
        summaries[0].samples,
        setups.len(),
    );
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    let table = if options.trace { &spec.per_layer } else { &spec.end_to_end };
    let row = |name: &str, value: f64, unit: &str| println!("  {name:<40} {value:>16.4} {unit}");
    // An untraced run prints them too, though its result object holds
    // BENCHMARK.json's `end_to_end` list and nothing else.
    if !options.trace {
        if workload == Workload::DurableDeepBook {
            row(spec::RECOVERY_MS, metrics[spec::RECOVERY_MS], "ms");
        }
        row("failed_share", metrics["failed_share"], "ratio");
    }
    let rendered: Vec<String> = table
        .iter()
        .map(|m| {
            let value = metrics.get(m.name.as_str()).copied().unwrap_or_else(|| {
                tally.check(false, || format!("metric {} was not measured", m.name));
                0.0
            });
            row(&m.name, value, &m.unit);
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        rendered.join(", ")
    );
    correct
}

// ─── Per-layer metrics of a traced run ────────────────────────────────────

/// Which `exchange.*` metric a leaf span's time belongs to.
fn bucket(span_name: &str) -> Option<&'static str> {
    Some(match span_name {
        "submit" | "submit_seeded" | "resubmit" | "cancel" => "exchange.submit_s",
        "step.admit" => "exchange.admit_s",
        "step.provision" => "exchange.provision_s",
        "step.enqueue" => "exchange.enqueue_s",
        "step.await" => "exchange.await_s",
        "step.retire" => "exchange.retire_s",
        "sync" => "exchange.sync_s",
        "recover" => "exchange.recover_s",
        _ => return None,
    })
}

/// Every metric [`bucket`] names; one no span fell into is reported as 0.
const BUCKETS: [&str; 8] = [
    "exchange.submit_s",
    "exchange.admit_s",
    "exchange.provision_s",
    "exchange.enqueue_s",
    "exchange.await_s",
    "exchange.retire_s",
    "exchange.sync_s",
    "exchange.recover_s",
];

fn layer_metrics(
    inputs: &Inputs,
    rep: &Repetition,
    summaries: &[Summary],
    rec: &Recorder,
    work: &Path,
    spec: &Spec,
    tally: &mut Tally,
) -> Values {
    let mut metrics = Values::new();
    // (a) Driver spans: every call into the exchange, summed by what it did.
    for name in BUCKETS {
        metrics.insert(name, 0.0);
    }
    let spans = rec.spans();
    let self_ns = span::self_times(spans);
    let (mut window_ns, mut unattributed_ns, mut retire_max_ns) = (0u64, 0u64, 0u64);
    for (s, own) in spans.iter().zip(&self_ns) {
        let ns = s.end_ns - s.start_ns;
        match (s.name, bucket(s.name)) {
            ("repetition", _) => {
                window_ns += ns;
                unattributed_ns += own;
            }
            // A wave's own time is the driver's bookkeeping between calls.
            ("wave", _) => unattributed_ns += own,
            (_, Some(metric)) => {
                *metrics.entry(metric).or_insert(0.0) += ns as f64 / 1e9;
                if s.name == "step.retire" {
                    retire_max_ns = retire_max_ns.max(ns);
                }
            }
            // An unbucketed call inside the window (the quiescent step
            // that ends a repetition, a failed step) is named in the span
            // file but owned by no layer metric.
            _ if s.parent != NO_PARENT => unattributed_ns += ns,
            _ => {}
        }
    }
    let share = 1.0 - unattributed_ns as f64 / window_ns as f64;
    metrics.insert("exchange.retire_max_ms", retire_max_ns as f64 / 1e6);
    metrics.insert("driver.self_s", unattributed_ns as f64 / 1e9);
    metrics.insert("driver.attributed_share", share);
    let over = |f: fn(&Summary) -> Option<f64>| {
        median(&summaries.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    metrics.insert("driver.traced_swaps_per_s", over(|s| Some(s.swaps_per_s)));
    tally.check(share >= 0.95, || {
        format!("only {:.1} % of the timed windows is attributed to exchange spans", share * 100.0)
    });
    println!(
        "share of the timed windows ({:.3} s), by what the driver was doing:",
        window_ns as f64 / 1e9
    );
    for m in spec.per_layer.iter().filter(|m| m.unit == "s" && m.name != "exchange.recover_s") {
        let seconds = metrics.get(m.name.as_str()).copied().unwrap_or(0.0);
        println!("  {:<28} {:>6.2} %", m.name, seconds / (window_ns as f64 / 1e9) * 100.0);
    }

    // (c) Counts, from the reports and files of the repetitions.
    let report = &rep.report;
    let swaps = (report.swaps_settled + report.swaps_refunded) as f64;
    let per_swap = |total: u64| total as f64 / swaps;
    let sum =
        |f: fn(&swap_core::RunMetrics) -> u64| report.swaps.iter().map(|s| f(&s.metrics)).sum();
    metrics.insert("exchange.epochs", report.epochs as f64);
    metrics.insert("exchange.swaps_per_epoch", swaps / report.epochs as f64);
    metrics.insert("exchange.executing_peak", report.executing_peak as f64);
    let replayed = rep.recovery.map(|(_, stats)| stats);
    metrics.insert("store.records_replayed", replayed.map_or(0.0, |s| s.records_replayed as f64));
    metrics.insert("store.commands_replayed", replayed.map_or(0.0, |s| s.commands_replayed as f64));
    metrics.insert("store.wal_bytes_end", rep.wal_bytes as f64);
    metrics.insert("store.snapshot_bytes", rep.snapshot_bytes as f64);
    let epochs = rep.clear_stats.len().max(1) as f64;
    let examined: u64 = rep.clear_stats.iter().map(|s| s.offers_examined).sum();
    let matched: u64 = rep.clear_stats.iter().map(|s| s.offers_matched).sum();
    let cycles: u64 = rep.clear_stats.iter().map(|s| s.cycles_emitted).sum();
    metrics.insert("clearing.examined_per_epoch", examined as f64 / epochs);
    metrics.insert("clearing.cycles_per_epoch", cycles as f64 / epochs);
    metrics.insert("clearing.examined_per_matched", examined as f64 / matched.max(1) as f64);
    metrics.insert("identity.leaves_per_swap", per_swap(report.leaves_leased));
    metrics.insert(
        "identity.minted",
        (inputs.identities_minted as u64 + report.identities_minted) as f64,
    );
    let overlap =
        report.mints_overlapping_execution as f64 / report.identities_minted.max(1) as f64;
    metrics.insert("pool.mint_overlap_share", overlap);
    metrics.insert("engine.rounds_per_swap", per_swap(sum(|m| m.rounds)));
    metrics.insert("engine.tx_per_swap", per_swap(report.tx_executed));
    metrics.insert("engine.rejected_calls", sum(|m| m.rejected_calls) as f64);
    metrics.insert("engine.unlock_bytes_per_swap", per_swap(sum(|m| m.unlock_bytes)));
    metrics.insert("chain.tx_rolled_back", report.tx_rolled_back as f64);
    metrics.insert("chain.ledger_chains", rep.ledger_chains as f64);
    metrics.insert("chain.verify_integrity_ms", over(|s| Some(s.verify_integrity_ms)));

    // (b) Probes: direct timed calls into each layer.
    probes::run(inputs.seed, work, &mut metrics, tally);
    metrics.insert(
        "pool.scaling_2v1",
        probes::pool_scaling(inputs.seed, &work.join("scaling"), tally),
    );
    let unit_ns = metrics["crypto.sha256_pair_ns"];
    println!("timings as multiples of crypto.sha256_pair_ns ({unit_ns:.1} ns):");
    for m in &spec.per_layer {
        let to_ns = match m.unit.as_str() {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            _ => continue,
        };
        if let Some(value) = metrics.get(m.name.as_str()) {
            println!("  {:<40} {:>14.1} x", m.name, value * to_ns / unit_ns);
        }
    }
    metrics
}

// ─── Several workloads, a process each ───────────────────────────────────

/// One child run's result.
#[derive(Debug)]
struct RunResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process of this executable and parses what
/// it printed.
fn spawn(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    let doc = swap_store::json::parse(last).map_err(|e| {
        format!(
            "{} (exit {:?}) printed no result: {e:?}\n{}",
            workload.name(),
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("result lacks {key:?}"));
    let JsonValue::Object(entries) = field("metrics")? else {
        return Err("metrics is not an object".into());
    };
    let mut metrics: BTreeMap<String, f64> = entries
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    // What the run printed beyond its result object (`recovery_ms` and
    // `failed_share` of an untraced run) is read from its `name value unit`
    // rows.
    for line in lines {
        if echo {
            println!("    {line}");
        }
        if let [name, value, _unit] = line.split_whitespace().collect::<Vec<_>>()[..] {
            if let Ok(value) = value.parse() {
                metrics.entry(name.to_string()).or_insert(value);
            }
        }
    }
    Ok(RunResult { correct: matches!(field("correct")?, JsonValue::Bool(true)), metrics })
}

/// `run` and `trace`: each chosen workload untraced (and then traced) in a
/// process of its own.
fn many(options: &Options, trace: bool) -> Result<bool, String> {
    let chosen: Vec<Workload> = options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for workload in chosen {
        println!("== {} (seed {}, {} s) ==", workload.name(), options.seed, options.seconds);
        let plain = spawn(workload, options.seed, options.seconds, false, true)?;
        ok &= plain.correct;
        if trace {
            let traced = spawn(workload, options.seed, options.seconds, true, true)?;
            let (off, on) =
                (plain.metrics["swaps_per_s"], traced.metrics["driver.traced_swaps_per_s"]);
            println!(
                "  tracing overhead: {:.2} % of swaps_per_s ({off:.1} untraced, {on:.1} traced)",
                (off - on) / off * 100.0
            );
            ok &= traced.correct;
        }
    }
    println!("{}", if ok { "all checks passed" } else { "CHECKS FAILED" });
    Ok(ok)
}

/// The end-to-end metrics `agree` judges on a workload, with the bound each
/// must hold: BENCHMARK.json's, exact for the counts, plus the two that
/// file cannot bound.
fn judged(workload: Workload, spec: &Spec) -> Vec<Metric> {
    let mut list = spec.end_to_end.clone();
    for m in &mut list {
        if spec::EXACT.contains(&m.name.as_str()) {
            m.bound = 0.0;
        }
    }
    let mut extra = |name: &str, unit: &str, bound| {
        list.push(Metric { name: name.into(), unit: unit.into(), better: Better::Lower, bound });
    };
    if workload == Workload::DurableDeepBook {
        extra(spec::RECOVERY_MS, "ms", spec::RECOVERY_BOUND);
    }
    extra("failed_share", "ratio", 0.0);
    list
}

/// Two sets of runs on this build, judged as the acceptance check judges
/// them: per workload and end-to-end metric, the interquartile spread of
/// each set as a share of its median must stay within the metric's bound
/// (`setup_s` excepted), and the second set's median must not be worse than
/// the first's by more than the bound.
fn agree(options: &Options, spec: &Spec) -> Result<bool, String> {
    let chosen: Vec<Workload> = options.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut sets: Vec<BTreeMap<(usize, String), Vec<f64>>> = vec![BTreeMap::new(); 2];
    let mut ok = true;
    for (n, set) in sets.iter_mut().enumerate() {
        for (w, workload) in chosen.iter().enumerate() {
            for seed in options.seed..options.seed + AGREE_SEEDS {
                let result = spawn(*workload, seed, options.seconds, false, false)?;
                if !result.correct {
                    println!("set {} {} seed {seed}: checks FAILED", n + 1, workload.name());
                    ok = false;
                }
                for m in judged(*workload, spec) {
                    let value = result.metrics.get(&m.name).ok_or(format!("{} missing", m.name))?;
                    set.entry((w, m.name)).or_default().push(*value);
                }
            }
            eprintln!("set {} {} done", n + 1, workload.name());
        }
    }
    println!(
        "{:<18} {:<22} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median 1", "median 2", "worse %", "iqr1 %", "iqr2 %", "bound"
    );
    for (w, workload) in chosen.iter().enumerate() {
        for m in judged(*workload, spec) {
            let key = (w, m.name.clone());
            let (a, b) = (&sets[0][&key], &sets[1][&key]);
            let (m1, m2) = (median(a).expect("runs"), median(b).expect("runs"));
            let (s1, s2) = (spread(a).unwrap_or(0.0), spread(b).unwrap_or(0.0));
            let steady = m.name == "setup_s" || (s1 <= m.bound && s2 <= m.bound);
            let held = within_bound(m.better, m.bound, m1, m2);
            ok &= steady && held;
            println!(
                "{:<18} {:<22} {m1:>12.4} {m2:>12.4} {:>8.2} {:>8.2} {:>8.2} {:>6.1}  {}",
                workload.name(),
                m.name,
                worsening(m.better, m1, m2) * 100.0,
                s1 * 100.0,
                s2 * 100.0,
                m.bound * 100.0,
                match (steady, held) {
                    (true, true) => "ok",
                    (false, _) => "SPREAD",
                    (_, false) => "DRIFT",
                }
            );
            if let (Some(qa), Some(qb)) = (quartiles(a), quartiles(b)) {
                println!("{:<41} quartiles {qa:.4?} | {qb:.4?}", "");
            }
        }
    }
    println!("{}", if ok { "the two sets agree" } else { "THE TWO SETS DISAGREE" });
    Ok(ok)
}
