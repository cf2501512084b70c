//! The SALSA stack benchmark.
//!
//! ```text
//! salsa-perfbench --workload <ingest-cms|mixed-cs|read-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the stack through
//! its public APIs (pipeline handles, the TCP server via `QueryClient`),
//! checks every answer it can against an unsharded reference sketch, and
//! prints one JSON object as its last line of standard output.  With
//! `--trace 0` it holds the end-to-end metrics; with `--trace 1` the run is
//! made twice, untraced and traced, and it holds the per-layer metrics and
//! the tracing overhead.  A failed correctness check exits with code 1.
//! Run it through `perfbench/run.py`, which builds it first.

#![forbid(unsafe_code)]

mod host;
mod layers;
mod openloop;
mod report;
mod sketch;
mod source;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::{result_json, valid_name, Figure, Report};
use trace::Tracer;
use workloads::Run;

/// End-to-end metrics every untraced run prints, in order.
pub const END_TO_END: [&str; 5] = [
    "ingest_mops",
    "query_p50_ms",
    "are",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run prints, in order.
pub const PER_LAYER: [&str; 23] = [
    "hash.bucket_ns",
    "core.add_unit_batch_ns",
    "core.merge_events_per_mitem",
    "sketches.update_batch_ns",
    "sketches.copy_ns",
    "sketches.merge_ns",
    "sketches.estimate_ns",
    "pipeline.extend_ns",
    "pipeline.drain_ms",
    "pipeline.shard_busy_share",
    "pipeline.shard_skew",
    "pipeline.queue_depth_max",
    "pipeline.snapshot_p50_ms",
    "pipeline.snapshot_p99_ms",
    "pipeline.snapshot_wait_ms",
    "pipeline.cache_hit_share",
    "serve.coalesced_share",
    "serve.shed_share",
    "serve.request_encode_ns",
    "serve.response_decode_ns",
    "serve.rtt_p50_ms",
    "gen.late_p99_ms",
    "trace.overhead",
];

/// The workloads, by the names the command line takes.
pub const WORKLOADS: [&str; 3] = ["ingest-cms", "mixed-cs", "read-hot"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--trace-out" => trace_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

/// Generator threads and connections a workload uses with `lanes` query
/// connections: `mixed-cs` pushes ingest from one more thread.
fn generator(workload: &str, lanes: usize) -> (usize, usize) {
    match workload {
        "mixed-cs" => (2, 1),
        _ => (lanes, lanes),
    }
}

fn run_workload(workload: &str, run: &Run) -> Report {
    let mut report = Report::default();
    match workload {
        "ingest-cms" => workloads::ingest_cms(run, &mut report),
        "mixed-cs" => workloads::mixed_cs(run, &mut report),
        _ => workloads::read_hot(run, &mut report),
    }
    report
}

fn pick(figures: &[Figure], names: &[&'static str], failures: &mut Vec<String>) -> Vec<Figure> {
    let mut out = Vec::new();
    for &name in names {
        match figures.iter().find(|f| f.name == name) {
            Some(f) if f.value.is_finite() && valid_name(f.name) => out.push(f.clone()),
            Some(f) => failures.push(format!("{name} measured {} {}", f.value, f.unit)),
            None => failures.push(format!("{name} was not measured")),
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("salsa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = host::cores();
    let lanes = cores.min(2);
    let (threads, connections) = generator(&args.workload, lanes);
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {cores}, \
         \"profile\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"gen_threads\": {threads}, \
         \"gen_connections\": {connections}, \"slo_p99_ms\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::profile(),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        workloads::SLO_P99_MS,
    );
    println!("META {meta}");
    if threads > cores || connections > cores {
        eprintln!("salsa-perfbench: {} needs {threads} generator threads and {connections} connections; this host has {cores} cores", args.workload);
        return ExitCode::from(2);
    }

    let seconds = args.seconds as f64;
    let ticks_before = host::cpu_ticks();
    let (mut report, figures, mut failures) = if args.trace {
        // End-to-end figures never come from a traced run: the untraced
        // half gives the baseline the tracing overhead is measured against.
        let plain = run_workload(
            &args.workload,
            &Run {
                seed: args.seed,
                seconds: seconds / 2.0,
                tracer: Tracer::off(),
                lanes,
            },
        );
        let tracer = Tracer::on();
        let run = Run {
            seed: args.seed,
            seconds: seconds / 2.0,
            tracer: tracer.clone(),
            lanes,
        };
        let mut traced = run_workload(&args.workload, &run);
        traced.layer("trace.overhead", traced.headline / plain.headline, "ratio");
        traced.notes.push(format!(
            "untraced headline {} / traced headline {}",
            plain.headline, traced.headline
        ));
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, trace::to_json(&tracer.spans())) {
                eprintln!("salsa-perfbench: cannot write the trace to {path}: {e}");
            }
        }
        let mut failures = plain.failures.clone();
        failures.extend(traced.failures.iter().cloned());
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        let figures = pick(&traced.layers, &PER_LAYER, &mut failures);
        (traced, figures, failures)
    } else {
        let mut report = run_workload(
            &args.workload,
            &Run {
                seed: args.seed,
                seconds,
                tracer: Tracer::off(),
                lanes,
            },
        );
        if let (Some(base), Some(peak)) = (report.rss_base_kb, host::peak_rss_kb()) {
            report.metric(
                "peak_rss_mb",
                peak.saturating_sub(base) as f64 / 1024.0,
                "MB",
            );
        }
        let mut failures = report.failures.clone();
        let figures = pick(&report.metrics, &END_TO_END, &mut failures);
        (report, figures, failures)
    };
    failures.dedup();
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks_before, host::cpu_ticks()) {
        // Figures from a run the hypervisor starved are not comparable.
        let share =
            steal1.saturating_sub(steal0) as f64 / total1.saturating_sub(total0).max(1) as f64;
        report
            .notes
            .push(format!("host steal share during the run: {share:.3}"));
    }

    for f in figures.iter().chain(&report.info) {
        eprintln!("  {:<32} {:>16.6} {}", f.name, f.value, f.unit);
    }
    eprintln!("  attempted {} failed {}", report.attempted, report.failed);
    for note in &report.notes {
        eprintln!("  note: {note}");
    }
    for failure in &failures {
        eprintln!("  CHECK FAILED: {failure}");
    }
    let correct = failures.is_empty();
    println!(
        "{}",
        result_json(correct, report.attempted, report.failed, &figures)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory")
    }

    #[test]
    fn every_emitted_name_is_well_formed() {
        for name in END_TO_END.iter().chain(&PER_LAYER).chain(&WORKLOADS) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_names() {
        let json = benchmark_json();
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let emitted: Vec<&str> = WORKLOADS
            .iter()
            .chain(&END_TO_END)
            .chain(&PER_LAYER)
            .copied()
            .collect();
        assert_eq!(listed, emitted);
    }

    #[test]
    fn generator_stays_within_two_threads_and_connections() {
        for workload in WORKLOADS {
            let (threads, connections) = generator(workload, 2);
            assert!(threads <= 2 && connections <= 2, "{workload}");
        }
    }
}
