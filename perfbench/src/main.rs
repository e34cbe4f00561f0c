//! The repository benchmark: seeded workloads on the virtual-time cluster.
//!
//! ```text
//! perfbench --workload paper-apps|wide-kmeans|tenant-backlog|all \
//!     --seed N --seconds S --trace 0|1 [--rev REV] [--rustc VERSION]
//! ```
//!
//! `--trace 0` sets up each workload several times (`setup_s` is the median,
//! in units of the workload's sequential reference), then runs ops for
//! `--seconds` and prints the end-to-end metrics.
//! `--trace 1` runs an untraced and a traced pass, the layer probes, exports
//! both timelines as chrome JSON under `.bench_out/`, checks them with
//! `trace_check`, and prints the per-layer metrics. Every line before the
//! last is for people; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod bench;
mod host;
mod paper_apps;
mod probes;
mod seeds;
mod stats;
mod tenant_backlog;
mod wide_kmeans;

use std::collections::HashMap;
use std::path::Path;
use std::process::{Command, ExitCode};

use triolet::SimCore;

use bench::{checked_op, run_pass, timed, Pass, Tracer, Workload};
use stats::{json_num, json_str, median, percentile, tail_percentile, Report, Samples};

/// Share of `--seconds` each pass of a `--trace 1` run takes; the layer
/// probes take the rest.
const TRACED_PASS_SHARE: f64 = 0.35;
/// Where traced runs write their chrome JSON, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    PaperApps,
    WideKmeans,
    TenantBacklog,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::PaperApps, Kind::WideKmeans, Kind::TenantBacklog];

    fn name(self) -> &'static str {
        match self {
            Kind::PaperApps => "paper-apps",
            Kind::WideKmeans => "wide-kmeans",
            Kind::TenantBacklog => "tenant-backlog",
        }
    }

    fn setup(self, seed: u64, traced: bool, tr: &Tracer) -> Box<dyn Workload> {
        match self {
            Kind::PaperApps => Box::new(paper_apps::setup(seed, traced, tr)),
            Kind::WideKmeans => Box::new(wide_kmeans::setup(seed, traced, tr)),
            Kind::TenantBacklog => Box::new(tenant_backlog::setup(seed, traced, tr)),
        }
    }

    /// Length of the outer domain the workload's skeletons split.
    fn domain_len(self) -> usize {
        match self {
            Kind::PaperApps => 8_192,
            Kind::WideKmeans => wide_kmeans::POINTS,
            Kind::TenantBacklog => tenant_backlog::SIZES[2],
        }
    }

    /// Set-ups a `--trace 0` run makes, one after another, before its timed
    /// pass; the last one is kept for the pass. A quick set-up is repeated
    /// more, so its median is steady; paper-apps takes about 1.5 s a set-up.
    fn setups(self) -> usize {
        match self {
            Kind::PaperApps => 3,
            Kind::WideKmeans => 9,
            Kind::TenantBacklog => 25,
        }
    }

    /// A typical host time of the workload's sequential reference on the
    /// host the benchmark was written on (Intel Xeon, 2 vCPUs), rounded.
    /// `setup_s` is set-up time in units of the reference, scaled by this
    /// constant: set-up seconds on that host, with the run's host-speed
    /// drift cancelled.
    fn nominal_reference_s(self) -> f64 {
        match self {
            Kind::PaperApps => 0.48,
            Kind::WideKmeans => 8.4e-3,
            Kind::TenantBacklog => 4.5e-4,
        }
    }

    /// Elements of one representative `Vec<f32>` message: an sgemm row
    /// strip, a k-means partial accumulator, a service job's per-rank slice.
    fn payload_f32s(self) -> usize {
        match self {
            Kind::PaperApps => 384 * 384 / paper_apps::NODES,
            Kind::WideKmeans => 2 * triolet_apps::kmeans::ACC_STRIDE * wide_kmeans::K,
            Kind::TenantBacklog => 2 * tenant_backlog::SIZES[1] / tenant_backlog::NODES,
        }
    }

    /// The benchmark's own spans a traced run must export.
    fn bench_spans(self) -> &'static [&'static str] {
        match self {
            Kind::PaperApps => {
                &["generate", "run_seq", "run_triolet", "run_triolet_tiled", "validate"]
            }
            Kind::WideKmeans => &["generate", "scatter", "fold_reduce", "run_seq", "validate"],
            Kind::TenantBacklog => &["generate", "submit", "step", "run_seq", "validate"],
        }
    }

    /// `trace_check` arguments for the first traced op's runtime timeline:
    /// the spans it must hold, then `--events` instants or `--tagged` pairs.
    fn runtime_spans(self) -> &'static [&'static str] {
        match self {
            Kind::PaperApps => &[
                "skeleton:build_vec",
                "skeleton:build_array2",
                "skeleton:fold_reduce",
                "skeleton:scatter_add",
                "root:merge:streamed",
                "node:task",
                "chunk",
                "--events",
                "dist:resident-hit",
            ],
            Kind::WideKmeans => &[
                "skeleton:fold_reduce",
                "comm:tree",
                "root:merge:streamed",
                "node:task",
                "chunk",
                "merge",
                "--events",
                "retry",
                "redispatch",
                "dist:resident-miss",
            ],
            Kind::TenantBacklog => {
                &["service:job", "node:task", "chunk", "--tagged", "service:job", "tenant"]
            }
        }
    }
}

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kinds = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rev = "unknown".to_string();
    let mut rustc = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kinds = Some(match val.as_str() {
                    "all" => Kind::ALL.to_vec(),
                    name => vec![*Kind::ALL
                        .iter()
                        .find(|k| k.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                })
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val:?}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| format!("bad seconds {val:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {val:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {val:?}")),
                })
            }
            "--rev" => rev = val,
            "--rustc" => rustc = val,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        kinds: kinds.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rev,
        rustc,
    })
}

/// What one workload's run produced.
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    correct: bool,
    /// Extra provenance: `key -> JSON value`.
    provenance: Vec<(&'static str, String)>,
}

/// Set up, run one warm-up op, and return the workload with the set-up
/// time; the warm-up op counts as attempted.
fn setup_with_warmup(
    kind: Kind,
    seed: u64,
    traced: bool,
    tr: &Tracer,
    counts: &mut (u64, u64),
) -> (Box<dyn Workload>, f64) {
    let ((mut w, ok), setup_s) = timed(|| {
        let mut w = kind.setup(seed, traced, tr);
        let ok = checked_op(w.as_mut(), tr, &mut Samples::default()).is_some();
        (w, ok)
    });
    counts.0 += 1;
    counts.1 += u64::from(!ok);
    w.take_runtime_trace();
    (w, setup_s)
}

fn end_to_end(kind: Kind, args: &Args) -> Outcome {
    let tr = Tracer::off();
    let mut counts = (0u64, 0u64);
    // Each set-up is dropped before the next starts, so one instance is
    // alive at a time; the reference is timed right after its set-up.
    let (mut wall, mut reference) = (vec![], vec![]);
    let mut kept = None;
    for _ in 0..kind.setups() {
        drop(kept.take());
        let (w, setup_s) = setup_with_warmup(kind, args.seed, false, &tr, &mut counts);
        wall.push(setup_s);
        reference.push(w.reference_s());
        kept = Some(w);
    }
    let mut w = kept.expect("every workload sets up at least once");
    let scaled: Vec<f64> =
        wall.iter().zip(&reference).map(|(s, r)| s / r * kind.nominal_reference_s()).collect();
    let pass = run_pass(w.as_mut(), args.seconds, &tr, &mut Samples::default());
    let (attempted, failed) = (counts.0 + pass.attempted, counts.1 + pass.failed);

    let mut r = Report::default();
    let mut provenance = vec![
        ("setups", kind.setups().to_string()),
        ("setup_wall_s", json_num(median(&wall))),
        ("reference_s", json_num(median(&reference))),
    ];
    r.put("setup_s", median(&scaled), "s");
    pass_metrics(&pass, &mut r, &mut provenance);
    r.put("peak_rss_mib", pass.rss_mib.unwrap_or_else(host::peak_rss_mib), "MiB");
    println!(
        "# {}: failed_frac {:.6} ({failed} of {attempted} ops)",
        kind.name(),
        failed as f64 / attempted as f64
    );
    if kind == Kind::TenantBacklog {
        let mut layers = Samples::default();
        w.finish(&mut layers);
        println!(
            "# {}: fair_share_err {:.6} (first {} ops)",
            kind.name(),
            layers.median("service.fair_share_err"),
            tenant_backlog::FAIR_WINDOW
        );
    }
    Outcome { report: r, attempted, failed, correct: failed == 0, provenance }
}

/// The per-op timing metrics of one pass, and the percentile each tail
/// used (the highest, up to the nominal one, with ten samples beyond it).
fn pass_metrics(pass: &Pass, r: &mut Report, provenance: &mut Vec<(&'static str, String)>) {
    let n = pass.ops.len();
    let p90 = tail_percentile(n, 90);
    let host = pass.series(|o| o.host_s);
    let ratio = pass.series(|o| o.host_s / o.seq_s);
    let makespan = pass.series(|o| o.makespan_s);
    let latency = pass.latencies();
    let p99 = tail_percentile(latency.len(), 99);
    r.put("host_p50_s", percentile(&host, 50), "s");
    r.put("host_p90_s", percentile(&host, p90), "s");
    r.put("host_over_seq", percentile(&ratio, 50), "x");
    r.put("host_over_seq_p90", percentile(&ratio, p90), "x");
    r.put("makespan_p50_s", percentile(&makespan, 50), "s");
    r.put("makespan_p90_s", percentile(&makespan, p90), "s");
    r.put("speedup_vs_seq", median(&pass.series(|o| o.speedup)), "x");
    r.put("ops_per_s", n as f64 / pass.wall_s, "1/s");
    r.put("latency_p50_s", percentile(&latency, 50), "s");
    r.put("latency_p99_s", percentile(&latency, p99), "s");
    provenance.extend([
        ("ops", n.to_string()),
        ("p90_tails_percentile", p90.to_string()),
        ("latencies", latency.len().to_string()),
        ("latency_p99_s_percentile", p99.to_string()),
    ]);
}

/// The end-to-end metrics `BENCHMARK.json` bounds: the ones that stay
/// steady while host speed drifts. Reference-relative host time cancels
/// the drift; modeled time and memory do not depend on it much.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "host_over_seq",
    "makespan_p50_s",
    "makespan_p90_s",
    "latency_p50_s",
    "latency_p99_s",
    "peak_rss_mib",
];

/// Every per-layer metric, in report order, with its unit. The runtime's
/// timeline categories are `obs.phase.<category>_s`.
const PER_LAYER: [(&str, &str); 69] = [
    // End-to-end timings that move with the host's speed, from the untraced
    // pass: absolute host time drifts 10-30% between runs, and on
    // tenant-backlog the tail of `host_over_seq` cancels the drift only
    // partly (the queue scan and the reference loop slow down differently).
    // That is beyond or near any bound `BENCHMARK.json` may set, so they are
    // reported here, unbound.
    ("host_p50_s", "s"),
    ("host_p90_s", "s"),
    ("host_over_seq_p90", "x"),
    ("ops_per_s", "1/s"),
    ("speedup_vs_seq", "x"),
    ("serial.pack_mib_s", "MiB/s"),
    ("serial.unpack_mib_s", "MiB/s"),
    ("serial.view_unpack_mib_s", "MiB/s"),
    ("serial.unpack_copied_bytes", "bytes"),
    ("serial.unpack_aliased_bytes", "bytes"),
    ("iter.fold_ns_per_item", "ns"),
    ("apps.mriq.host_s", "s"),
    ("apps.mriq.makespan_s", "s"),
    ("apps.mriq.seq_s", "s"),
    ("apps.sgemm.host_s", "s"),
    ("apps.sgemm.makespan_s", "s"),
    ("apps.sgemm.seq_s", "s"),
    ("apps.tpacf.host_s", "s"),
    ("apps.tpacf.makespan_s", "s"),
    ("apps.tpacf.seq_s", "s"),
    ("apps.cutcp.host_s", "s"),
    ("apps.cutcp.makespan_s", "s"),
    ("apps.cutcp.seq_s", "s"),
    ("apps.sgemm.gemm_gflops", "GFLOP/s"),
    ("apps.mriq.ftcoeff_ns", "ns"),
    ("apps.tpacf.score_ns", "ns"),
    ("apps.cutcp.potential_ns", "ns"),
    ("domain.split_ns_per_part.p128", "ns"),
    ("domain.split_ns_per_part.p1024", "ns"),
    ("pool.schedule_ns_per_task", "ns"),
    ("cluster.bytes_out", "bytes"),
    ("cluster.bytes_back", "bytes"),
    ("cluster.messages", "count"),
    ("cluster.env_packs", "count"),
    ("cluster.retries", "count"),
    ("cluster.redispatches", "count"),
    ("cluster.comm_s", "s"),
    ("cluster.compute_span_s", "s"),
    ("cluster.node_busy_frac", "ratio"),
    ("cluster.sim_events", "count"),
    ("cluster.dispatch_ns_per_task", "ns"),
    ("cluster.sweep_host_s.event", "s"),
    ("cluster.sweep_host_s.eager", "s"),
    ("core.root_s", "s"),
    ("core.resident_hits", "count"),
    ("core.resident_misses", "count"),
    ("core.kernel_host_s", "s"),
    ("core.merge_calls", "count"),
    ("core.runtime_host_s", "s"),
    ("core.scatter_s", "s"),
    ("service.pick_ns.d1024", "ns"),
    ("service.pick_ns.backlog", "ns"),
    ("service.queue_wait_p50_s", "s"),
    ("service.queue_wait_p99_s", "s"),
    ("service.utilization", "ratio"),
    ("service.rejected", "count"),
    ("service.fair_share_err", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.spans_per_op", "count"),
    ("obs.counter_drift_bytes", "bytes"),
    ("obs.phase.skeleton_s", "s"),
    ("obs.phase.prep_s", "s"),
    ("obs.phase.dispatch_s", "s"),
    ("obs.phase.comm_s", "s"),
    ("obs.phase.compute_s", "s"),
    ("obs.phase.merge_s", "s"),
    ("obs.phase.idle_s", "s"),
    ("obs.phase.dist_s", "s"),
    ("obs.phase.service_s", "s"),
];

fn traced(kind: Kind, args: &Args) -> Outcome {
    let pass_s = args.seconds * TRACED_PASS_SHARE;
    let mut counts = (0u64, 0u64);

    // Untraced pass: the base of `obs.trace_overhead`.
    let off = Tracer::off();
    let (mut w, _) = setup_with_warmup(kind, args.seed, false, &off, &mut counts);
    let untraced = run_pass(w.as_mut(), pass_s, &off, &mut Samples::default());
    drop(w);

    // Traced pass: the benchmark's spans plus the runtime's own timeline.
    let tr = Tracer::on();
    let (mut w, _) = setup_with_warmup(kind, args.seed, true, &tr, &mut counts);
    let mut layers = Samples::default();
    let pass = run_pass(w.as_mut(), pass_s, &tr, &mut layers);
    w.finish(&mut layers);
    let bench_trace = tr.take();
    let attempted = counts.0 + untraced.attempted + pass.attempted;
    let failed = counts.1 + untraced.failed + pass.failed;

    // Per-op series report their median; a layer this workload never ran
    // has no series and reports 0.
    let mut values: HashMap<String, f64> =
        PER_LAYER.iter().map(|(name, _)| (name.to_string(), layers.median(name))).collect();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    let waits = layers.get("service.queue_wait_s");
    put("service.queue_wait_p50_s", percentile(waits, 50));
    put("service.queue_wait_p99_s", percentile(waits, tail_percentile(waits.len(), 99)));
    let partition = layers.median("obs.tenant_partition_drift_bytes");
    put("obs.counter_drift_bytes", layers.median("obs.counter_drift_bytes") + partition);
    let mut untraced_report = Report::default();
    let mut provenance = vec![];
    pass_metrics(&untraced, &mut untraced_report, &mut provenance);
    for m in &untraced_report.metrics {
        put(&m.name, m.value);
    }
    let host_traced = median(&pass.series(|o| o.host_s));
    let host_untraced = median(&untraced.series(|o| o.host_s));
    put("obs.trace_overhead", host_traced / host_untraced - 1.0);
    put("obs.spans_per_op", median(&pass.runtime_spans));

    // Layer probes on this workload's shapes.
    let mut probe = Report::default();
    let config = w.config();
    probes::serial(&mut probe, kind.payload_f32s());
    let fold_input: Vec<f64> =
        (0..kind.domain_len()).map(|i| (seeds::mix(args.seed ^ i as u64) % 1_000) as f64).collect();
    probes::iter_fold(&mut probe, &fold_input);
    probes::domain_split(&mut probe, kind.domain_len());
    probes::pool_schedule(&mut probe, args.seed);
    probes::cluster_dispatch(&mut probe, config);
    probes::service_pick(&mut probe, config, 1_024, "service.pick_ns.d1024");
    probes::service_pick(&mut probe, config, tenant_backlog::BACKLOG, "service.pick_ns.backlog");
    probes::kernels(&mut probe, &paper_apps::generate(args.seed));
    for (core, name) in [
        (SimCore::Event, "cluster.sweep_host_s.event"),
        (SimCore::Eager, "cluster.sweep_host_s.eager"),
    ] {
        let (s, probe_s) = timed(|| w.sweep_host_s(core));
        println!("probe {name}: count=1 host_s={probe_s:.6} -> {s:.6} s");
        probe.put(name, s, "s");
    }
    for m in &probe.metrics {
        put(&m.name, m.value);
    }

    let checks = export_traces(kind, &bench_trace, &pass);
    let mut report = Report::default();
    for (name, unit) in PER_LAYER {
        report.put(name, values[name], unit);
    }
    provenance.push(("traced_ops", pass.ops.len().to_string()));
    provenance.push(("queue_wait_p99_s_percentile", tail_percentile(waits.len(), 99).to_string()));
    Outcome { report, attempted, failed, correct: failed == 0 && checks, provenance }
}

/// Write the benchmark's spans and the first traced op's runtime timeline
/// as chrome JSON and validate both with `trace_check`.
fn export_traces(kind: Kind, bench: &triolet::TraceData, pass: &Pass) -> bool {
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return false;
    }
    let files = [
        ("bench", bench, kind.bench_spans()),
        ("runtime", &pass.first_runtime_trace, kind.runtime_spans()),
    ];
    let mut ok = true;
    for (what, trace, required) in files {
        let path = Path::new(OUT_DIR).join(format!("{}.{what}.trace.json", kind.name()));
        if let Err(e) = std::fs::write(&path, trace.to_chrome_json()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            ok = false;
            continue;
        }
        let passed = trace_check(&path, required);
        println!(
            "# trace {}: {} spans, {} events, trace_check {}",
            path.display(),
            trace.spans.len(),
            trace.events.len(),
            if passed { "ok" } else { "FAILED" }
        );
        ok &= passed;
    }
    ok
}

/// Run the repository's `trace_check` (built beside this binary).
fn trace_check(path: &Path, required: &[&str]) -> bool {
    let Some(exe) = std::env::current_exe().ok().map(|p| p.with_file_name("trace_check")) else {
        return false;
    };
    match Command::new(&exe).arg(path).args(required).status() {
        Ok(status) => status.success(),
        Err(e) => {
            eprintln!("perfbench: cannot run {}: {e}", exe.display());
            false
        }
    }
}

fn provenance_line(kind: Kind, args: &Args, extra: &[(&'static str, String)]) -> String {
    let mut fields = vec![
        ("workload", json_str(kind.name())),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{:?}", args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        ("rev", json_str(&args.rev)),
        ("rustc", json_str(&args.rustc)),
        ("nproc", host::nproc().to_string()),
        ("cpu", json_str(&host::cpu_model())),
    ];
    fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload paper-apps|wide-kmeans|tenant-backlog|all \
                 --seed N --seconds S --trace 0|1 [--rev REV] [--rustc VERSION]"
            );
            return ExitCode::from(2);
        }
    };
    let single = args.kinds.len() == 1;
    let reported: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(name, _)| *name).collect()
    } else {
        END_TO_END.to_vec()
    };
    let mut all = Report::default();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for (i, &kind) in args.kinds.iter().enumerate() {
        if i > 0 {
            // VmHWM is per process: start each later workload's peak afresh.
            host::reset_peak_rss();
        }
        let out = if args.trace { traced(kind, &args) } else { end_to_end(kind, &args) };
        println!("# provenance {}", provenance_line(kind, &args, &out.provenance));
        out.report.print_table(&format!("{:<15} ", kind.name()), &reported);
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.correct;
        for name in &reported {
            let m = out.report.get(name).expect("every reported metric is measured");
            let name = if single { m.name.clone() } else { format!("{}.{name}", kind.name()) };
            all.put(name, m.value, m.unit);
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        all.json_object()
    );
    ExitCode::SUCCESS
}
