//! The repository benchmark: DP-round latency, throughput and served
//! accuracy of the learned cost estimator on three closed-loop serving
//! workloads, with a traced per-layer split.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload dp_warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` (plans) and `metrics`.  With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! and the spans are written to `<target dir>/perfbench/`.  The line before
//! it is a `detail` object: the host, the input properties that decide
//! cache behaviour, and the sample counts behind every percentile.

mod inputs;
mod run;
mod setup;
mod trace;

use run::{Measured, Workload};
use std::fmt::Write as _;
use std::io::Write as _;
use trace::{median, percentile, tail_percentile, totals_by_name};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload dp_warm|dp_cold|dp_online --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let seconds = args.seconds as f64;
    let m = match args.workload {
        Workload::Online => run::run_online(args.seed, seconds, args.trace),
        w => run::run_direct(w, args.seed, seconds, args.trace),
    };
    if let Err(e) = report(&args, &m) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn report(args: &Args, m: &Measured) -> Result<(), String> {
    let mut sorted = m.round_us.clone();
    sorted.sort_by(f64::total_cmp);
    let samples = sorted.len();
    let tail = tail_percentile(samples).ok_or(format!("{samples} timed rounds support no percentile"))?;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut not_exercised: Vec<&str> = Vec::new();
    let qerr = metrics::ErrorSummary::from_errors(&m.cost_qerrors);

    if !args.trace {
        if tail < 99.0 {
            return Err(format!("{samples} timed rounds are too few for a p99 (ten samples beyond it need 1000)"));
        }
        metrics.push(("plans_per_s", ratio(m.untraced_plans as f64, m.untraced_s), "plans/s"));
        metrics.push(("round_p50_us", percentile(&sorted, 50.0), "us"));
        metrics.push(("round_p99_us", percentile(&sorted, 99.0), "us"));
        metrics.push(("setup_s", median(&m.setup_s), "s"));
        metrics.push(("peak_rss_mb", peak_rss_mb()?, "MiB"));
        metrics.push(("cost_qerror_p50", qerr.median, "ratio"));
        metrics.push(("cost_qerror_p90", qerr.p90, "ratio"));
    } else {
        let tr = m.trace.as_ref().ok_or("traced run recorded no trace")?;
        let totals = totals_by_name(tr.spans());
        let self_us_per_plan = |name: &str| {
            totals.get(name).map_or(0.0, |&(_, _, self_ns)| ratio(self_ns as f64 * 1e-3, m.traced_plans as f64))
        };
        let c = &m.counters;
        let direct = args.workload != Workload::Online;
        let timed_plans = (m.untraced_plans + m.traced_plans) as f64;
        let nodes_per_plan = ratio(c.nodes_computed as f64, timed_plans);
        let stage = |name: &str| m.setup_stages.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| median(v));
        let (_, round_dur, round_self) = totals.get("round").copied().unwrap_or_default();
        let mut layer = |name: &'static str, exercised: bool, value: f64, unit: &'static str| {
            if !exercised {
                not_exercised.push(name);
            }
            metrics.push((name, if exercised { value } else { 0.0 }, unit));
        };
        layer("featurize.encode_us_per_plan", direct, self_us_per_plan("featurize.encode_plans"), "us");
        let encode_lookups = (c.encode_hits + c.encode_misses) as f64;
        layer(
            "featurize.encode_cache_hit_rate",
            encode_lookups > 0.0,
            ratio(c.encode_hits as f64, encode_lookups),
            "frac",
        );
        layer("featurize.encode_cache_entries", true, c.encode_entries as f64, "count");
        let bitmap_lookups = (c.bitmap_hits + c.bitmap_misses) as f64;
        // With every encoding served from the encode cache, no bitmap is probed.
        layer(
            "featurize.bitmap_memo_hit_rate",
            bitmap_lookups > 0.0,
            ratio(c.bitmap_hits as f64, bitmap_lookups),
            "frac",
        );
        layer("core.estimate_us_per_plan", direct, self_us_per_plan("core.estimate_encoded_batch"), "us");
        let subtree_hit = 1.0 - ratio(c.nodes_computed as f64, c.nodes_seen as f64);
        layer("core.subtree_hit_rate", c.nodes_seen > 0, subtree_hit, "frac");
        layer("core.nodes_computed_per_plan", true, nodes_per_plan, "count");
        let flops = 2.0 * (nodes_per_plan * m.node_macs as f64 + m.head_macs as f64);
        layer("nn.flops_per_plan", true, flops, "flop");
        layer("imdb.generate_s", true, stage("imdb.generate"), "s");
        layer("engine.label_s", true, stage("engine.label"), "s");
        layer("strembed.build_s", true, stage("strembed.build"), "s");
        layer("core.fit_s", true, stage("core.fit"), "s");
        let online = !direct;
        layer("serving.encode_batch_us_per_plan", online, self_us_per_plan("serving.encode_batch"), "us");
        layer("serving.estimate_encoded_us_per_plan", online, self_us_per_plan("serving.estimate_encoded"), "us");
        layer("serving.requests_per_wave", online, ratio(m.rounds_served as f64, c.waves as f64), "rounds/wave");
        let overwrite = ratio(c.feedback_overwritten as f64, c.feedback_recorded as f64);
        layer("serving.feedback_overwrite_frac", online, overwrite, "frac");
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        layer("serving.publish_ms", online, med(&m.publish_ms), "ms");
        layer("serving.first_round_after_publish_us", online, med(&m.first_round_us), "us");
        layer("trace.unattributed_frac", true, ratio(round_self as f64, round_dur as f64), "frac");
        let traced_rate = ratio(m.traced_plans as f64, m.traced_s);
        let untraced_rate = ratio(m.untraced_plans as f64, m.untraced_s);
        layer("trace.overhead_frac", true, 1.0 - ratio(traced_rate, untraced_rate), "frac");
        write_trace(args, tr)?;
    }

    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} measured {value}, which is not a number JSON can carry"));
    }
    let correct = m.failed == 0 && m.attempted > 0;
    let mut detail = String::new();
    let _ = write!(
        detail,
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \
         \"e2e_force_scalar\": {}, \"inputs\": {}, \"rounds_served\": {}, \"round_samples\": {samples}, \
         \"round_tail\": {{\"percentile\": {tail}, \"us\": {:.3}}}, \"setup_s\": {:?}, \"setup_stages_s\": {{{}}}, \
         \"qerror_samples\": {}, \"publishes\": {}, \"first_rounds_after_publish\": {}, \"not_exercised\": {:?}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bench::host_capabilities_json(),
        std::env::var_os("E2E_FORCE_SCALAR").is_some(),
        m.inputs.to_json(),
        m.rounds_served,
        percentile(&sorted, tail),
        m.setup_s,
        m.setup_stages.iter().map(|(n, v)| format!("\"{n}\": {v:?}")).collect::<Vec<_>>().join(", "),
        qerr.count,
        m.publish_ms.len(),
        m.first_round_us.len(),
        not_exercised,
    );
    let body = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!("{detail}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        m.attempted, m.failed
    );
    Ok(())
}

/// Write every span of a traced run, one JSON array per line:
/// `[id, parent, trace_id, name, start_ns, end_ns]`.
fn write_trace(args: &Args, tr: &trace::Trace) -> Result<(), String> {
    let dir = run::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    for (id, s) in tr.spans().iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(w, "[{id}, {parent}, {}, \"{}\", {}, {}]", s.trace_id, s.name, s.start_ns, s.end_ns)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    w.flush().map_err(|e| format!("write {}: {e}", path.display()))
}
