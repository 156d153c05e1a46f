//! `e2ebench`: the repo's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <train_sr13|train_f32_ckpt|serve_rn_open> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench compare <base-output> <new-output>
//! ```
//!
//! A run sets up its workload several times, measures it for `--seconds`,
//! checks every output against a reference computed outside the timed
//! window, and prints a human-readable summary on stderr, then its record
//! (host fingerprint included) and, as the last line of stdout, the
//! result object. `--trace 1` times every layer from outside and reports
//! the per-layer metrics instead of the end-to-end ones. See README.md.

#![forbid(unsafe_code)]

mod host;
mod ledger;
mod report;
mod serve;
mod stats;
mod train;
mod wrap;

#[cfg(test)]
mod selftest;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Comparison, END_TO_END};

/// The workloads (see README.md for why each exists).
const WORKLOADS: [&str; 3] = ["train_sr13", "train_f32_ckpt", "serve_rn_open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn compare(base: &str, new: &str) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (base, new) = match (read(base), read(new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    match report::compare(&base, &new) {
        Comparison::HostMismatch(why) => {
            println!("host-mismatch: {why}");
            ExitCode::from(3)
        }
        Comparison::Unlike(why) => {
            println!("unlike records: {why}");
            ExitCode::from(2)
        }
        Comparison::Metrics(rows) => {
            let mut regressed = false;
            for (name, b, n, ratio, worse) in rows {
                regressed |= worse;
                let bound = END_TO_END.iter().find(|m| m.0 == name).map_or(0.0, |m| m.3);
                let verdict = if worse { "REGRESSION" } else { "ok" };
                println!(
                    "{name:<18} {b:>12.4} -> {n:>12.4}  x{ratio:.3}  (bound {bound})  {verdict}"
                );
            }
            if regressed {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("compare") {
        let rest: Vec<String> = argv.skip(1).collect();
        if rest.len() != 2 {
            eprintln!("usage: e2ebench compare <base-output> <new-output>");
            return ExitCode::from(2);
        }
        return compare(&rest[0], &rest[1]);
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::detect();
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let work = root
        .join("e2ebench-work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let secs = args.seconds as f64;
    let mut outcome = match args.workload.as_str() {
        "train_sr13" => train::workload(train::Kind::Sr13, args.seed, secs, args.trace, &work),
        "train_f32_ckpt" => {
            train::workload(train::Kind::F32Ckpt, args.seed, secs, args.trace, &work)
        }
        _ => serve::workload(args.seed, secs, args.trace, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    if args.trace {
        let rss = outcome
            .named
            .iter()
            .find(|m| m.0 == "peak_rss_mib")
            .map_or(0.0, |m| m.1);
        outcome.layers.push(("process.peak_rss_mib".into(), rss));
    }

    eprintln!(
        "e2ebench {} seed {} on {}",
        args.workload,
        args.seed,
        host.to_json()
    );
    for (k, v) in &outcome.config {
        eprintln!("  {k:<22} {v}");
    }
    for (name, v) in &outcome.named {
        let unit = report::NAMED
            .iter()
            .find(|m| m.0 == *name)
            .map_or("", |m| m.1);
        eprintln!("  {name:<22} {v:>14.4} {unit}");
    }
    eprintln!(
        "  attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    if !outcome.table.is_empty() {
        eprint!("{}", outcome.table);
    }
    let rec = report::record(
        &outcome,
        &host,
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
    );
    println!("{rec}");
    println!("{}", report::result_line(&outcome, args.trace));
    ExitCode::SUCCESS
}
