//! Prints every experiment table in `EXPERIMENTS.md` order.
//!
//! ```text
//! table_all [--workers N] [--experiment <id>] [--json <path>]
//! ```
//!
//! `--workers N` runs each experiment's grid points on an `N`-wide fabric
//! job pool; every point computes under the same derived seed regardless of
//! scheduling, so the output — text and JSON — is byte-identical for every
//! `N`. `--experiment e7` restricts the run to one registry id and emits
//! the single-report document (schema `bci.bench.v1`) instead of the suite
//! document. A bad argument exits with status 2.

use bci_bench::report::{emit_all_to, emit_to};
use bci_bench::suite;

const USAGE: &str = "usage: table_all [--workers N] [--experiment <id>] [--json <path>]";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut workers = 1usize;
    let mut experiment: Option<String> = None;
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workers" => {
                let value = args
                    .next()
                    .unwrap_or_else(|| die("--workers needs a count"));
                workers = match value.parse() {
                    Ok(n) if n >= 1 => n,
                    _ => die(&format!("invalid worker count '{value}'")),
                };
            }
            "--experiment" => {
                experiment = Some(
                    args.next()
                        .unwrap_or_else(|| die("--experiment needs an id")),
                );
            }
            "--json" => {
                json = Some(args.next().unwrap_or_else(|| die("--json needs a path")));
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    match experiment {
        Some(id) => match suite::report_by_id(&id, workers) {
            Some(report) => emit_to(&report, json.as_deref()),
            None => die(&format!(
                "unknown experiment '{id}' (known: {})",
                suite::suite_ids().join(", ")
            )),
        },
        None => emit_all_to(&suite::all(workers), json.as_deref()),
    }
}
