//! `perfbench`: the compiled half of the `fi` end-to-end benchmark.
//!
//! ```text
//! perfbench gen --kind zipf|planted --tokens N --universe U --seed S --out DIR
//!     write DIR/input.txt and its exact counts DIR/counts.tsv
//! perfbench check --data DIR --k K --buckets B REPORT...
//!     check `fi` reports against the exact counts; one JSON line each
//! perfbench trace --work DIR --job J -- FI_ARGS... [-- FI_ARGS...]
//!     one traced in-process job of the given `fi` invocations (arguments
//!     without the program name: one `top`, or one `serve` and its
//!     `ship`s); prints its JSON summary
//! ```
//!
//! `run.py` drives these; see `perfbench/README.md`.

mod gen;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// Splits `--flag value` pairs from positional arguments.
fn parse(args: &[String]) -> (HashMap<String, String>, Vec<String>) {
    let (mut flags, mut positional) = (HashMap::new(), Vec::new());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(name) => {
                flags.insert(name.to_string(), it.next().cloned().unwrap_or_default());
            }
            None => positional.push(a.clone()),
        }
    }
    (flags, positional)
}

fn flag<T: std::str::FromStr>(flags: &HashMap<String, String>, name: &str) -> Result<T, String> {
    flags
        .get(name)
        .ok_or_else(|| format!("missing --{name}"))?
        .parse()
        .map_err(|_| format!("bad --{name}"))
}

fn run(args: &[String]) -> Result<(), String> {
    let command = args
        .first()
        .ok_or("missing subcommand (gen | check | trace)")?;
    // `trace` takes `fi` invocations after the first bare `--`.
    let split = args[1..]
        .iter()
        .position(|a| a == "--")
        .map_or(args.len(), |i| i + 1);
    let (flags, positional) = parse(&args[1..split]);
    match command.as_str() {
        "gen" => {
            let kind = match flags.get("kind").map(String::as_str) {
                Some("zipf") => gen::Kind::Zipf { z: 1.1 },
                Some("planted") => gen::Kind::Planted {
                    heavy: 20,
                    share: 0.005,
                },
                _ => return Err("--kind must be zipf or planted".into()),
            };
            let spec = gen::Spec {
                kind,
                tokens: flag(&flags, "tokens")?,
                universe: flag(&flags, "universe")?,
                seed: flag(&flags, "seed")?,
            };
            let out = PathBuf::from(flag::<String>(&flags, "out")?);
            std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
            let (tokens, distinct) = gen::generate(&spec, &out).map_err(|e| e.to_string())?;
            println!("{{\"tokens\": {tokens}, \"distinct\": {distinct}}}");
        }
        "check" => {
            let data = PathBuf::from(flag::<String>(&flags, "data")?);
            let oracle =
                gen::Oracle::load(&data).map_err(|e| format!("{}: {e}", data.display()))?;
            let (k, buckets) = (flag(&flags, "k")?, flag(&flags, "buckets")?);
            for path in &positional {
                let report = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                println!("{}", gen::check_report(&oracle, &report, k, buckets));
            }
        }
        "trace" => {
            let argvs: Vec<Vec<String>> = args[split..]
                .split(|a| a == "--")
                .filter(|argv| !argv.is_empty())
                .map(<[String]>::to_vec)
                .collect();
            let work = PathBuf::from(flag::<String>(&flags, "work")?);
            println!("{}", trace::run_job(&argvs, &work, flag(&flags, "job")?)?);
        }
        other => return Err(format!("unknown subcommand {other}")),
    }
    Ok(())
}
