//! `acic` — the command-line face of the reproduction, mirroring the
//! tooling the paper released ("users can download the shared training
//! data, build the prediction model, use our provided tool to obtain I/O
//! characteristics from their applications, run the prediction, and
//! configure EC2 to deploy the recommended I/O configuration", §1).
//!
//! ```text
//! acic screen     [--goal perf|cost] [--seed N]
//! acic train      [--dims N] [--seed N] [--out snap.txt] [--store DIR]
//!                 [--search pb|random|bandit|halving --budget N [--warm-start DIR]]
//! acic publish    --store DIR --out snap.txt [--model ..] [--force]
//! acic recommend  --app NAME --procs N [--snapshot FILE|--store DIR|--dims N]
//!                 [--model ..] [--goal ..] [--top K]
//! acic profile    --app NAME --procs N [--trace file] [--emit-trace file]
//! acic walk       --app NAME --procs N [--goal ..] [--random] [--seed N]
//! acic sweep      --app NAME --procs N [--goal ..]
//! acic serve      [--snapshot FILE [--watch]|--store DIR|--dims N] [--workers N]
//!                 [--replay file] [--swap-at N]
//!                 [--nodes N --trace file] [--trace-out file] [--kill-node I]
//! ```

mod args;
mod commands;
mod registry;

use args::Args;

fn main() {
    let parsed = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let result = match parsed.command.as_deref() {
        Some("screen") => commands::screen::run(&parsed),
        Some("train") => commands::train::run(&parsed),
        Some("publish") => commands::publish::run(&parsed),
        Some("recommend") => commands::recommend::run(&parsed),
        Some("profile") => commands::profile::run(&parsed),
        Some("ior") => commands::ior::run(&parsed),
        Some("walk") => commands::walk::run(&parsed),
        Some("sweep") => commands::sweep::run(&parsed),
        Some("serve") => commands::serve::run(&parsed),
        Some("help") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{}", commands::USAGE)),
    };

    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
