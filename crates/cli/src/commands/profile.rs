//! `acic profile` — extract the nine Table-1 I/O characteristics.

use crate::args::Args;
use crate::registry::app_by_name;
use acic_apps::{profile, IoTrace};
use acic_cloudsim::units::fmt_bytes;

pub fn run(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["app", "procs", "trace", "emit-trace"])?;

    let trace: IoTrace = match (args.get("trace"), args.get("app")) {
        (Some(path), _) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            IoTrace::from_log(&text)?
        }
        (None, Some(name)) => {
            let procs: usize = args.parse_or("procs", 64)?;
            app_by_name(name, procs)?.trace()
        }
        (None, None) => return Err("either --trace FILE or --app NAME is required".into()),
    };

    if let Some(path) = args.get("emit-trace") {
        crate::commands::write_output(path, &trace.to_log())?;
        eprintln!("trace log written to {path} ({} records)", trace.records.len());
    }

    let c = profile(&trace).ok_or("the trace contains no I/O records")?;
    println!("application I/O characteristics (Table 1, lower half):");
    println!("  Num. of all processes : {}", c.nprocs);
    println!("  Num. of I/O processes : {}", c.io_procs);
    println!("  I/O interface         : {}", c.api);
    println!("  I/O iteration count   : {}", c.iterations);
    println!("  Data size             : {} per process per iteration", fmt_bytes(c.data_size));
    println!("  Request size          : {}", fmt_bytes(c.request_size));
    println!("  Read and/or write     : {} (read fraction {:.0}%)", c.op, (c.read_fraction * 100.0).max(0.0));
    println!("  Collective            : {}", if c.collective { "yes" } else { "no" });
    println!("  File sharing          : {}", if c.shared_file { "share" } else { "individual" });
    Ok(())
}
