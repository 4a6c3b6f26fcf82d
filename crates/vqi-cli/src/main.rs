//! `vqi` — construct, evaluate, and render data-driven visual query
//! interfaces from the command line. Run `vqi help` for usage.

mod args;
mod commands;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::usage());
            std::process::exit(2);
        }
    };
    let metrics_mode = match parsed.options.get("metrics").map(|s| s.as_str()) {
        None => None,
        Some(m @ ("table" | "json")) => Some(m.to_string()),
        Some(other) => {
            eprintln!("error: --metrics must be 'table' or 'json', got '{other}'");
            std::process::exit(2);
        }
    };
    let trace_out = parsed.options.get("trace-out").cloned();
    if metrics_mode.is_some() || trace_out.is_some() {
        vqi_observe::set_enabled(true);
    }
    // the table's profile is built from the journal, the one span tree
    if metrics_mode.as_deref() == Some("table") || trace_out.is_some() {
        vqi_observe::set_journal_enabled(true);
        vqi_observe::journal_reset();
    }
    // metrics accumulate for the process lifetime; subtracting this
    // baseline afterwards turns the snapshot into per-run numbers
    // (a fresh process has an empty baseline, so the delta is total)
    let baseline = vqi_observe::snapshot();
    match commands::run(&parsed) {
        Ok(out) => {
            print!("{out}");
            if let Some(path) = &trace_out {
                if let Err(e) = commands::write_trace(path) {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
                eprintln!("trace written to {path}");
            }
            // metrics go to stderr so stdout stays machine-parseable
            // (e.g. `vqi evaluate` prints JSON on stdout)
            match metrics_mode.as_deref() {
                Some("json") => {
                    eprintln!("{}", vqi_observe::snapshot().delta(&baseline).to_json());
                }
                Some(_) => {
                    eprint!(
                        "{}",
                        vqi_observe::snapshot().delta(&baseline).render_table()
                    );
                    let events = vqi_observe::journal_events();
                    eprint!("{}", vqi_observe::profile(&events, None).render());
                    let dropped = vqi_observe::journal_dropped();
                    if dropped > 0 {
                        eprintln!(
                            "profile is partial: the trace journal overwrote {dropped} events"
                        );
                    }
                }
                None => {}
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", commands::usage());
            std::process::exit(1);
        }
    }
}
