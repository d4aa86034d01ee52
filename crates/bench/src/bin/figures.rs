//! `figures` — regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run --release --bin figures -- list        # also what no argument does
//! cargo run --release --bin figures -- fig09_total_time fig12_io
//! GRAPHM_SCALE=4 cargo run --release --bin figures -- all
//! ```
//!
//! Entries run in the order given and share one context, so the datasets
//! and the §5.3 sweep are built once per invocation. See the
//! `graphm_bench` crate docs for the knobs.

use graphm_bench::{find, Ctx, Entry, Params, REGISTRY};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args == ["list"] {
        for entry in REGISTRY {
            println!("{:<28}{}", entry.name, entry.title);
        }
        return;
    }
    // Every name is resolved before the first (possibly minutes-long) entry runs.
    let entries: Vec<&Entry> = if args == ["all"] {
        REGISTRY.iter().collect()
    } else {
        args.iter().map(|name| find(name).unwrap_or_else(|| unknown(name))).collect()
    };
    let mut ctx = Ctx::new(Params::from_lookup(|name| std::env::var(name).ok()));
    for entry in entries {
        graphm_bench::run(entry, &mut ctx);
    }
}

fn unknown(name: &str) -> ! {
    eprintln!(
        "figures: no entry named `{name}` (`figures list` names them, `figures all` runs them)"
    );
    std::process::exit(2);
}
