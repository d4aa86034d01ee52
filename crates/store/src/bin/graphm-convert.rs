//! `graphm-convert` — build a disk-resident partition store.
//!
//! The CLI front of [`graphm_store::Convert`]: takes an input graph
//! (a GraphM binary edge list, or a generated R-MAT graph for quickstarts
//! and smoke tests), grid-partitions it, and writes the per-block segment
//! files plus `manifest.bin` that `graphm-server` and
//! `Workbench::from_disk` open.
//!
//! ```text
//! graphm-convert --out DIR [--grid P] (--input EDGELIST.bin | --rmat V,E,SEED)
//! ```

use graphm_store::Convert;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: graphm-convert --out DIR [--grid P] (--input EDGELIST.bin | --rmat V,E,SEED)\n\
         \n\
         --out DIR          store directory to create (segments + manifest.bin)\n\
         --grid P           grid-partition into P x P blocks (default: --grid 4)\n\
         --input FILE       GraphM binary edge list (graphm_graph::storage format)\n\
         --rmat V,E,SEED    generate a Graph500 R-MAT graph instead (deterministic)"
    );
    exit(2);
}

fn parse_rmat(spec: &str) -> Option<(u32, usize, u64)> {
    let mut it = spec.split(',');
    let v = it.next()?.trim().parse().ok()?;
    let e = it.next()?.trim().parse().ok()?;
    let seed = it.next()?.trim().parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some((v, e, seed))
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut builder: Option<Convert> = None;
    let mut input: Option<PathBuf> = None;
    let mut rmat: Option<(u32, usize, u64)> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--grid" => {
                builder = Some(Convert::grid(value("--grid").parse().unwrap_or_else(|_| usage())))
            }
            "--input" => input = Some(PathBuf::from(value("--input"))),
            "--rmat" => rmat = Some(parse_rmat(&value("--rmat")).unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let Some(out) = out else { usage() };
    let builder = builder.unwrap_or_else(|| Convert::grid(4));
    let graph = match (input, rmat) {
        (Some(path), None) => graphm_graph::storage::read_edge_list(&path).unwrap_or_else(|e| {
            eprintln!("failed to read {}: {e}", path.display());
            exit(1);
        }),
        (None, Some((v, e, seed))) => {
            eprintln!("[convert] generating R-MAT: {v} vertices, {e} edges, seed {seed}");
            graphm_graph::generators::rmat(
                v,
                e,
                graphm_graph::generators::RmatParams::GRAPH500,
                seed,
            )
        }
        _ => usage(),
    };

    let start = std::time::Instant::now();
    let manifest = builder.write(&graph, &out).unwrap_or_else(|e| {
        eprintln!("conversion failed: {e}");
        exit(1);
    });
    eprintln!(
        "[convert] wrote {} partitions, {} edges ({} bytes) to {} in {:.2}s",
        manifest.partitions.len(),
        manifest.num_edges(),
        manifest.graph_bytes(),
        out.display(),
        start.elapsed().as_secs_f64(),
    );
}
