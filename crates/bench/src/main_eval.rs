//! §5.3 main evaluation: one 16-job sweep over every dataset under
//! GridGraph-S / -C / -M ([`Ctx::sweep`]), reported six ways
//! (Figures 9–14).

use crate::{f, header, miss_pct, normalize, ns_to_s, row, Ctx, SchemeRuns};
use graphm_cachesim::keys;
use graphm_core::RunReport;
use serde_json::{json, Value};

/// Prints a normalized three-scheme comparison for one metric and returns
/// the raw values as JSON.
fn scheme_table(title: &str, results: &[SchemeRuns], get: impl Fn(&RunReport) -> f64) -> Value {
    println!("\n{title} (normalized per dataset; raw in parentheses)");
    header(&["dataset", "GridGraph-S", "GridGraph-C", "GridGraph-M"]);
    let mut recs = Vec::new();
    for SchemeRuns { id, s, c, m } in results {
        let vals = [get(s), get(c), get(m)];
        let norm = normalize(&vals);
        row(&[
            id.name().into(),
            format!("{:.3} ({})", norm[0], f(vals[0])),
            format!("{:.3} ({})", norm[1], f(vals[1])),
            format!("{:.3} ({})", norm[2], f(vals[2])),
        ]);
        recs.push(json!({ "dataset": id.name(), "S": vals[0], "C": vals[1], "M": vals[2] }));
    }
    Value::Array(recs)
}

/// Figure 9 — total execution time of the 16-job mix (normalized).
pub(crate) fn fig09_total_time(ctx: &mut Ctx) -> Value {
    let results = ctx.sweep();
    let rows = scheme_table("Total execution time (s)", &results, |r| ns_to_s(r.makespan_ns));
    // Paper-style summary: throughput improvement of M over S and C.
    let mut in_mem = (0.0, 0.0);
    let mut ooc = (0.0, 0.0);
    let mut in_n = 0.0;
    let mut ooc_n = 0.0;
    for SchemeRuns { id, s, c, m } in results.iter() {
        let (vs_s, vs_c) = (s.makespan_ns / m.makespan_ns, c.makespan_ns / m.makespan_ns);
        if id.spec().fits_in_memory {
            in_mem.0 += vs_s;
            in_mem.1 += vs_c;
            in_n += 1.0;
        } else {
            ooc.0 += vs_s;
            ooc.1 += vs_c;
            ooc_n += 1.0;
        }
    }
    println!("\nGridGraph-M speedup, in-memory datasets:   {:.2}x vs S, {:.2}x vs C (paper: 2.6x / 1.73x)",
        in_mem.0 / in_n, in_mem.1 / in_n);
    println!(
        "GridGraph-M speedup, out-of-core datasets: {:.2}x vs S, {:.2}x vs C (paper: 11.6x / 13x)",
        ooc.0 / ooc_n,
        ooc.1 / ooc_n
    );
    json!({ "rows": rows })
}

/// Figure 10 — execution-time breakdown: graph processing time vs data
/// accessing time, per scheme and dataset.
pub(crate) fn fig10_breakdown(ctx: &mut Ctx) -> Value {
    let results = ctx.sweep();
    header(&["dataset", "scheme", "process(s)", "access(s)", "access share"]);
    let mut recs = Vec::new();
    for SchemeRuns { id, s, c, m } in results.iter() {
        for r in [s, c, m] {
            let compute = ns_to_s(r.metrics.get(keys::COMPUTE_NS));
            let access = ns_to_s(r.metrics.get(keys::DATA_ACCESS_NS));
            row(&[
                id.name().into(),
                format!("GridGraph-{}", r.scheme.suffix()),
                format!("{compute:.3}"),
                format!("{access:.3}"),
                format!("{:.1}%", access / (access + compute).max(1e-12) * 100.0),
            ]);
            recs.push(json!({
                "dataset": id.name(), "scheme": r.scheme.suffix(),
                "process_s": compute, "access_s": access,
            }));
        }
    }
    println!(
        "\n(paper: M cuts data-access time most where graphs exceed memory — 11.5x on UK-union)"
    );
    json!({ "rows": recs })
}

/// Figure 11 — peak memory usage of the 16-job mix per scheme (normalized).
pub(crate) fn fig11_memory(ctx: &mut Ctx) -> Value {
    let rows = scheme_table("Peak resident bytes", &ctx.sweep(), |r| {
        r.metrics.get(keys::PEAK_MEMORY_BYTES)
    });
    println!("\n(paper: M sits between S and C — one shared graph copy plus all jobs' state)");
    json!({ "rows": rows })
}

/// Figure 12 — total I/O overhead (disk bytes) per scheme (normalized).
pub(crate) fn fig12_io(ctx: &mut Ctx) -> Value {
    let rows = scheme_table("Disk bytes read+written", &ctx.sweep(), |r| {
        r.metrics.get(keys::DISK_READ_BYTES) + r.metrics.get(keys::DISK_WRITE_BYTES)
    });
    println!(
        "\n(paper: I/O collapses under M only for out-of-core graphs — 9.2x vs S on UK-union;"
    );
    println!(" in-memory graphs are read once by every scheme)");
    json!({ "rows": rows })
}

/// Figure 13 — LLC miss rate per scheme and dataset.
pub(crate) fn fig13_llc_missrate(ctx: &mut Ctx) -> Value {
    let results = ctx.sweep();
    header(&["dataset", "GridGraph-S", "GridGraph-C", "GridGraph-M"]);
    let mut recs = Vec::new();
    for SchemeRuns { id, s, c, m } in results.iter() {
        let (rs, rc, rm) = (miss_pct(s), miss_pct(c), miss_pct(m));
        row(&[id.name().into(), format!("{rs:.2}%"), format!("{rc:.2}%"), format!("{rm:.2}%")]);
        recs.push(json!({ "dataset": id.name(), "S": rs, "C": rc, "M": rm }));
    }
    println!("\n(paper: UK-union — 45.3% S, 43.3% C, 15.69% M)");
    json!({ "rows": recs })
}

/// Figure 14 — volume of data swapped into the LLC per scheme (normalized).
pub(crate) fn fig14_llc_volume(ctx: &mut Ctx) -> Value {
    let rows =
        scheme_table("LLC fill bytes", &ctx.sweep(), |r| r.metrics.get(keys::LLC_FILL_BYTES));
    println!("\n(paper: on UK-union, S fills 65% of C's volume and M only 55% of S's)");
    json!({ "rows": rows })
}
