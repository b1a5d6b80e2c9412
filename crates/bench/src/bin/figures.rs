//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p ishare-bench --release --bin figures -- all
//! cargo run -p ishare-bench --release --bin figures -- fig14 --sf 0.01
//! ```
//!
//! Experiments: fig9, fig10, fig11, fig12, table1 (runs fig9+11+12),
//! fig13 (with table2), fig14 (with table3), fig15, fig16, fig17a,
//! fig17b, fig17c, kernels
//! (datapath kernels vs reference operators → `BENCH_kernels.json`),
//! adapt (static vs adaptive paces under statistics drift →
//! `BENCH_adapt.json`), obs (observability overhead gate →
//! `BENCH_obs.json`, fails above 5% overhead), churn (online admission:
//! incremental merge vs full rebuild and state handoff vs history replay
//! → `BENCH_churn.json`, fails unless the incremental merge is strictly
//! cheaper), all.
//!
//! Options: `--sf <f64>`, `--seed <u64>`, `--max-pace <u32>`,
//! `--random-sets <n>`.

use ishare_bench::experiments::{self, Params};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut params = Params::default();
    let mut exp = String::from("all");
    let mut i = 0;
    fn value<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> T {
        *i += 1;
        args.get(*i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} expects a value (got {:?})", args.get(*i));
            std::process::exit(2);
        })
    }
    while i < args.len() {
        match args[i].as_str() {
            "--sf" => params.sf = value(&args, &mut i, "--sf <f64>"),
            "--seed" => params.seed = value(&args, &mut i, "--seed <u64>"),
            "--max-pace" => params.max_pace = value(&args, &mut i, "--max-pace <u32>"),
            "--random-sets" => params.random_sets = value(&args, &mut i, "--random-sets <n>"),
            other if !other.starts_with("--") => exp = other.to_string(),
            other => {
                eprintln!("unknown option {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if params.sf <= 0.0 {
        eprintln!("--sf must be positive");
        std::process::exit(2);
    }
    println!(
        "iShare experiment harness — sf {}, seed {}, max pace {}",
        params.sf, params.seed, params.max_pace
    );

    let run = |name: &str, params: &Params| {
        let r = match name {
            "fig9" => experiments::fig9(params).map(|_| ()),
            "fig10" => experiments::fig10(params),
            "fig11" => experiments::fig11(params).map(|_| ()),
            "fig12" => experiments::fig12(params).map(|_| ()),
            "table1" => experiments::table1(params),
            "fig13" | "table2" => experiments::fig13_table2(params),
            "fig14" | "table3" => experiments::fig14_table3(params),
            "fig15" => experiments::fig15(params),
            "fig16" => experiments::fig16(params),
            "fig17a" => experiments::fig17(params, 'a'),
            "fig17b" => experiments::fig17(params, 'b'),
            "fig17c" => experiments::fig17(params, 'c'),
            "kernels" => experiments::kernel_bench(params),
            "adapt" => experiments::adapt(params),
            "obs" => experiments::obs_overhead(params),
            "churn" => experiments::churn(params),
            other => {
                eprintln!("unknown experiment `{other}`");
                std::process::exit(2);
            }
        };
        if let Err(e) = r {
            eprintln!("{name} failed: {e}");
            std::process::exit(1);
        }
    };

    if exp == "all" {
        for name in [
            "fig10", "table1", "fig13", "fig14", "fig15", "fig16", "fig17a", "fig17b", "fig17c",
            "kernels", "adapt", "obs", "churn",
        ] {
            run(name, &params);
        }
    } else {
        run(&exp, &params);
    }
}
