//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload paper-quick|design-sweep|mc-sensitivity
//!           --seed N --seconds S --trace 0|1
//! perfbench --capture DIR     # rewrite the reference files in DIR
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.

use perfbench::{Ctx, Recorder, WORKLOADS};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload paper-quick|design-sweep|mc-sensitivity \
                     --seed N --seconds S --trace 0|1 | --capture DIR";

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--capture" => flag.as_str(),
            other => fail(&format!("unknown argument {other:?}")),
        };
        let value = it.next().unwrap_or_else(|| fail(&format!("{name} needs a value")));
        if flags.insert(name, value.as_str()).is_some() {
            fail(&format!("{name} given twice"));
        }
    }

    if let Some(dir) = flags.get("--capture") {
        if flags.len() > 1 {
            fail("--capture takes no other argument");
        }
        let dir = std::path::Path::new(dir);
        for w in WORKLOADS {
            let path = dir.join(format!("{w}.txt"));
            let text = perfbench::capture(w);
            std::fs::write(&path, text)
                .unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
            eprintln!("perfbench: wrote {}", path.display());
        }
        return;
    }

    let get = |name: &str| *flags.get(name).unwrap_or_else(|| fail(&format!("{name} is required")));
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == get("--workload"))
        .unwrap_or_else(|| fail(&format!("unknown workload {:?}", get("--workload"))));
    let seed: u64 = get("--seed").parse().unwrap_or_else(|_| fail("--seed must be an integer"));
    let seconds: u32 =
        get("--seconds").parse().unwrap_or_else(|_| fail("--seconds must be a whole number"));
    if !(1..=600).contains(&seconds) {
        fail("--seconds must be in 1..=600");
    }
    let traced = match get("--trace") {
        "0" => false,
        "1" => true,
        _ => fail("--trace must be 0 or 1"),
    };

    let mut ctx =
        Ctx { workload, seed, seconds: f64::from(seconds), rec: Recorder::new(traced), start };
    let outcome = perfbench::run(&mut ctx);
    match outcome.result_line(traced) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
