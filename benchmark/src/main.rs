//! Command line of the benchmark. Run from the repository root:
//!
//! ```text
//! mc-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! mc-benchmark compare <parent-log> <change-log> [--benchmark BENCHMARK.json]
//! ```

use std::fs;
use std::process::ExitCode;

use mc_benchmark::report::EXIT_REFUSED;
use mc_benchmark::workload::{Workload, WORKERS};
use mc_benchmark::{compare, gate, run, trace, DEFAULT_SECONDS};
use mc_spec::json;

const USAGE: &str = concat!(
    "usage: mc-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]\n",
    "       mc-benchmark compare <parent-log> <change-log> [--benchmark <BENCHMARK.json>]",
);

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\n{USAGE}");
    ExitCode::from(64)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(&format!("--trace takes 0 or 1, not `{value}`")),
            },
            _ => return usage(&format!("unknown argument `{flag}`")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "# mc-benchmark workload={} seed={seed} seconds={seconds} trace={} available_parallelism={parallelism} workers={WORKERS} client=closed-loop",
        workload.name(),
        u8::from(traced),
    );

    let inputs = mc_benchmark::workload::Inputs::generate(workload, seed);
    let refs = match gate::references(&inputs) {
        Ok(refs) => refs,
        Err(e) => {
            eprintln!("correctness gate: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# gate requests={} cycle_flushes={} digest={:016x} rmse={}",
        inputs.requests.len(),
        inputs.cycle(),
        refs.cycle_digest,
        refs.rmse
    );
    drop(inputs);

    let measured = if traced {
        trace::per_layer(workload, seed, seconds, &refs)
    } else {
        run::end_to_end(workload, seed, seconds, &refs)
    };
    let measured = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("measurement failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &measured.notes {
        println!("# {note}");
    }
    for line in measured.readings.lines(workload.name()) {
        println!("{line}");
    }
    println!(
        "{}",
        measured.readings.result_line(measured.correct, measured.attempted, measured.failed)
    );
    if !measured.correct {
        eprintln!("served forecasts differ from the sequential engine's");
        ExitCode::FAILURE
    } else if measured.readings.any_refused() {
        eprintln!("some values were refused: the run was too short to support them");
        ExitCode::from(EXIT_REFUSED as u8)
    } else {
        ExitCode::SUCCESS
    }
}

fn compare_main(args: &[String]) -> ExitCode {
    let (mut files, mut bench_path) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            match it.next() {
                Some(path) => bench_path.clone_from(path),
                None => return usage("--benchmark needs a path"),
            }
        } else {
            files.push(arg);
        }
    }
    let [parent, change] = files[..] else { return usage("compare takes two run logs") };
    let read = |path: &str| fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let loaded = read(parent).and_then(|p| {
        let c = read(change)?;
        let b = read(&bench_path)?;
        Ok((p, c, json::parse(&b).map_err(|e| format!("{bench_path}: {e}"))?))
    });
    match loaded {
        Ok((p, c, bench)) => {
            print!("{}", compare::compare(&p, &c, &bench));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
