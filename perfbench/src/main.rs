//! `datalog-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit, sample count), then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 1 when an output check failed, 2 on bad arguments.

use datalog_perfbench::report::json_number;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: datalog-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                datalog_perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match datalog_perfbench::run(&args.workload, args.seed, args.seconds, args.trace)
    {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    for m in outcome.metrics.iter().chain(&outcome.notes) {
        println!(
            "{:<48} {:>14.4} {:<7} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }
    if let Some(tracer) = &outcome.tracer {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|d| d.join("perfbench-traces")))
            .unwrap_or_else(|| "perfbench-traces".into());
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: cannot write spans to {}: {e}", path.display()),
        }
    }

    let declared = datalog_perfbench::declared_metrics(args.trace);
    for m in &outcome.metrics {
        if !declared.iter().any(|(name, _)| *name == m.name) {
            println!("note: {} is not declared in BENCHMARK.json", m.name);
        }
    }
    let mut fields = Vec::new();
    for (name, unit) in &declared {
        let value = match outcome.get(name) {
            Some(m) => m.value,
            // A layer this workload does not exercise did no work.
            None if args.trace => 0.0,
            None => {
                eprintln!("error: workload {} did not measure {name}", args.workload);
                return ExitCode::from(2);
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
