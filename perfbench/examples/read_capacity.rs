//! Read capacity of the `service-mixed` daemon: queries per second that
//! one closed-loop reader connection gets through, alone and beside the
//! workload's closed-loop writer. The workload's open-loop `READ_RATE` is
//! a fraction of the figure with the writer; WORKLOADS.md records a run.
//!
//! ```bash
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml \
//!     --example read_capacity -- [seed] [seconds]
//! ```

use datalog_perfbench::service_mixed::{read_capacity, READ_RATE};

fn main() -> Result<(), String> {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<u64>());
    let seed = args.next().unwrap_or(Ok(1)).map_err(|e| e.to_string())?;
    let seconds = args.next().unwrap_or(Ok(20)).map_err(|e| e.to_string())?;
    let alone = read_capacity(seed, seconds, false)?;
    let beside = read_capacity(seed, seconds, true)?;
    println!("seed {seed}, {seconds} s per measurement");
    println!("closed-loop reads alone:             {alone:8.1} /s");
    println!("closed-loop reads beside the writer: {beside:8.1} /s");
    println!(
        "READ_RATE {READ_RATE} /s = {:.2} of the capacity beside the writer",
        READ_RATE / beside
    );
    Ok(())
}
