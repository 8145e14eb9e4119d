//! `sintel-perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Progress and failed checks go to standard error.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match sintel_perfbench::Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match sintel_perfbench::run(&opts) {
        Ok(outcome) => {
            for problem in outcome.problems.iter().take(20) {
                eprintln!("perfbench: check failed: {problem}");
            }
            if outcome.problems.len() > 20 {
                eprintln!(
                    "perfbench: {} more failed checks",
                    outcome.problems.len() - 20
                );
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}
