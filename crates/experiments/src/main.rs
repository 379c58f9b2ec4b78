//! `specmpk-experiments <name>`: runs one entry of
//! `specmpk_experiments::EXPERIMENTS`, or `all` for the paper's tables and
//! figures, printing each table and writing
//! `experiments_output/<name>.json`.
//!
//! Exit codes: 0 on success, 1 when an artifact cannot be written, 2 on a
//! usage error (a missing, extra or unknown name, or a malformed budget
//! variable).

use specmpk_experiments::{run, usage, RunError};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<_> = std::env::args_os().skip(1).collect();
    let [name] = args.as_slice() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match run(&name.to_string_lossy()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(if matches!(e, RunError::UnknownName(_)) { 2 } else { 1 })
        }
    }
}
