//! `misam` — command-line interface to the Misam reproduction.
//!
//! ```text
//! misam train    --out models.json [--samples N] [--latency N] [--seed S]
//! misam predict  --models models.json --a A.mtx (--b B.mtx | --dense-cols N)
//! misam simulate --a A.mtx (--b B.mtx | --dense-cols N) [--design 1..4]
//! misam features --a A.mtx (--b B.mtx | --dense-cols N)
//! misam gen      --kind K --rows N [--cols N] [--density D] [--seed S] --out M.mtx
//! misam designs
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `misam help` for usage");
            ExitCode::FAILURE
        }
    }
}
