//! The `optpower` binary: every verb lives in [`optpower_serve::cli`].

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    optpower_serve::cli::main(&args)
}
