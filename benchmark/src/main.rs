fn main() -> std::process::ExitCode {
    nodb_benchmark::cli::main(std::env::args().skip(1).collect())
}
