//! The traced run's binary: the benchmark on the counting allocator.

#[global_allocator]
static GLOBAL: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main(true)
}
