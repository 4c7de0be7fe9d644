//! Runs every reproduction experiment and prints all tables/figures,
//! simulating each distinct AutoNUMA run once for the whole suite
//! (DESIGN.md §13, run sharing). A failing experiment is recorded and
//! the rest still run; the exit code is nonzero if anything failed.
//! `repro_all dump`, `repro_all ablate` and `repro_all tune` run the
//! artifact trace dump, the DESIGN.md §5 ablations and the knob
//! auto-tuner (DESIGN.md §16) instead. `tiersim_bench::repro_all` parses and
//! dispatches them all; its crate docs list which command honours which
//! flag.

fn main() {
    std::process::exit(tiersim_bench::repro_all(std::env::args().skip(1)))
}
