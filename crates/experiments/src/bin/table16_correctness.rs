//! Table XVI: debug-info correctness defects vs O0 ground truth.
fn main() -> std::io::Result<()> {
    let tuner = experiments::make_tuner();
    let programs = experiments::suite_inputs();
    experiments::emit(
        "table16_correctness",
        &experiments::table16_correctness(&tuner, &programs),
    )?;
    Ok(())
}
