//! Table I: measurement-method comparison on synthetic programs.
fn main() -> std::io::Result<()> {
    let tuner = experiments::make_tuner();
    experiments::emit("table01_methods", &experiments::table01_methods(&tuner))?;
    Ok(())
}
