//! Table II: debug information quality on libpng.
fn main() -> std::io::Result<()> {
    let tuner = experiments::make_tuner();
    let programs = experiments::suite_inputs();
    experiments::emit(
        "table02_libpng",
        &experiments::table02_libpng(&tuner, &programs),
    )?;
    Ok(())
}
