//! The vector ISA the workspace is built for.
//!
//! `.cargo/config.toml` builds every crate for `x86-64-v3` (AVX2, FMA,
//! BMI2) on x86_64, so the auto-vectorised loops of the sweep run four f64
//! per register.  This test keeps that a gated property of the build rather
//! than a silent detail: deleting the config or overriding its flags fails
//! here.  The bits do not depend on it — CI runs every bit pin at plain
//! `x86-64` as well — only the speed does.

#[cfg(target_arch = "x86_64")]
#[test]
fn the_build_targets_x86_64_v3() {
    let missing: Vec<&str> = [
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("bmi2", cfg!(target_feature = "bmi2")),
    ]
    .into_iter()
    .filter_map(|(feature, on)| (!on).then_some(feature))
    .collect();
    assert!(
        missing.is_empty(),
        "built without {missing:?}: `.cargo/config.toml` sets \
         `-C target-cpu=x86-64-v3` for x86_64, and any RUSTFLAGS (or \
         CARGO_ENCODED_RUSTFLAGS) replaces the config's flags wholesale, so \
         an ad-hoc RUSTFLAGS must repeat `-C target-cpu=x86-64-v3`"
    );
}
