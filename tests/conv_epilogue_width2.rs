//! Fused convolutions at pool width 2 (and 1); see `conv_epilogue/mod.rs`.

mod conv_epilogue;

#[test]
fn fused_conv_matches_the_unfused_kernels_at_width_2() {
    conv_epilogue::configure(2);
    conv_epilogue::fused_conv_matches_the_unfused_kernels();
}
