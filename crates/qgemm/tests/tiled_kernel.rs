//! Tiled-kernel equivalence suite: the lane orientation, the
//! cache-blocked tile grid, the multi-core tile dispatch and the narrow
//! product-pair LUT must all be pure performance transforms. Every tile
//! shape x thread count combination reproduces the lanes=1/threads=1
//! scalar reference bit-for-bit — on wide shapes (lanes along `n`), tall
//! ones (lanes along `m`, computing `C^T = B^T A^T`) and every width of
//! the 16/32/48/64-lane remainder block in both frames — the pair LUT changes nothing when
//! toggled, and formats outside the narrow envelope (which silently fall
//! back to the wide u64 kernel) obey the same invariances.
//!
//! (Lane-width invariance at the default tiling lives in
//! `tests/lane_batch.rs`; the operand-level narrow/wide adder
//! equivalence lives next to the implementation in `src/batch.rs`.)

use srmac_fp::FpFormat;
use srmac_qgemm::{AccumRounding, MacGemm, MacGemmConfig, TileConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::GemmEngine;

fn rand_vec(n: usize, seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.next_f64() as f32 - 0.5) * scale)
        .collect()
}

fn relu_sparse_vec(n: usize, seed: u64, sparsity: f64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let v = rng.next_f64() as f32 - 0.5;
            if rng.next_f64() < sparsity {
                if rng.next_f64() < 0.5 {
                    0.0
                } else {
                    -0.0
                }
            } else {
                v
            }
        })
        .collect()
}

/// Wide shapes (`n >= m`, lanes along `n`). The lane dimension is cut
/// into 64-lane blocks and one remainder block of `16 * ceil(r / 16)`
/// lanes for `r = n % 64`; the lane dimensions 1, 8, 16, 33, 48, 63, 67,
/// 80, 130 and 200 give every remainder width (16/32/48/64 lanes, i.e.
/// one to four chains, padded and exact) behind zero, one, two and three
/// full blocks.
const SHAPES: [(usize, usize, usize); 10] = [
    (5, 33, 67),
    (17, 40, 130),
    (3, 57, 8),
    (9, 48, 200),
    (1, 9, 1),
    (16, 24, 16),
    (6, 31, 33),
    (3, 20, 48),
    (2, 50, 63),
    (5, 12, 80),
];

/// Shapes whose lane orientation or padding differs from the wide
/// shapes above: tall products that run transposed (`m > n`, lanes along
/// `m`: lane dimensions 16, 17, 33, 48, 63, 64, 80, 113, 129, 130, 150
/// and 200, so every remainder width runs in this frame too), wide ones
/// with lane dimensions 17, 36 and 113, and the `(144, 16, 144)` tie,
/// which keeps the lanes along `n` (144 = 2 x 64 + 16). `(130, 36, 4)` is
/// the shape class of a ResNet-20 w4 stage-1 forward convolution,
/// `(4, 300, 17)` of a conv0 weight gradient.
const ORIENTED_SHAPES: [(usize, usize, usize); 17] = [
    (130, 36, 4),
    (200, 8, 36),
    (4, 300, 36),
    (64, 16, 10),
    (129, 5, 72),
    (4, 300, 17),
    (150, 9, 48),
    (144, 16, 144),
    (4, 200, 113),
    (16, 9, 3),
    (17, 6, 16),
    (33, 12, 2),
    (48, 7, 5),
    (63, 4, 1),
    (80, 7, 3),
    (113, 11, 5),
    (200, 3, 113),
];

const TILES: [TileConfig; 4] = [
    TileConfig {
        row_tile: 1,
        col_tile: 64,
    },
    TileConfig {
        row_tile: 3,
        col_tile: 64,
    },
    TileConfig {
        row_tile: 8,
        col_tile: 128,
    },
    TileConfig {
        row_tile: 32,
        col_tile: 512,
    },
];

fn assert_bits_eq(reference: &[f32], out: &[f32], what: &str) {
    let same = reference
        .iter()
        .zip(out)
        .all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(same, "{what}: output bits changed");
}

fn scalar_reference(
    config: MacGemmConfig,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
) -> Vec<f32> {
    let engine = MacGemm::new(config.with_threads(1)).with_lane_width(1);
    let mut out = vec![0.0f32; m * n];
    engine.gemm(m, k, n, a, b, &mut out);
    out
}

/// The load-bearing invariance of the tentpole: every tile shape x
/// thread count reproduces the scalar single-thread reference exactly,
/// under SR (where any dispatch-order leak would scramble the
/// position-seeded streams) and RN.
#[test]
fn tile_thread_grid_is_bitwise_invariant() {
    for rounding in [AccumRounding::Stochastic { r: 13 }, AccumRounding::Nearest] {
        let config = MacGemmConfig::fp8_fp12(rounding, false);
        for &(m, k, n) in SHAPES.iter().chain(&ORIENTED_SHAPES) {
            let a = rand_vec(m * k, 100 + (m * n) as u64, 2.0);
            let b = rand_vec(k * n, 200 + (k * n) as u64, 2.0);
            let reference = scalar_reference(config, m, k, n, &a, &b);
            for tiles in TILES {
                for threads in [1usize, 2, 3, 8] {
                    let engine = MacGemm::new(config.with_threads(threads)).with_tiles(tiles);
                    let mut out = vec![0.0f32; m * n];
                    engine.gemm(m, k, n, &a, &b, &mut out);
                    assert_bits_eq(
                        &reference,
                        &out,
                        &format!("{rounding:?} {m}x{k}x{n} tiles={tiles:?} threads={threads}"),
                    );
                }
            }
        }
    }
}

/// The prepared-operand path (`gemm_packed`) walks the same tile grid;
/// tile geometry must be equally invisible there, including when the
/// packed operands came from a *differently tiled* engine (packing is
/// tile-independent by contract).
#[test]
fn packed_path_is_tile_invariant() {
    let (m, k, n) = (17usize, 40, 130);
    let config = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, false);
    let a = rand_vec(m * k, 41, 2.0);
    let b = rand_vec(k * n, 42, 2.0);
    let reference = scalar_reference(config, m, k, n, &a, &b);
    let packer = MacGemm::new(config.with_threads(1));
    let (pa, pb) = (packer.pack_a(m, k, &a), packer.pack_b(k, n, &b));
    for tiles in TILES {
        for threads in [1usize, 3] {
            let engine = MacGemm::new(config.with_threads(threads)).with_tiles(tiles);
            let mut out = vec![0.0f32; m * n];
            engine.gemm_packed(m, k, n, &pa, &pb, &mut out);
            assert_bits_eq(
                &reference,
                &out,
                &format!("packed tiles={tiles:?} threads={threads}"),
            );
        }
    }
}

/// The narrow product-pair LUT is engaged by default for the paper's
/// E6M5 family and must be a no-op in the bits when toggled off (wide
/// u64 fallback), across rounding modes, subnormal handling, ragged
/// shapes and both lane orientations.
#[test]
fn pair_lut_toggle_changes_no_bits() {
    for rounding in [AccumRounding::Stochastic { r: 13 }, AccumRounding::Nearest] {
        for subnormals in [false, true] {
            let config = MacGemmConfig::fp8_fp12(rounding, subnormals);
            for &(m, k, n) in SHAPES.iter().chain(&ORIENTED_SHAPES) {
                let a = rand_vec(m * k, 300 + n as u64, 2.0);
                let b = rand_vec(k * n, 400 + n as u64, 2.0);
                let on = MacGemm::new(config.with_threads(1));
                assert!(
                    on.pair_lut_active(),
                    "E6M5 family must engage the narrow pair LUT by default"
                );
                let off = MacGemm::new(config.with_threads(1)).with_pair_lut(false);
                assert!(!off.pair_lut_active());
                let mut out_on = vec![0.0f32; m * n];
                on.gemm(m, k, n, &a, &b, &mut out_on);
                let mut out_off = vec![0.0f32; m * n];
                off.gemm(m, k, n, &a, &b, &mut out_off);
                assert_bits_eq(
                    &out_on,
                    &out_off,
                    &format!("{rounding:?} sub={subnormals} {m}x{k}x{n} pair LUT toggle"),
                );
            }
        }
    }
}

/// An accumulator outside the narrow envelope (E5M10 at SR13) must
/// decline the pair LUT and still honor the tile/thread invariance on
/// the wide kernel it falls back to.
#[test]
fn wide_fallback_format_keeps_tile_invariance() {
    let config = MacGemmConfig::fp8_acc(
        FpFormat::e5m10(),
        AccumRounding::Stochastic { r: 13 },
        false,
    );
    let probe = MacGemm::new(config.with_threads(1));
    assert!(
        !probe.pair_lut_active(),
        "E5M10 @ SR13 exceeds the narrow envelope; the gate must disengage"
    );
    let (m, k, n) = (9usize, 48, 200);
    let a = rand_vec(m * k, 51, 2.0);
    let b = rand_vec(k * n, 52, 2.0);
    let reference = scalar_reference(config, m, k, n, &a, &b);
    for tiles in [TILES[0], TILES[2], TILES[3]] {
        for threads in [1usize, 3] {
            let engine = MacGemm::new(config.with_threads(threads)).with_tiles(tiles);
            let mut out = vec![0.0f32; m * n];
            engine.gemm(m, k, n, &a, &b, &mut out);
            assert_bits_eq(
                &reference,
                &out,
                &format!("e5m10 tiles={tiles:?} threads={threads}"),
            );
        }
    }
}

/// ReLU-sparse inputs (zero-product skip interacts with SR draw
/// consumption), `-0` codes in both operands, NaN codes (which decide
/// which operand may be zero-skipped) and saturating inputs (the
/// special-lane scalar fixup) must survive the tiled multi-core path
/// bit-for-bit, in both lane orientations.
#[test]
fn sparse_and_special_inputs_survive_tiling() {
    let config = MacGemmConfig::fp8_fp12(AccumRounding::Stochastic { r: 13 }, true);
    let check = |m: usize, k: usize, n: usize, a: &[f32], b: &[f32], what: &str| {
        let reference = scalar_reference(config, m, k, n, a, b);
        for tiles in [TILES[1], TILES[3]] {
            for threads in [1usize, 3] {
                let engine = MacGemm::new(config.with_threads(threads)).with_tiles(tiles);
                let mut out = vec![0.0f32; m * n];
                engine.gemm(m, k, n, a, b, &mut out);
                assert_bits_eq(
                    &reference,
                    &out,
                    &format!("{what} {m}x{k}x{n} tiles={tiles:?} threads={threads}"),
                );
            }
        }
        reference
    };
    for &(m, k, n) in [(11usize, 83, 67)].iter().chain(&ORIENTED_SHAPES) {
        let seed = (m * k * n) as u64;
        // ReLU-sparse A against dense B, then `+0`/`-0` codes in both.
        let a = relu_sparse_vec(m * k, 61 + seed, 0.6);
        check(m, k, n, &a, &rand_vec(k * n, 62 + seed, 2.0), "sparse A");
        check(
            m,
            k,
            n,
            &a,
            &relu_sparse_vec(k * n, 63 + seed, 0.5),
            "signed zeros in A and B",
        );

        // NaN in A at a k where B's codes are zero: `NaN * 0 = NaN`
        // must reach those outputs, so B's zeros may not be skipped (the
        // NaN-carrying A keeps lanes along n, even when m > n).
        let (i, kk) = (m / 2, k / 2);
        let mut nan_a = rand_vec(m * k, 64 + seed, 2.0);
        nan_a[i * k + kk] = f32::NAN;
        let mut zero_b = rand_vec(k * n, 65 + seed, 2.0);
        for j in 0..n {
            zero_b[kk * n + j] = if j % 2 == 0 { 0.0 } else { -0.0 };
        }
        let out = check(m, k, n, &nan_a, &zero_b, "NaN in A over zero B codes");
        assert!(
            out[i * n..(i + 1) * n].iter().all(|v| v.is_nan()),
            "{m}x{k}x{n}: NaN * 0 must poison A's row"
        );
        // NaN in both operands: the dense fallback.
        let mut nan_b = zero_b.clone();
        nan_b[(k - 1) * n] = f32::NAN;
        check(m, k, n, &nan_a, &nan_b, "NaN in A and B");
        // NaN in B alone, against sparse A.
        check(m, k, n, &a, &nan_b, "NaN in B");
    }

    // Saturating magnitudes drive the accumulator to infinity; the
    // special path diverts to the scalar fixup inside the vector loop.
    for (m, k, n) in [(11usize, 83, 67), (130, 36, 4)] {
        let sat_a = vec![40000.0f32; m * k];
        let sat_b = vec![40000.0f32; k * n];
        let sat_ref = scalar_reference(config, m, k, n, &sat_a, &sat_b);
        assert!(sat_ref.iter().all(|v| v.is_infinite()));
        for threads in [1usize, 3] {
            let engine = MacGemm::new(config.with_threads(threads)).with_tiles(TILES[2]);
            let mut out = vec![0.0f32; m * n];
            engine.gemm(m, k, n, &sat_a, &sat_b, &mut out);
            assert_bits_eq(
                &sat_ref,
                &out,
                &format!("saturated {m}x{k}x{n} threads={threads}"),
            );
        }
    }
}

/// Tile accessors and validation: the builder round-trips, and
/// `TileConfig::auto` is what a fresh engine reports.
#[test]
fn tile_config_accessors() {
    let config = MacGemmConfig::fp8_fp12(AccumRounding::Nearest, false);
    let engine = MacGemm::new(config);
    assert_eq!(engine.tiles(), TileConfig::auto());
    let custom = TileConfig {
        row_tile: 7,
        col_tile: 192,
    };
    assert_eq!(MacGemm::new(config).with_tiles(custom).tiles(), custom);
}
