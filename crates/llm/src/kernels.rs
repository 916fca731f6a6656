//! Region-accumulation matvec kernels over packed FP4 weights.
//!
//! A Hardwired Neuron never multiplies (Figure 4, §4.2): each input is
//! routed into one of 16 POPCNT accumulator regions keyed by its FP4 weight
//! code, the 16 per-region sums are weighted by the E2M1 magnitude lattice,
//! and a final shift applies the scale. These kernels compute `x · W`
//! directly on [`PackedFp4Matrix`] codes the same way — no dequantized
//! tensor ever exists — in two interchangeable realizations:
//!
//! * **Scalar region kernel** ([`region_matvec_block_into`]): the textbook
//!   form. Per output column, bucket `x_i` by the stored 4-bit code, then
//!   combine buckets with [`MAGNITUDES`] and the per-matrix norm. This is
//!   the semantic ground truth (and the portable fallback).
//! * **Vectorized half-unit kernel** (x86-64 AVX2+FMA, selected at
//!   runtime): the same 16 regions realized as the constant-multiplier
//!   bank. Every FP4 value is an exact multiple of 0.5, so a 16-entry
//!   `pshufb` lookup maps each nibble to its signed integer half-unit
//!   ([`HALF_UNITS`]) — the per-region constant the hardware wires — and an
//!   FMA accumulates `x_i · hu` with the trailing ×0.5 folded into the
//!   norm. Associativity of the per-region grouping is the only difference
//!   (float sums reorder), which is why both realizations agree to ~1e-5
//!   relative, not bitwise.
//!
//! Both inference engines call these kernels for every projection, router,
//! and expert matvec, so within one process they see one arithmetic: the
//! engines' token streams stay in lockstep exactly as they did on the dense
//! `f32` path.

use crate::tensor::add_assign;
use hnlpu_model::fp4::{HALF_UNITS, MAGNITUDES, NUM_CODES};
use hnlpu_model::PackedFp4Matrix;
use std::ops::Range;

/// Activation vectors processed together per scalar token block of the
/// matmul kernels (one pass over a column's packed bytes serves this many
/// tokens before the next pass).
const SCALAR_TOKEN_BLOCK: usize = 8;

/// Fixed row-split factor of the row-partitioned matvecs — the same 4-way
/// partitioning a chip column of the 4×4 fabric applies to its weight
/// block, so the software split reproduces the dataflow partial-sum
/// numerics exactly.
pub const ROW_SPLITS: usize = 4;

/// Minimum `rows × cols` product before a row-partitioned matvec actually
/// fans out across threads. Below this the split still happens (the
/// reduction order is part of the numerics) but runs on the calling
/// thread: the vendored `rayon` spawns scoped threads per call, and at
/// test-model sizes the spawn costs more than the matvec.
pub const ROWS_PARALLEL_MIN_WORK: usize = 1 << 21;

/// Cores visible to the row-partitioned path, queried once per process.
/// Purely a scheduling input: whether the splits fan out or run inline,
/// the partials and their reduction order are identical.
#[cfg(feature = "parallel")]
fn row_workers() -> usize {
    use std::sync::OnceLock;
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `out = x · W` over the whole packed matrix (`x.len() == rows`,
/// `out.len() == cols`).
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn matvec_into(x: &[f32], m: &PackedFp4Matrix, out: &mut [f32]) {
    matvec_block_into(x, m, 0, 0..m.cols(), out);
}

/// Partial product `out = x · W[row_offset .. row_offset + x.len(),
/// col_range]`, overwriting `out` — the dataflow executor's workhorse: a
/// chip holds a block of the packed matrix and produces a partial sum for
/// its column group.
///
/// # Panics
///
/// Panics if the addressed block exceeds the matrix shape or
/// `out.len() != col_range.len()`.
pub fn matvec_block_into(
    x: &[f32],
    m: &PackedFp4Matrix,
    row_offset: usize,
    col_range: Range<usize>,
    out: &mut [f32],
) {
    assert!(row_offset + x.len() <= m.rows(), "row block out of bounds");
    assert!(col_range.end <= m.cols(), "col range out of bounds");
    assert_eq!(out.len(), col_range.len(), "output length mismatch");
    // The vectorized path walks packed bytes from the first addressed
    // column, so it needs the range to start on a byte boundary; odd
    // starts (never produced by the engines) take the scalar kernel.
    #[cfg(target_arch = "x86_64")]
    if col_range.start.is_multiple_of(2) && avx2::available() {
        // SAFETY: AVX2+FMA presence checked at runtime; bounds above.
        unsafe { avx2::matvec_block(x, m, row_offset, col_range, out) };
        return;
    }
    region_matvec_block_into(x, m, row_offset, col_range, out);
}

/// The scalar region-accumulation kernel (semantic reference and portable
/// fallback): per output column, accumulate each `x_i` into one of 16
/// buckets indexed by the stored code — one add per weight, no multiply —
/// then combine the buckets with the magnitude lattice and the norm.
///
/// # Panics
///
/// Panics on the same conditions as [`matvec_block_into`].
pub fn region_matvec_block_into(
    x: &[f32],
    m: &PackedFp4Matrix,
    row_offset: usize,
    col_range: Range<usize>,
    out: &mut [f32],
) {
    assert!(row_offset + x.len() <= m.rows(), "row block out of bounds");
    assert!(col_range.end <= m.cols(), "col range out of bounds");
    assert_eq!(out.len(), col_range.len(), "output length mismatch");
    let stride = m.stride();
    let data = m.data();
    let norm = m.norm();
    for (o, j) in out.iter_mut().zip(col_range) {
        let shift = (j % 2) * 4;
        let col = j / 2;
        let mut buckets = [0.0f32; NUM_CODES];
        for (i, &xi) in x.iter().enumerate() {
            let byte = data[(row_offset + i) * stride + col];
            buckets[((byte >> shift) & 0x0F) as usize] += xi;
        }
        *o = combine_regions(&buckets) * norm;
    }
}

/// `outs = Xs · W` for a panel of `t` activation vectors over the whole
/// packed matrix: row `tt` of the activation panel (starting at
/// `xs[tt * x_stride]`, `m.rows()` long) produces row `tt` of the output
/// panel (starting at `outs[tt * out_stride]`, `m.cols()` wide).
///
/// Each output row is **bit-identical** to `matvec_into` on the same
/// activation row — see [`matmul_block_into`].
///
/// # Panics
///
/// Panics on shape mismatch (see [`matmul_block_into`]).
pub fn matmul_into(
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    outs: &mut [f32],
    out_stride: usize,
) {
    matmul_block_into(
        xs,
        x_stride,
        t,
        m,
        0,
        m.rows(),
        0..m.cols(),
        outs,
        out_stride,
    );
}

/// Panel partial product: for each of `t` activation rows, compute
/// `outs_row = xs_row · W[row_offset .. row_offset + rows, col_range]` —
/// the multi-token generalization of [`matvec_block_into`] that makes one
/// pass over the packed codes serve a whole prefill chunk.
///
/// Activation row `tt` starts at `xs[tt * x_stride]` and is `rows` long;
/// output row `tt` starts at `outs[tt * out_stride]` and is
/// `col_range.len()` wide, so both panels may be strided slices of wider
/// arenas (e.g. a chip's row slice of the activation panel).
///
/// **Bit-identity contract:** every output row equals
/// `matvec_block_into(xs_row, m, row_offset, col_range, outs_row)` bit for
/// bit, in both realizations. The per-column accumulation chain depends
/// only on the row iteration order (ascending) and the accumulation
/// operation (scalar bucket adds / vector FMAs), neither of which changes
/// with the panel width — so prefill results are independent of how a
/// prompt is chunked into panels, and the differential harnesses stay
/// token-exact.
///
/// # Panics
///
/// Panics if the addressed block exceeds the matrix shape, or `xs`/`outs`
/// are too short for `t` strided rows.
#[allow(clippy::too_many_arguments)]
pub fn matmul_block_into(
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    row_offset: usize,
    rows: usize,
    col_range: Range<usize>,
    outs: &mut [f32],
    out_stride: usize,
) {
    if t == 0 {
        return;
    }
    assert!(row_offset + rows <= m.rows(), "row block out of bounds");
    assert!(col_range.end <= m.cols(), "col range out of bounds");
    assert!(
        xs.len() >= (t - 1) * x_stride + rows,
        "activation panel too short"
    );
    assert!(
        outs.len() >= (t - 1) * out_stride + col_range.len(),
        "output panel too short"
    );
    // Same dispatch condition as `matvec_block_into`, so each row's
    // realization matches what the per-token path would have picked.
    #[cfg(target_arch = "x86_64")]
    if col_range.start.is_multiple_of(2) && avx2::available() {
        // SAFETY: AVX2+FMA presence checked at runtime; bounds above.
        unsafe {
            avx2::matmul_block(
                xs, x_stride, t, m, row_offset, rows, col_range, outs, out_stride,
            )
        };
        return;
    }
    region_matmul_block_into(
        xs, x_stride, t, m, row_offset, rows, col_range, outs, out_stride,
    );
}

/// The scalar multi-token region-accumulation kernel: per output column,
/// read each packed byte **once** and route the corresponding `x_i` of
/// every activation row in the token block into that row's 16 buckets —
/// the Figure-4 region pass amortized over up to [`SCALAR_TOKEN_BLOCK`]
/// tokens — then combine each row's buckets with the magnitude lattice.
///
/// Per activation row this performs exactly the bucket-accumulation chain
/// of [`region_matvec_block_into`] (rows ascending, one add per weight),
/// so each output row is bit-identical to the per-token kernel.
///
/// # Panics
///
/// Panics on the same conditions as [`matmul_block_into`].
#[allow(clippy::too_many_arguments)]
pub fn region_matmul_block_into(
    xs: &[f32],
    x_stride: usize,
    t: usize,
    m: &PackedFp4Matrix,
    row_offset: usize,
    rows: usize,
    col_range: Range<usize>,
    outs: &mut [f32],
    out_stride: usize,
) {
    if t == 0 {
        return;
    }
    assert!(row_offset + rows <= m.rows(), "row block out of bounds");
    assert!(col_range.end <= m.cols(), "col range out of bounds");
    assert!(
        xs.len() >= (t - 1) * x_stride + rows,
        "activation panel too short"
    );
    assert!(
        outs.len() >= (t - 1) * out_stride + col_range.len(),
        "output panel too short"
    );
    let stride = m.stride();
    let data = m.data();
    let norm = m.norm();
    let mut tb = 0;
    while tb < t {
        let bt = (t - tb).min(SCALAR_TOKEN_BLOCK);
        for j in col_range.start..col_range.end {
            let shift = (j % 2) * 4;
            let col = j / 2;
            let mut buckets = [[0.0f32; NUM_CODES]; SCALAR_TOKEN_BLOCK];
            for i in 0..rows {
                let byte = data[(row_offset + i) * stride + col];
                let code = ((byte >> shift) & 0x0F) as usize;
                for (tt, b) in buckets[..bt].iter_mut().enumerate() {
                    b[code] += xs[(tb + tt) * x_stride + i];
                }
            }
            for (tt, b) in buckets[..bt].iter_mut().enumerate() {
                outs[(tb + tt) * out_stride + (j - col_range.start)] = combine_regions(b) * norm;
            }
        }
        tb += bt;
    }
}

/// Row-partitioned matvec with the dataflow's fixed 4-way split: row block
/// `s` covers rows `[s·rows/4, (s+1)·rows/4)`, each block's partial
/// product lands in `partials[s · col_range.len() ..]`, and the partials
/// are reduced into `out` in block order — exactly the partial-sum
/// numerics a chip column of the 4×4 fabric produces, independent of
/// whether the blocks ran in parallel.
///
/// With the `parallel` feature, `rows × cols ≥`
/// [`ROWS_PARALLEL_MIN_WORK`], and more than one core available, the four
/// blocks run on scoped worker threads; otherwise they run sequentially on
/// the calling thread (a single-core host would pay the per-call spawn
/// cost with nothing to overlap). Both schedules write the identical
/// partials and reduce them in the identical order, so the result is
/// bit-exact across feature sets and core counts.
///
/// # Panics
///
/// Panics if `x.len() != m.rows()`, the column range exceeds the matrix,
/// `out.len() != col_range.len()`, or `partials` is shorter than
/// `ROW_SPLITS × out.len()`.
pub fn matvec_rows_split_into(
    x: &[f32],
    m: &PackedFp4Matrix,
    col_range: Range<usize>,
    out: &mut [f32],
    partials: &mut [f32],
) {
    assert_eq!(x.len(), m.rows(), "input length mismatch");
    assert!(col_range.end <= m.cols(), "col range out of bounds");
    assert_eq!(out.len(), col_range.len(), "output length mismatch");
    let rows = x.len();
    let w = out.len();
    assert!(
        partials.len() >= ROW_SPLITS * w,
        "partials buffer too short"
    );
    let (cs, ce) = (col_range.start, col_range.end);
    let parts = &mut partials[..ROW_SPLITS * w];
    #[cfg(feature = "parallel")]
    if rows * w >= ROWS_PARALLEL_MIN_WORK && row_workers() > 1 {
        std::thread::scope(|sc| {
            let mut rest = &mut *parts;
            for s in 0..ROW_SPLITS {
                let (part, tail) = rest.split_at_mut(w);
                rest = tail;
                let xr = &x[s * rows / ROW_SPLITS..(s + 1) * rows / ROW_SPLITS];
                sc.spawn(move || matvec_block_into(xr, m, s * rows / ROW_SPLITS, cs..ce, part));
            }
        });
        reduce_partials(parts, out, w);
        return;
    }
    for s in 0..ROW_SPLITS {
        matvec_block_into(
            &x[s * rows / ROW_SPLITS..(s + 1) * rows / ROW_SPLITS],
            m,
            s * rows / ROW_SPLITS,
            cs..ce,
            &mut parts[s * w..(s + 1) * w],
        );
    }
    reduce_partials(parts, out, w);
}

/// Multi-core matvec: split the full-matrix product row-wise across
/// workers when the matrix is large enough to pay for the fan-out,
/// otherwise keep the single accumulation chain of [`matvec_into`].
///
/// The split decision depends only on the matrix shape, and the split path
/// reduces partials in fixed order ([`matvec_rows_split_into`]), so the
/// result is deterministic and identical across `parallel`/serial builds.
/// At or above [`ROWS_PARALLEL_MIN_WORK`] the four-way reduction is a
/// different summation order from [`matvec_into`] and [`matmul_into`], so
/// no engine uses this kernel: both decode through the matmul panel path,
/// whose summation order does not depend on the panel width. It is kept
/// for the `rows_parallel` micro-benchmark.
///
/// # Panics
///
/// Panics if `x.len() != m.rows()`, `out.len() != m.cols()`, or `partials`
/// is shorter than `ROW_SPLITS × m.cols()` when the split engages.
pub fn matvec_rows_parallel_into(
    x: &[f32],
    m: &PackedFp4Matrix,
    out: &mut [f32],
    partials: &mut [f32],
) {
    if m.rows() * m.cols() < ROWS_PARALLEL_MIN_WORK {
        matvec_into(x, m, out);
        return;
    }
    matvec_rows_split_into(x, m, 0..m.cols(), out, partials);
}

/// In-order reduction of the 4 row-block partials: `out = 0 + p0 + p1 +
/// p2 + p3`, replicating the dataflow column all-reduce (which starts from
/// a zeroed accumulator) bit for bit.
fn reduce_partials(parts: &[f32], out: &mut [f32], w: usize) {
    out.fill(0.0);
    for s in 0..ROW_SPLITS {
        add_assign(out, &parts[s * w..(s + 1) * w]);
    }
}

/// The 16 per-region input sums for one output column of `x · W` — what a
/// Hardwired Neuron's POPCNT accumulator regions hold right before the
/// magnitude combine. Exposed for tests and analyses: with `x = 1⃗`, region
/// `k` equals the column's occupancy count of code `k`.
///
/// # Panics
///
/// Panics if `x.len() != m.rows()` or `col >= m.cols()`.
pub fn region_sums(x: &[f32], m: &PackedFp4Matrix, col: usize) -> [f32; NUM_CODES] {
    assert_eq!(x.len(), m.rows(), "input length mismatch");
    assert!(col < m.cols(), "col out of bounds");
    let stride = m.stride();
    let data = m.data();
    let shift = (col % 2) * 4;
    let mut buckets = [0.0f32; NUM_CODES];
    for (i, &xi) in x.iter().enumerate() {
        let byte = data[i * stride + col / 2];
        buckets[((byte >> shift) & 0x0F) as usize] += xi;
    }
    buckets
}

/// Magnitude-lattice combine: positive region `k` minus its sign twin
/// `k | 8`, weighted by `MAGNITUDES[k]`. Region 0 (±0) contributes nothing.
fn combine_regions(buckets: &[f32; NUM_CODES]) -> f32 {
    let mut acc = 0.0f32;
    for k in 1..8 {
        acc += MAGNITUDES[k] * (buckets[k] - buckets[k | 8]);
    }
    acc
}

/// Which kernel realization this process selected: `"avx2-half-units"` or
/// `"scalar-regions"`. Recorded by the benchmark baseline.
pub fn kernel_path() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2::available() {
        return "avx2-half-units";
    }
    "scalar-regions"
}

/// The vectorized constant-multiplier-bank realization (x86-64 only).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Range, HALF_UNITS};
    use hnlpu_model::PackedFp4Matrix;
    use std::arch::x86_64::*;

    /// Runtime CPU support check (cached by `std`).
    #[inline]
    pub fn available() -> bool {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }

    /// Decode 16 packed bytes (32 columns of one row) into 4×8 `f32`
    /// half-unit weights, in column order: the `pshufb` against the
    /// [`HALF_UNITS`] table is the software image of the 16-region decoder.
    // SAFETY: pure register arithmetic on AVX2 intrinsics — no memory
    // access. Callers must have verified AVX2 support (all call sites are
    // inside `#[target_feature(enable = "avx2")]` fns reached only via
    // `available()`).
    #[inline(always)]
    unsafe fn decode32(bytes: __m128i, lut: __m128i, mask: __m128i) -> [__m256; 4] {
        let lo = _mm_and_si128(bytes, mask);
        let hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), mask);
        let vlo = _mm_shuffle_epi8(lut, lo);
        let vhi = _mm_shuffle_epi8(lut, hi);
        // Interleave even/odd column values back into column order.
        let ilo = _mm_unpacklo_epi8(vlo, vhi);
        let ihi = _mm_unpackhi_epi8(vlo, vhi);
        [
            _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(ilo)),
            _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(ilo, 8))),
            _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(ihi)),
            _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(ihi, 8))),
        ]
    }

    /// 64-column panel: eight output accumulators live in registers across
    /// the whole row sweep, so there are no horizontal sums at all.
    // SAFETY: caller (`matvec_block`) guarantees AVX2+FMA support and that
    // `data` points at `x.len()` rows of ≥ 32 readable bytes at `stride`
    // spacing, and `out` at ≥ 64 writable f32s. Unaligned loads/stores are
    // used throughout, so no alignment requirement.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn panel64(x: &[f32], data: *const u8, stride: usize, half_norm: f32, out: *mut f32) {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let mut a = [_mm256_setzero_ps(); 8];
        for (i, &xi) in x.iter().enumerate() {
            let xv = _mm256_set1_ps(xi);
            let rowp = data.add(i * stride);
            let w0 = decode32(_mm_loadu_si128(rowp as *const __m128i), lut, mask);
            let w1 = decode32(_mm_loadu_si128(rowp.add(16) as *const __m128i), lut, mask);
            a[0] = _mm256_fmadd_ps(w0[0], xv, a[0]);
            a[1] = _mm256_fmadd_ps(w0[1], xv, a[1]);
            a[2] = _mm256_fmadd_ps(w0[2], xv, a[2]);
            a[3] = _mm256_fmadd_ps(w0[3], xv, a[3]);
            a[4] = _mm256_fmadd_ps(w1[0], xv, a[4]);
            a[5] = _mm256_fmadd_ps(w1[1], xv, a[5]);
            a[6] = _mm256_fmadd_ps(w1[2], xv, a[6]);
            a[7] = _mm256_fmadd_ps(w1[3], xv, a[7]);
        }
        let nv = _mm256_set1_ps(half_norm);
        for (k, acc) in a.iter().enumerate() {
            _mm256_storeu_ps(out.add(8 * k), _mm256_mul_ps(*acc, nv));
        }
    }

    /// 32-column panel.
    // SAFETY: caller (`matvec_block`) guarantees AVX2+FMA support and that
    // `data` points at `x.len()` rows of ≥ 16 readable bytes at `stride`
    // spacing, and `out` at ≥ 32 writable f32s. Unaligned accesses only.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn panel32(x: &[f32], data: *const u8, stride: usize, half_norm: f32, out: *mut f32) {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let mut a = [_mm256_setzero_ps(); 4];
        for (i, &xi) in x.iter().enumerate() {
            let xv = _mm256_set1_ps(xi);
            let w = decode32(
                _mm_loadu_si128(data.add(i * stride) as *const __m128i),
                lut,
                mask,
            );
            a[0] = _mm256_fmadd_ps(w[0], xv, a[0]);
            a[1] = _mm256_fmadd_ps(w[1], xv, a[1]);
            a[2] = _mm256_fmadd_ps(w[2], xv, a[2]);
            a[3] = _mm256_fmadd_ps(w[3], xv, a[3]);
        }
        let nv = _mm256_set1_ps(half_norm);
        for (k, acc) in a.iter().enumerate() {
            _mm256_storeu_ps(out.add(8 * k), _mm256_mul_ps(*acc, nv));
        }
    }

    /// 16-column panel (8-byte row loads).
    // SAFETY: caller (`matvec_block`) guarantees AVX2+FMA support and that
    // `data` points at `x.len()` rows of ≥ 8 readable bytes at `stride`
    // spacing, and `out` at ≥ 16 writable f32s. Unaligned accesses only.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn panel16(x: &[f32], data: *const u8, stride: usize, half_norm: f32, out: *mut f32) {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let mut a = [_mm256_setzero_ps(); 2];
        for (i, &xi) in x.iter().enumerate() {
            let xv = _mm256_set1_ps(xi);
            let bytes = _mm_loadl_epi64(data.add(i * stride) as *const __m128i);
            let lo = _mm_and_si128(bytes, mask);
            let hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), mask);
            let inter = _mm_unpacklo_epi8(_mm_shuffle_epi8(lut, lo), _mm_shuffle_epi8(lut, hi));
            let w0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(inter));
            let w1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(inter, 8)));
            a[0] = _mm256_fmadd_ps(w0, xv, a[0]);
            a[1] = _mm256_fmadd_ps(w1, xv, a[1]);
        }
        let nv = _mm256_set1_ps(half_norm);
        _mm256_storeu_ps(out, _mm256_mul_ps(a[0], nv));
        _mm256_storeu_ps(out.add(8), _mm256_mul_ps(a[1], nv));
    }

    /// Block matvec over packed codes. Caller guarantees bounds and an
    /// even `col_range.start`.
    // SAFETY: caller must ensure AVX2+FMA are present (checked via
    // `available()` at the dispatch site), `row_offset + x.len() ≤ m.rows()`,
    // `col_range.end ≤ m.cols()`, `col_range.start` even, and
    // `out.len() ≥ col_range.len()` — these bound every `base.add`/`out.add`
    // below within `m.data()` / `out`. The panel helpers inherit exactly
    // these bounds, narrowed per panel width.
    pub unsafe fn matvec_block(
        x: &[f32],
        m: &PackedFp4Matrix,
        row_offset: usize,
        col_range: Range<usize>,
        out: &mut [f32],
    ) {
        debug_assert_eq!(col_range.start % 2, 0);
        let stride = m.stride();
        let half_norm = 0.5 * m.norm();
        let base = m
            .data()
            .as_ptr()
            .add(row_offset * stride + col_range.start / 2);
        let total = col_range.len();
        let mut c = 0;
        while total - c >= 64 {
            panel64(
                x,
                base.add(c / 2),
                stride,
                half_norm,
                out.as_mut_ptr().add(c),
            );
            c += 64;
        }
        if total - c >= 32 {
            panel32(
                x,
                base.add(c / 2),
                stride,
                half_norm,
                out.as_mut_ptr().add(c),
            );
            c += 32;
        }
        if total - c >= 16 {
            panel16(
                x,
                base.add(c / 2),
                stride,
                half_norm,
                out.as_mut_ptr().add(c),
            );
            c += 16;
        }
        // Scalar half-unit tail for the last < 16 columns.
        let data = m.data();
        for j in col_range.start + c..col_range.end {
            let shift = (j % 2) * 4;
            let mut acc = 0.0f32;
            for (i, &xi) in x.iter().enumerate() {
                let byte = data[(row_offset + i) * stride + j / 2];
                acc += xi * f32::from(HALF_UNITS[((byte >> shift) & 0x0F) as usize]);
            }
            out[j - col_range.start] = acc * half_norm;
        }
    }

    /// Number of activation rows a vectorized token block carries: 4 rows ×
    /// 2 accumulators each (16 columns) keeps the working set at 11 ymm
    /// registers while decoding each packed byte once per 4 tokens.
    const TOKEN_BLOCK: usize = 4;

    /// 16-column × 4-token panel: the packed bytes of each weight row are
    /// decoded **once** and FMA'd against four broadcast activations, so
    /// the 16-region decode work is amortized over the token block. Per
    /// token the accumulation chain over rows is exactly the one
    /// `panel64`/`panel32`/`panel16` produce for the same column (same
    /// decoded half-units, same FMA, same row order), which is what keeps
    /// the matmul bit-identical to the matvec loop.
    // SAFETY: caller (`matmul_block`) guarantees AVX2+FMA support, that
    // `data` points at `rows` weight rows of ≥ 8 readable bytes at `stride`
    // spacing, that `xs` points at 4 activation rows of `rows` readable
    // f32s at `x_stride` spacing, and `outs` at 4 output rows of ≥ 16
    // writable f32s at `out_stride` spacing. Unaligned accesses only.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn panel16x4(
        xs: *const f32,
        x_stride: usize,
        rows: usize,
        data: *const u8,
        stride: usize,
        half_norm: f32,
        outs: *mut f32,
        out_stride: usize,
    ) {
        let lut = _mm_loadu_si128(HALF_UNITS.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let mut a = [_mm256_setzero_ps(); 2 * TOKEN_BLOCK];
        for i in 0..rows {
            let bytes = _mm_loadl_epi64(data.add(i * stride) as *const __m128i);
            let lo = _mm_and_si128(bytes, mask);
            let hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), mask);
            let inter = _mm_unpacklo_epi8(_mm_shuffle_epi8(lut, lo), _mm_shuffle_epi8(lut, hi));
            let w0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(inter));
            let w1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128(inter, 8)));
            for tok in 0..TOKEN_BLOCK {
                let xv = _mm256_set1_ps(*xs.add(tok * x_stride + i));
                a[2 * tok] = _mm256_fmadd_ps(w0, xv, a[2 * tok]);
                a[2 * tok + 1] = _mm256_fmadd_ps(w1, xv, a[2 * tok + 1]);
            }
        }
        let nv = _mm256_set1_ps(half_norm);
        for tok in 0..TOKEN_BLOCK {
            _mm256_storeu_ps(outs.add(tok * out_stride), _mm256_mul_ps(a[2 * tok], nv));
            _mm256_storeu_ps(
                outs.add(tok * out_stride + 8),
                _mm256_mul_ps(a[2 * tok + 1], nv),
            );
        }
    }

    /// Panel matmul over packed codes: token blocks of [`TOKEN_BLOCK`]
    /// activation rows sweep 16-column panels with one decode per byte per
    /// block; leftover tokens fall back to the single-token `matvec_block`.
    /// Both paths cover exactly `len - len % 16` columns with panels and
    /// finish with the identical non-fused scalar tail, so every output
    /// row matches `matvec_block` on its activation row bit for bit.
    // SAFETY: caller must ensure AVX2+FMA are present (checked via
    // `available()` at the dispatch site), `row_offset + rows ≤ m.rows()`,
    // `col_range.end ≤ m.cols()`, `col_range.start` even,
    // `xs.len() ≥ (t-1)·x_stride + rows`, and
    // `outs.len() ≥ (t-1)·out_stride + col_range.len()` — these bound every
    // pointer offset below within `m.data()`, `xs`, and `outs`.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn matmul_block(
        xs: &[f32],
        x_stride: usize,
        t: usize,
        m: &PackedFp4Matrix,
        row_offset: usize,
        rows: usize,
        col_range: Range<usize>,
        outs: &mut [f32],
        out_stride: usize,
    ) {
        debug_assert_eq!(col_range.start % 2, 0);
        let stride = m.stride();
        let half_norm = 0.5 * m.norm();
        let base = m
            .data()
            .as_ptr()
            .add(row_offset * stride + col_range.start / 2);
        let len = col_range.len();
        let covered = len - len % 16;
        let data = m.data();
        let mut tt = 0;
        while t - tt >= TOKEN_BLOCK {
            let xrow = xs.as_ptr().add(tt * x_stride);
            let orow = outs.as_mut_ptr().add(tt * out_stride);
            let mut c = 0;
            while c < covered {
                panel16x4(
                    xrow,
                    x_stride,
                    rows,
                    base.add(c / 2),
                    stride,
                    half_norm,
                    orow.add(c),
                    out_stride,
                );
                c += 16;
            }
            // Scalar half-unit tail for the block's last < 16 columns —
            // the same non-fused mul+add chain as `matvec_block`'s tail.
            for j in col_range.start + covered..col_range.end {
                let shift = (j % 2) * 4;
                let col = j / 2;
                for tok in 0..TOKEN_BLOCK {
                    let x = &xs[(tt + tok) * x_stride..][..rows];
                    let mut acc = 0.0f32;
                    for (i, &xi) in x.iter().enumerate() {
                        let byte = data[(row_offset + i) * stride + col];
                        acc += xi * f32::from(HALF_UNITS[((byte >> shift) & 0x0F) as usize]);
                    }
                    outs[(tt + tok) * out_stride + (j - col_range.start)] = acc * half_norm;
                }
            }
            tt += TOKEN_BLOCK;
        }
        while tt < t {
            matvec_block(
                &xs[tt * x_stride..][..rows],
                m,
                row_offset,
                col_range.start..col_range.end,
                &mut outs[tt * out_stride..][..len],
            );
            tt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::{add_assign, vec_mat};
    use hnlpu_model::Fp4;
    use proptest::prelude::*;

    fn packed_from(codes: &[u8], rows: usize, cols: usize) -> PackedFp4Matrix {
        let codes: Vec<Fp4> = codes.iter().map(|&c| Fp4::from_code(c)).collect();
        let norm = 1.0 / (rows as f32).sqrt() / 1.8;
        PackedFp4Matrix::from_codes(&codes, rows, cols, norm)
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs()),
                "element {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matches_identity() {
        // Codes picked so the packed matrix dequantizes to (1/norm-scaled)
        // diagonal: code 2 = +1.0.
        let mut codes = vec![0u8; 9];
        for i in 0..3 {
            codes[i * 3 + i] = 2;
        }
        let m = packed_from(&codes, 3, 3);
        let mut out = [0.0f32; 3];
        matvec_into(&[2.0, 3.0, 4.0], &m, &mut out);
        let expect: Vec<f32> = [2.0f32, 3.0, 4.0].iter().map(|v| v * m.norm()).collect();
        assert_close(&out, &expect, 1e-6);
    }

    #[test]
    fn region_kernel_and_fast_path_agree() {
        let codes: Vec<u8> = (0..96 * 80).map(|i| ((i * 7 + 3) % 16) as u8).collect();
        let m = packed_from(&codes, 96, 80);
        let x: Vec<f32> = (0..96)
            .map(|i| ((i * 31) % 17) as f32 * 0.1 - 0.8)
            .collect();
        let mut fast = vec![0.0f32; 80];
        let mut regions = vec![0.0f32; 80];
        matvec_into(&x, &m, &mut fast);
        region_matvec_block_into(&x, &m, 0, 0..80, &mut regions);
        assert_close(&fast, &regions, 1e-5);
    }

    #[test]
    fn block_partials_sum_to_full() {
        let codes: Vec<u8> = (0..64 * 48).map(|i| ((i * 11 + 5) % 16) as u8).collect();
        let m = packed_from(&codes, 64, 48);
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut full = vec![0.0f32; 48];
        matvec_into(&x, &m, &mut full);
        // Four row blocks × col range [16, 48), as a chip column computes.
        let mut acc = vec![0.0f32; 32];
        let mut part = vec![0.0f32; 32];
        for r in 0..4 {
            matvec_block_into(&x[r * 16..(r + 1) * 16], &m, r * 16, 16..48, &mut part);
            add_assign(&mut acc, &part);
        }
        assert_close(&acc, &full[16..48], 1e-5);
    }

    #[test]
    fn region_sums_with_unit_input_count_occupancy() {
        // With x = 1⃗ the region sums ARE the per-column code occupancy, so
        // summing them over columns reproduces `code_histogram` exactly.
        let codes: Vec<u8> = (0..40 * 33).map(|i| ((i * 13 + 1) % 16) as u8).collect();
        let m = packed_from(&codes, 40, 33);
        let ones = vec![1.0f32; 40];
        let mut totals = [0u64; 16];
        for col in 0..33 {
            let sums = region_sums(&ones, &m, col);
            for (t, s) in totals.iter_mut().zip(sums.iter()) {
                assert_eq!(s.fract(), 0.0);
                *t += *s as u64;
            }
        }
        assert_eq!(totals, m.code_histogram());
    }

    #[test]
    fn kernel_path_names_a_realization() {
        assert!(["avx2-half-units", "scalar-regions"].contains(&kernel_path()));
    }

    #[test]
    #[should_panic(expected = "row block out of bounds")]
    fn oversized_row_block_rejected() {
        let m = packed_from(&[0; 16], 4, 4);
        let mut out = [0.0; 4];
        matvec_block_into(&[1.0; 3], &m, 2, 0..4, &mut out);
    }

    #[test]
    #[should_panic(expected = "activation panel too short")]
    fn short_activation_panel_rejected() {
        let m = packed_from(&[0; 16], 4, 4);
        let mut outs = [0.0; 8];
        matmul_block_into(&[1.0; 6], 4, 2, &m, 0, 4, 0..4, &mut outs, 4);
    }

    #[test]
    fn rows_parallel_below_threshold_is_bitwise_matvec() {
        // Small matrices keep the single accumulation chain: bit-equal to
        // `matvec_into`, so test-model numerics are untouched.
        let codes: Vec<u8> = (0..64 * 48).map(|i| ((i * 11 + 5) % 16) as u8).collect();
        let m = packed_from(&codes, 64, 48);
        let x: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut serial = vec![0.0f32; 48];
        let mut par = vec![0.0f32; 48];
        let mut partials = vec![0.0f32; ROW_SPLITS * 48];
        matvec_into(&x, &m, &mut serial);
        matvec_rows_parallel_into(&x, &m, &mut par, &mut partials);
        assert_eq!(serial, par);
    }

    #[test]
    fn rows_parallel_above_threshold_matches_split_oracle_bitwise() {
        // 2048 × 1024 = 2^21 rows×cols: exactly at the fan-out threshold,
        // so the scoped-thread path runs under the `parallel` feature (and
        // the sequential split under `--no-default-features`). Both must
        // equal the hand-rolled fixed-split serial oracle bit for bit.
        let (rows, cols) = (2048usize, 1024usize);
        let codes: Vec<u8> = (0..rows * cols)
            .map(|i| (((i as u64).wrapping_mul(2654435761)) % 16) as u8)
            .collect();
        let m = packed_from(&codes, rows, cols);
        let x: Vec<f32> = (0..rows)
            .map(|i| ((i % 251) as f32 - 125.0) * 0.01)
            .collect();
        let mut out = vec![0.0f32; cols];
        let mut partials = vec![0.0f32; ROW_SPLITS * cols];
        matvec_rows_parallel_into(&x, &m, &mut out, &mut partials);
        // Oracle: the same fixed 4-way split and in-order reduction,
        // entirely on this thread.
        let mut oracle = vec![0.0f32; cols];
        let mut part = vec![0.0f32; cols];
        for s in 0..ROW_SPLITS {
            let lo = s * rows / ROW_SPLITS;
            let hi = (s + 1) * rows / ROW_SPLITS;
            matvec_block_into(&x[lo..hi], &m, lo, 0..cols, &mut part);
            add_assign(&mut oracle, &part);
        }
        assert_eq!(out, oracle);
    }

    proptest! {
        /// The region-accumulation kernel matches the naive dense f32
        /// `vec_mat` within 1e-4 relative tolerance on random matrices —
        /// the satellite acceptance property. Covers both realizations
        /// plus odd widths and the scalar column tail.
        #[test]
        fn matvec_matches_naive_vec_mat(
            rows in 1usize..96,
            cols in 1usize..80,
            seed in 0u64..1000,
        ) {
            let codes: Vec<u8> = (0..rows * cols)
                .map(|i| (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 97)) % 16) as u8)
                .collect();
            let m = packed_from(&codes, rows, cols);
            let x: Vec<f32> = (0..rows)
                .map(|i| {
                    let v = (i as u64).wrapping_mul(seed.wrapping_add(11)) % 2000;
                    v as f32 * 0.001 - 1.0
                })
                .collect();
            let dense = m.to_f32();
            let naive = vec_mat(&x, &dense, cols);
            let mut fast = vec![0.0f32; cols];
            matvec_into(&x, &m, &mut fast);
            let mut regions = vec![0.0f32; cols];
            region_matvec_block_into(&x, &m, 0, 0..cols, &mut regions);
            for j in 0..cols {
                prop_assert!((fast[j] - naive[j]).abs() <= 1e-4 * (1.0 + naive[j].abs()),
                    "fast col {j}: {} vs {}", fast[j], naive[j]);
                prop_assert!((regions[j] - naive[j]).abs() <= 1e-4 * (1.0 + naive[j].abs()),
                    "regions col {j}: {} vs {}", regions[j], naive[j]);
            }
        }

        /// The tentpole bit-identity property: the dispatched panel matmul
        /// equals a loop of per-token `matvec_block_into` calls **bit for
        /// bit**, over ragged token counts (covering both the vectorized
        /// token blocks and the per-token remainder), odd column ranges
        /// (scalar-dispatch path + scalar tails), strided activation and
        /// output panels, and row sub-blocks.
        #[test]
        fn matmul_is_bitwise_loop_of_matvecs(
            rows in 1usize..72,
            cols in 1usize..72,
            t in 1usize..11,
            c0 in 0usize..8,
            c1 in 0usize..8,
            r0 in 0usize..6,
            xpad in 0usize..5,
            opad in 0usize..5,
            seed in 0u64..500,
        ) {
            let full_rows = rows + r0;
            let codes: Vec<u8> = (0..full_rows * cols)
                .map(|i| (((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 131)) % 16) as u8)
                .collect();
            let m = packed_from(&codes, full_rows, cols);
            let cs = c0.min(cols - 1);
            let ce = cols - c1.min(cols - 1 - cs);
            let len = ce - cs;
            let x_stride = rows + xpad;
            let out_stride = len + opad;
            let xs: Vec<f32> = (0..(t - 1) * x_stride + rows)
                .map(|i| {
                    let v = (i as u64).wrapping_mul(seed.wrapping_add(7)).wrapping_add(3) % 2000;
                    v as f32 * 0.001 - 1.0
                })
                .collect();
            let mut outs = vec![0.0f32; (t - 1) * out_stride + len];
            matmul_block_into(&xs, x_stride, t, &m, r0, rows, cs..ce, &mut outs, out_stride);
            let mut regions = vec![0.0f32; (t - 1) * out_stride + len];
            region_matmul_block_into(&xs, x_stride, t, &m, r0, rows, cs..ce, &mut regions, out_stride);
            let mut want = vec![0.0f32; len];
            let mut want_regions = vec![0.0f32; len];
            for tt in 0..t {
                let x = &xs[tt * x_stride..][..rows];
                matvec_block_into(x, &m, r0, cs..ce, &mut want);
                prop_assert_eq!(&outs[tt * out_stride..][..len], want.as_slice(),
                    "dispatched row {} differs", tt);
                region_matvec_block_into(x, &m, r0, cs..ce, &mut want_regions);
                prop_assert_eq!(&regions[tt * out_stride..][..len], want_regions.as_slice(),
                    "scalar region row {} differs", tt);
            }
        }

        /// The fixed-split row-partitioned matvec matches its serial
        /// oracle bit for bit on arbitrary shapes and column ranges (the
        /// split always happens; only the execution schedule varies).
        #[test]
        fn rows_split_matches_serial_oracle_bitwise(
            rows in 1usize..96,
            cols in 1usize..64,
            c0 in 0usize..6,
            seed in 0u64..200,
        ) {
            let codes: Vec<u8> = (0..rows * cols)
                .map(|i| (((i as u64).wrapping_mul(0x9E3779B9).wrapping_add(seed)) % 16) as u8)
                .collect();
            let m = packed_from(&codes, rows, cols);
            let cs = c0.min(cols - 1);
            let w = cols - cs;
            let x: Vec<f32> = (0..rows)
                .map(|i| ((i as u64 * 37 + seed) % 1000) as f32 * 0.002 - 1.0)
                .collect();
            let mut out = vec![0.0f32; w];
            let mut partials = vec![0.0f32; ROW_SPLITS * w];
            matvec_rows_split_into(&x, &m, cs..cols, &mut out, &mut partials);
            let mut oracle = vec![0.0f32; w];
            let mut part = vec![0.0f32; w];
            for s in 0..ROW_SPLITS {
                let lo = s * rows / ROW_SPLITS;
                let hi = (s + 1) * rows / ROW_SPLITS;
                matvec_block_into(&x[lo..hi], &m, lo, cs..cols, &mut part);
                add_assign(&mut oracle, &part);
            }
            prop_assert_eq!(out, oracle);
        }

        /// Arbitrary sub-blocks match the dense `vec_mat_block` partials.
        #[test]
        fn block_matches_naive_block(
            rows in 8usize..64,
            cols in 8usize..64,
            fr in 0usize..4,
            fc in 0usize..4,
        ) {
            let codes: Vec<u8> = (0..rows * cols).map(|i| ((i * 5 + 2) % 16) as u8).collect();
            let m = packed_from(&codes, rows, cols);
            let x: Vec<f32> = (0..rows).map(|i| (i as f32 * 0.13).cos()).collect();
            let r0 = fr * rows / 8;
            let r1 = rows - fr * rows / 8;
            let c0 = fc * cols / 8;
            let c1 = cols - fc * cols / 8;
            let dense = m.to_f32();
            let naive = crate::tensor::vec_mat_block(&x, &dense, cols, r0..r1, c0..c1);
            let mut out = vec![0.0f32; c1 - c0];
            matvec_block_into(&x[r0..r1], &m, r0, c0..c1, &mut out);
            for j in 0..out.len() {
                prop_assert!((out[j] - naive[j]).abs() <= 1e-4 * (1.0 + naive[j].abs()));
            }
        }
    }
}
