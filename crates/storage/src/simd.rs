//! Branch-free, fixed-width-lane chunked filter kernels, compiled once per
//! instruction-set tier and dispatched at run time.
//!
//! Every page the adaptive path and the full-scan baseline touch goes
//! through `page.scanAndFilter(q)` (Listing 1), so its inner loop is the
//! hottest code of the whole reproduction. The scalar loops in
//! [`crate::page`] evaluate `low <= v && v <= high` with data-dependent
//! branches — at mid selectivities the branch predictor loses every other
//! guess. The kernels in this module restructure the same computation into
//! chunks of [`LANES`] independent lanes with **no data-dependent branch**
//! anywhere on the value path, which lets LLVM vectorize them wherever the
//! target has 64-bit vector compares (see *Instruction-set tiers* below),
//! and removes all branch mispredictions where it does not:
//!
//! * the predicate becomes a 0/1 lane mask `q = (v >= low) & (v <= high)`;
//! * the count accumulates `q` per lane;
//! * the checksum accumulates the masked value `v & (0 - q)` split into
//!   32-bit halves (`sum_lo`/`sum_hi` per lane), so the final
//!   `lo + (hi << 32)` reduction is *exactly* the scalar `u128` sum — the
//!   split sidesteps `u128` lane arithmetic, which LLVM does not vectorize;
//! * the widening bounds (paper §2.2) survive vectorization as lane-wise
//!   `max(v & below_mask)` / `min(v | !above_mask)` folds plus has-any
//!   flags, reduced once at the end of the page. They are a const
//!   parameter (`BOUNDS`): only the adaptive engine's view creation reads
//!   them, and on the portable tier the `u64` min/max folds keep the chunk
//!   loop from vectorizing, so scans whose caller never widens a range
//!   ([`scan_filter_unbounded_chunked`]) compile them out. Both
//!   instantiations share the same qualify test; without the folds
//!   around it, LLVM may still compile the unmasked checksum add to a
//!   data-dependent branch, so bound-free aggregates can lose to the
//!   bound-tracking ones at mid selectivities;
//! * row-id collection compresses each chunk's qualify mask into a bitmask
//!   and converts set bits to indexes (`trailing_zeros`) — the only
//!   remaining branch is per *qualifying chunk*, not per value;
//! * exclusions (the overlay-aware read path) apply a precomputed per-page
//!   bitmask ([`PageExclusionMask`]) as a second lane mask instead of
//!   stepping a skip iterator per value.
//!
//! All kernels are bit-identical to the scalar reference implementations in
//! [`crate::page`] (`*_scalar`), which are kept for differential tests and
//! the `filter-kernel` microbench.
//!
//! Accumulating the 32-bit checksum halves in `u64` lanes is exact for any
//! slice of up to 2³² values; pages hold at most
//! [`VALUES_PER_PAGE`] (= 511) values, so per-page sums cannot overflow.
//!
//! # Instruction-set tiers
//!
//! The workspace builds for the default `x86_64` target, which guarantees
//! SSE2 only. SSE2 has no 64-bit vector compare (`pcmpgtq` needs SSE4.2),
//! so on that baseline every `u64` compare of the chunk loops — the
//! qualify test, the bound folds, the min/max folds — compiles to one
//! scalar compare per value: the loops stay branch-free but barely
//! vectorize. The kernels are therefore compiled three times from the same
//! source:
//!
//! * **`avx512`** (`avx512f` + `avx512vl`, plus `avx2`): unsigned 64-bit
//!   compares into mask registers and native `u64` min/max;
//! * **`avx2`**: 64-bit vector compares (`vpcmpgtq`); AVX2 only has
//!   *signed* ones, so LLVM lowers the unsigned compares with a sign flip;
//! * **`portable`**: the baseline-target build, the only tier on other
//!   architectures (the x86 tiers are `cfg(target_arch = "x86_64")`-gated).
//!
//! The scan, probe and min/max bodies (`scan_core`, `probe_core`,
//! `min_max_core`) are `#[inline(always)]`. Each kernel family has exactly
//! one private dispatch function (`scan_dispatch`, `probe_dispatch`,
//! `min_max_dispatch`) that calls a `#[target_feature]` wrapper per x86
//! tier, or the body directly for the portable tier. A wrapper only
//! forwards to the body, so inlining recompiles the one source with the
//! wrapper's features. The public entry points pass the fastest tier the
//! running CPU supports, detected with `std::is_x86_feature_detected!`
//! (which std caches). Nothing can select a tier: no setting, environment
//! variable or cargo feature. [`kernel_isa`] reports the one in use.
//!
//! Every tier runs the same integer operations, so all tiers give
//! bit-identical results; the unit tests below run each tier the host
//! supports against a scalar reference.
//!
//! **Safety.** Calling a `#[target_feature]` function on a CPU without
//! those features is undefined behaviour, so each wrapper call is an
//! `unsafe` block — the only `unsafe` of this crate. The contract is
//! carried by the private tier type: a non-portable `Isa` value is only
//! ever created after detection confirmed its features, and each call's
//! `SAFETY` comment names that detection.

use asv_util::ValueRange;
use asv_vmem::VALUES_PER_PAGE;

use crate::page::PageScanResult;

/// Number of values processed per chunk. Eight `u64` lanes are one 64-byte
/// cache line — two AVX2 registers or one AVX-512 register — and divide the
/// 64-bit words of [`PageExclusionMask`] evenly.
pub const LANES: usize = 8;

/// Words needed to carry one exclusion bit per value slot of a page.
const MASK_WORDS: usize = VALUES_PER_PAGE.div_ceil(64);

/// An instruction-set tier the kernels are compiled for. A non-portable
/// value is only created after detection confirmed its CPU features
/// (`has_avx512`, `has_avx2`); the tier-wrapper calls rely on that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    #[cfg(target_arch = "x86_64")]
    Avx512,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    Portable,
}

impl Isa {
    /// The fastest tier the running CPU supports.
    #[inline]
    fn best() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                return Isa::Avx512;
            }
            if has_avx2() {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    }

    fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => "avx512",
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => "avx2",
            Isa::Portable => "portable",
        }
    }
}

/// The features the `avx512` tier wrappers enable.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx512() -> bool {
    std::is_x86_feature_detected!("avx2")
        && std::is_x86_feature_detected!("avx512f")
        && std::is_x86_feature_detected!("avx512vl")
}

/// The feature the `avx2` tier wrappers enable.
#[cfg(target_arch = "x86_64")]
#[inline]
fn has_avx2() -> bool {
    std::is_x86_feature_detected!("avx2")
}

/// The instruction-set tier the kernels run on in this process:
/// `"avx512"`, `"avx2"` or `"portable"` (see the module docs).
pub fn kernel_isa() -> &'static str {
    Isa::best().name()
}

/// A per-page exclusion bitmask: one bit per value slot, set = the slot is
/// treated as absent by [`crate::PageRef::scan_filter_excluding`].
///
/// This replaces the sorted-slot-list walk of the overlay-aware read path:
/// instead of peeking a skip iterator per value, the chunked kernel loads
/// [`LANES`] exclusion bits at once and folds them into the lane masks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageExclusionMask {
    words: [u64; MASK_WORDS],
}

impl PageExclusionMask {
    /// An empty mask (no slot excluded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a mask from ascending value-slot indexes. Slots beyond
    /// [`VALUES_PER_PAGE`] are rejected.
    ///
    /// # Panics
    /// Panics if a slot is `>= VALUES_PER_PAGE`.
    pub fn from_slots(slots: impl IntoIterator<Item = usize>) -> Self {
        let mut mask = Self::default();
        for slot in slots {
            mask.set(slot);
        }
        mask
    }

    /// Marks `slot` as excluded.
    ///
    /// # Panics
    /// Panics if `slot >= VALUES_PER_PAGE`.
    #[inline]
    pub fn set(&mut self, slot: usize) {
        assert!(slot < VALUES_PER_PAGE, "slot {slot} out of page bounds");
        self.words[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Returns `true` if `slot` is excluded.
    #[inline]
    pub fn excluded(&self, slot: usize) -> bool {
        debug_assert!(slot < VALUES_PER_PAGE);
        (self.words[slot / 64] >> (slot % 64)) & 1 == 1
    }

    /// Returns `true` if no slot is excluded.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The *keep* bits (1 = not excluded) of chunk `chunk` as the low
    /// [`LANES`] bits. `LANES` divides 64, so a chunk never straddles words.
    #[inline]
    fn keep_bits(&self, chunk: usize) -> u64 {
        const PER_WORD: usize = 64 / LANES;
        !(self.words[chunk / PER_WORD] >> ((chunk % PER_WORD) * LANES)) & ((1 << LANES) - 1)
    }
}

/// Precomputed per-page exclusion bitmasks for a set of excluded global row
/// ids — built **once per overlay epoch** instead of re-deriving slot lists
/// on every page visit of every scan.
///
/// The overlay's excluded row set only changes when a write queues a new
/// row or an alignment round retires rows, so the adaptive layer caches one
/// `ExclusionMasks` per overlay generation and hands scans a reference
/// (`ScanKernel::with_exclusion_masks`).
#[derive(Clone, Debug, Default)]
pub struct ExclusionMasks {
    rows: Vec<u64>,
    pages: Vec<u64>,
    masks: Vec<PageExclusionMask>,
}

impl ExclusionMasks {
    /// Builds the per-page masks from global row ids in any order;
    /// duplicates are dropped.
    pub fn from_rows(mut rows: Vec<u64>) -> Self {
        rows.sort_unstable();
        rows.dedup();
        let mut pages = Vec::new();
        let mut masks: Vec<PageExclusionMask> = Vec::new();
        for &row in &rows {
            let page = row / VALUES_PER_PAGE as u64;
            let slot = (row % VALUES_PER_PAGE as u64) as usize;
            if pages.last() != Some(&page) {
                pages.push(page);
                masks.push(PageExclusionMask::new());
            }
            masks.last_mut().expect("pushed above").set(slot);
        }
        Self { rows, pages, masks }
    }

    /// The excluded rows, ascending.
    pub fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Returns `true` if no row is excluded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The exclusion mask of `page_id`, if any of its slots are excluded.
    #[inline]
    pub fn mask_for(&self, page_id: u64) -> Option<&PageExclusionMask> {
        self.pages
            .binary_search(&page_id)
            .ok()
            .map(|idx| &self.masks[idx])
    }
}

/// Lane-wise accumulator of one page scan. Reduced once per page by
/// [`Acc::finish`].
#[derive(Clone, Copy)]
struct Acc {
    count: [u64; LANES],
    sum_lo: [u64; LANES],
    sum_hi: [u64; LANES],
    below: [u64; LANES],
    has_below: [u64; LANES],
    above: [u64; LANES],
    has_above: [u64; LANES],
}

impl Acc {
    #[inline]
    fn new() -> Self {
        Self {
            count: [0; LANES],
            sum_lo: [0; LANES],
            sum_hi: [0; LANES],
            below: [0; LANES],
            has_below: [0; LANES],
            above: [u64::MAX; LANES],
            has_above: [0; LANES],
        }
    }

    /// Reduces the lanes into a [`PageScanResult`]. Exactness: the checksum
    /// halves are re-joined as `lo + (hi << 32)` in `u128`, which equals the
    /// scalar order-independent sum; the bound folds are plain max/min, with
    /// non-participating lanes contributing the fold identities (0 for the
    /// below-max, `u64::MAX` for the above-min).
    #[inline(always)]
    fn finish<const SUM: bool>(&self) -> PageScanResult {
        let count: u64 = self.count.iter().sum();
        let sum = if SUM {
            let lo: u64 = self.sum_lo.iter().sum();
            let hi: u64 = self.sum_hi.iter().sum();
            lo as u128 + ((hi as u128) << 32)
        } else {
            0
        };
        let below_max = self
            .has_below
            .iter()
            .any(|&m| m != 0)
            .then(|| self.below.iter().copied().max().unwrap_or(0));
        let above_min = self
            .has_above
            .iter()
            .any(|&m| m != 0)
            .then(|| self.above.iter().copied().min().unwrap_or(u64::MAX));
        PageScanResult {
            count,
            sum,
            below_max,
            above_min,
        }
    }
}

/// One full chunk step: classifies [`LANES`] values against `[low, high]`
/// and folds them into `acc` without any data-dependent branch (the
/// widening bounds only with `BOUNDS`). Returns the chunk's qualify bits
/// (bit `i` set = lane `i` qualifies).
#[inline(always)]
fn chunk_step<const SUM: bool, const BOUNDS: bool>(
    chunk: &[u64],
    low: u64,
    high: u64,
    acc: &mut Acc,
) -> u64 {
    let mut qbits = 0u64;
    for (i, &v) in chunk.iter().enumerate() {
        let q = (v >= low) as u64 & (v <= high) as u64;
        let qm = q.wrapping_neg();
        acc.count[i] += q;
        if SUM {
            let masked = v & qm;
            acc.sum_lo[i] += masked & 0xFFFF_FFFF;
            acc.sum_hi[i] += masked >> 32;
        }
        if BOUNDS {
            let bm = ((v < low) as u64).wrapping_neg();
            acc.has_below[i] |= bm;
            acc.below[i] = acc.below[i].max(v & bm);
            let am = ((v > high) as u64).wrapping_neg();
            acc.has_above[i] |= am;
            acc.above[i] = acc.above[i].min(v | !am);
        }
        qbits |= q << i;
    }
    qbits
}

/// Like [`chunk_step`], but additionally masked by `keep_bits` (bit `i`
/// clear = lane `i` is treated as absent). Used for excluded slots and for
/// the final partial chunk of a page.
#[inline(always)]
fn chunk_step_masked<const SUM: bool, const BOUNDS: bool>(
    chunk: &[u64],
    keep_bits: u64,
    low: u64,
    high: u64,
    acc: &mut Acc,
) -> u64 {
    let mut qbits = 0u64;
    for (i, &v) in chunk.iter().enumerate() {
        let keep = (keep_bits >> i) & 1;
        let km = keep.wrapping_neg();
        let q = (v >= low) as u64 & (v <= high) as u64 & keep;
        let qm = q.wrapping_neg();
        acc.count[i] += q;
        if SUM {
            let masked = v & qm;
            acc.sum_lo[i] += masked & 0xFFFF_FFFF;
            acc.sum_hi[i] += masked >> 32;
        }
        if BOUNDS {
            let bm = ((v < low) as u64).wrapping_neg() & km;
            acc.has_below[i] |= bm;
            acc.below[i] = acc.below[i].max(v & bm);
            let am = ((v > high) as u64).wrapping_neg() & km;
            acc.has_above[i] |= am;
            acc.above[i] = acc.above[i].min(v | !am);
        }
        qbits |= q << i;
    }
    qbits
}

/// Converts a chunk's qualify bits into global row ids appended to
/// `rows_out` (mask → index compaction).
#[inline(always)]
fn push_qualifying_rows(mut qbits: u64, first_row: u64, rows_out: &mut Vec<u64>) {
    while qbits != 0 {
        let lane = qbits.trailing_zeros() as u64;
        rows_out.push(first_row + lane);
        qbits &= qbits - 1;
    }
}

/// Chunked core shared by every scan entry point. `COLLECT` appends
/// qualifying global row ids (`base_row + index`) to `rows_out`; `SUM`
/// accumulates the checksum; `BOUNDS` tracks the widening bounds (without
/// it, `below_max`/`above_min` stay `None`).
#[inline(always)]
fn scan_core<const SUM: bool, const COLLECT: bool, const BOUNDS: bool>(
    values: &[u64],
    range: &ValueRange,
    exclusion: Option<&PageExclusionMask>,
    base_row: u64,
    rows_out: &mut Vec<u64>,
) -> PageScanResult {
    let (low, high) = (range.low(), range.high());
    let mut acc = Acc::new();
    let mut chunks = values.chunks_exact(LANES);
    let mut chunk_idx = 0usize;
    for chunk in &mut chunks {
        let qbits = match exclusion {
            Some(mask) => chunk_step_masked::<SUM, BOUNDS>(
                chunk,
                mask.keep_bits(chunk_idx),
                low,
                high,
                &mut acc,
            ),
            None => chunk_step::<SUM, BOUNDS>(chunk, low, high, &mut acc),
        };
        if COLLECT {
            push_qualifying_rows(qbits, base_row + (chunk_idx * LANES) as u64, rows_out);
        }
        chunk_idx += 1;
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        // The tail runs as a masked chunk: lanes beyond the slice are
        // dropped by the keep mask, excluded lanes by the exclusion bits.
        let mut keep = (1u64 << tail.len()) - 1;
        if let Some(mask) = exclusion {
            keep &= mask.keep_bits(chunk_idx);
        }
        let qbits = chunk_step_masked::<SUM, BOUNDS>(tail, keep, low, high, &mut acc);
        if COLLECT {
            push_qualifying_rows(qbits, base_row + (chunk_idx * LANES) as u64, rows_out);
        }
    }
    acc.finish::<SUM>()
}

/// Chunked [`crate::PageRef::scan_filter`]: count + checksum + widening
/// bounds.
pub fn scan_filter_chunked(values: &[u64], range: &ValueRange) -> PageScanResult {
    scan_dispatch::<true>(Isa::best(), values, range, None, false, 0, None)
}

/// Chunked [`crate::PageRef::scan_filter_count`]: the fully branch-free
/// count-only fast path (no checksum accumulation at all).
pub fn scan_filter_count_chunked(values: &[u64], range: &ValueRange) -> PageScanResult {
    scan_dispatch::<true>(Isa::best(), values, range, None, true, 0, None)
}

/// Chunked [`crate::PageRef::scan_filter_collect`]: also appends qualifying
/// global row ids (`base_row + slot`) via mask → index compaction.
pub fn scan_filter_collect_chunked(
    values: &[u64],
    range: &ValueRange,
    base_row: u64,
    rows_out: &mut Vec<u64>,
) -> PageScanResult {
    scan_dispatch::<true>(
        Isa::best(),
        values,
        range,
        None,
        false,
        base_row,
        Some(rows_out),
    )
}

/// Chunked [`crate::PageRef::scan_filter_excluding`]: the exclusion bits
/// ride along as a second lane mask. `count_only` skips the checksum (the
/// result's `sum` stays 0), matching the scalar reference bit-for-bit.
pub fn scan_filter_excluding_chunked(
    values: &[u64],
    range: &ValueRange,
    exclusion: &PageExclusionMask,
    count_only: bool,
    base_row: u64,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    scan_dispatch::<true>(
        Isa::best(),
        values,
        range,
        Some(exclusion),
        count_only,
        base_row,
        rows_out,
    )
}

/// The bound-free page scan: count, checksum (unless `count_only`) and
/// row collection (with `rows_out`) exactly as the bound-tracking kernels
/// compute them, optionally masked by `exclusion`, but `below_max` and
/// `above_min` always `None`. For callers that never widen a range.
pub fn scan_filter_unbounded_chunked(
    values: &[u64],
    range: &ValueRange,
    exclusion: Option<&PageExclusionMask>,
    count_only: bool,
    base_row: u64,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    scan_dispatch::<false>(
        Isa::best(),
        values,
        range,
        exclusion,
        count_only,
        base_row,
        rows_out,
    )
}

/// The scan family's dispatch: runs [`scan_select`] compiled for `isa`.
#[inline]
fn scan_dispatch<const BOUNDS: bool>(
    isa: Isa,
    values: &[u64],
    range: &ValueRange,
    exclusion: Option<&PageExclusionMask>,
    count_only: bool,
    base_row: u64,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    match isa {
        // SAFETY: `Isa::Avx512` exists only after `has_avx512()` detected
        // avx2, avx512f and avx512vl, the features `scan_avx512` enables.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe {
            scan_avx512::<BOUNDS>(values, range, exclusion, count_only, base_row, rows_out)
        },
        // SAFETY: `Isa::Avx2` exists only after `has_avx2()` detected avx2,
        // the feature `scan_avx2` enables.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            scan_avx2::<BOUNDS>(values, range, exclusion, count_only, base_row, rows_out)
        },
        Isa::Portable => {
            scan_select::<BOUNDS>(values, range, exclusion, count_only, base_row, rows_out)
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512vl")]
fn scan_avx512<const BOUNDS: bool>(
    values: &[u64],
    range: &ValueRange,
    exclusion: Option<&PageExclusionMask>,
    count_only: bool,
    base_row: u64,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    scan_select::<BOUNDS>(values, range, exclusion, count_only, base_row, rows_out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_avx2<const BOUNDS: bool>(
    values: &[u64],
    range: &ValueRange,
    exclusion: Option<&PageExclusionMask>,
    count_only: bool,
    base_row: u64,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    scan_select::<BOUNDS>(values, range, exclusion, count_only, base_row, rows_out)
}

/// Selects the [`scan_core`] instantiation for a runtime mode.
#[inline(always)]
fn scan_select<const BOUNDS: bool>(
    values: &[u64],
    range: &ValueRange,
    exclusion: Option<&PageExclusionMask>,
    count_only: bool,
    base_row: u64,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    match (count_only, rows_out) {
        (true, None) => {
            let mut none = Vec::new();
            scan_core::<false, false, BOUNDS>(values, range, exclusion, base_row, &mut none)
        }
        (false, None) => {
            let mut none = Vec::new();
            scan_core::<true, false, BOUNDS>(values, range, exclusion, base_row, &mut none)
        }
        (false, Some(rows)) => {
            scan_core::<true, true, BOUNDS>(values, range, exclusion, base_row, rows)
        }
        (true, Some(rows)) => {
            scan_core::<false, true, BOUNDS>(values, range, exclusion, base_row, rows)
        }
    }
}

/// Chunked branch-free min/max fold over the valid values of a page.
pub fn min_max_chunked(values: &[u64]) -> Option<(u64, u64)> {
    (!values.is_empty()).then(|| fold_min_max_chunked(values, (u64::MAX, 0)))
}

/// Chunked min/max fold that *continues* an accumulator across slices — the
/// multi-page variant of [`min_max_chunked`] used by zone-statistics
/// construction, where one zone band folds over the valid values of many
/// consecutive pages without materializing a per-page `Option` in between.
///
/// The fold identities are `(u64::MAX, 0)`: start from
/// `(u64::MAX, 0)` and the result is `(min, max)` of everything folded, or
/// the identities unchanged if every slice was empty (callers detect the
/// empty zone from the row count they track alongside).
pub fn fold_min_max_chunked(values: &[u64], acc: (u64, u64)) -> (u64, u64) {
    min_max_dispatch(Isa::best(), values, acc)
}

/// The min/max family's dispatch: runs [`min_max_core`] compiled for `isa`.
#[inline]
fn min_max_dispatch(isa: Isa, values: &[u64], acc: (u64, u64)) -> (u64, u64) {
    match isa {
        // SAFETY: `Isa::Avx512` exists only after `has_avx512()` detected
        // avx2, avx512f and avx512vl, the features `min_max_avx512` enables.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { min_max_avx512(values, acc) },
        // SAFETY: `Isa::Avx2` exists only after `has_avx2()` detected avx2,
        // the feature `min_max_avx2` enables.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { min_max_avx2(values, acc) },
        Isa::Portable => min_max_core(values, acc),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512vl")]
fn min_max_avx512(values: &[u64], acc: (u64, u64)) -> (u64, u64) {
    min_max_core(values, acc)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn min_max_avx2(values: &[u64], acc: (u64, u64)) -> (u64, u64) {
    min_max_core(values, acc)
}

#[inline(always)]
fn min_max_core(values: &[u64], acc: (u64, u64)) -> (u64, u64) {
    let mut mins = [acc.0; LANES];
    let mut maxs = [acc.1; LANES];
    let mut chunks = values.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (i, &v) in chunk.iter().enumerate() {
            mins[i] = mins[i].min(v);
            maxs[i] = maxs[i].max(v);
        }
    }
    for &v in chunks.remainder() {
        mins[0] = mins[0].min(v);
        maxs[0] = maxs[0].max(v);
    }
    let min = mins.iter().copied().min().unwrap_or(acc.0);
    let max = maxs.iter().copied().max().unwrap_or(acc.1);
    (min, max)
}

/// Chunked page copy: materializes a page's words through the same
/// [`LANES`]-wide chunk structure as the filter kernels, so the alignment
/// snapshot and page-freeze copy loops compile to full-width vector moves
/// with one reserve and one bounds check per chunk instead of per-value
/// iterator stepping.
pub fn copy_values_chunked(src: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(src.len());
    let mut chunks = src.chunks_exact(LANES);
    for chunk in &mut chunks {
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(chunks.remainder());
    out
}

/// Chunked probe kernel: gathers the candidate slots' values in batches of
/// [`LANES`] and qualifies them with a branch-free lane mask. The widening
/// bounds stay untouched — a probe observes individual slots, not whole
/// pages (see [`crate::ScanKernel::probe_page_rows`]).
///
/// `rows` are ascending global row ids, all located on the page whose
/// values and base row are given.
///
/// # Panics
/// Panics if a row's slot is outside `values` (same contract as
/// [`crate::PageRef::value`]).
pub fn probe_rows_chunked(
    values: &[u64],
    range: &ValueRange,
    base_row: u64,
    rows: &[u64],
    count_only: bool,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    probe_dispatch(
        Isa::best(),
        values,
        range,
        base_row,
        rows,
        count_only,
        rows_out,
    )
}

/// The probe family's dispatch: runs [`probe_select`] compiled for `isa`.
#[inline]
fn probe_dispatch(
    isa: Isa,
    values: &[u64],
    range: &ValueRange,
    base_row: u64,
    rows: &[u64],
    count_only: bool,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    match isa {
        // SAFETY: `Isa::Avx512` exists only after `has_avx512()` detected
        // avx2, avx512f and avx512vl, the features `probe_avx512` enables.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { probe_avx512(values, range, base_row, rows, count_only, rows_out) },
        // SAFETY: `Isa::Avx2` exists only after `has_avx2()` detected avx2,
        // the feature `probe_avx2` enables.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { probe_avx2(values, range, base_row, rows, count_only, rows_out) },
        Isa::Portable => probe_select(values, range, base_row, rows, count_only, rows_out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512vl")]
fn probe_avx512(
    values: &[u64],
    range: &ValueRange,
    base_row: u64,
    rows: &[u64],
    count_only: bool,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    probe_select(values, range, base_row, rows, count_only, rows_out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn probe_avx2(
    values: &[u64],
    range: &ValueRange,
    base_row: u64,
    rows: &[u64],
    count_only: bool,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    probe_select(values, range, base_row, rows, count_only, rows_out)
}

/// Selects the [`probe_core`] instantiation for a runtime mode.
#[inline(always)]
fn probe_select(
    values: &[u64],
    range: &ValueRange,
    base_row: u64,
    rows: &[u64],
    count_only: bool,
    rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    if count_only {
        probe_core::<false>(values, range, base_row, rows, rows_out)
    } else {
        probe_core::<true>(values, range, base_row, rows, rows_out)
    }
}

#[inline(always)]
fn probe_core<const SUM: bool>(
    values: &[u64],
    range: &ValueRange,
    base_row: u64,
    rows: &[u64],
    mut rows_out: Option<&mut Vec<u64>>,
) -> PageScanResult {
    let (low, high) = (range.low(), range.high());
    let mut count = [0u64; LANES];
    let mut sum_lo = [0u64; LANES];
    let mut sum_hi = [0u64; LANES];
    let mut buf = [0u64; LANES];
    let mut chunks = rows.chunks_exact(LANES);
    for chunk in &mut chunks {
        // Gather: scalar loads, but the qualify/accumulate stage below is
        // branch-free lane arithmetic over the batched candidates.
        for (i, &row) in chunk.iter().enumerate() {
            buf[i] = values[(row - base_row) as usize];
        }
        let mut qbits = 0u64;
        for (i, &v) in buf.iter().enumerate() {
            let q = (v >= low) as u64 & (v <= high) as u64;
            let qm = q.wrapping_neg();
            count[i] += q;
            if SUM {
                let masked = v & qm;
                sum_lo[i] += masked & 0xFFFF_FFFF;
                sum_hi[i] += masked >> 32;
            }
            qbits |= q << i;
        }
        if let Some(out) = rows_out.as_deref_mut() {
            while qbits != 0 {
                let lane = qbits.trailing_zeros() as usize;
                out.push(chunk[lane]);
                qbits &= qbits - 1;
            }
        }
    }
    for (i, &row) in chunks.remainder().iter().enumerate() {
        let v = values[(row - base_row) as usize];
        let q = (v >= low) as u64 & (v <= high) as u64;
        let qm = q.wrapping_neg();
        count[i] += q;
        if SUM {
            let masked = v & qm;
            sum_lo[i] += masked & 0xFFFF_FFFF;
            sum_hi[i] += masked >> 32;
        }
        if q == 1 {
            if let Some(out) = rows_out.as_deref_mut() {
                out.push(row);
            }
        }
    }
    let sum = if SUM {
        let lo: u64 = sum_lo.iter().sum();
        let hi: u64 = sum_hi.iter().sum();
        lo as u128 + ((hi as u128) << 32)
    } else {
        0
    };
    PageScanResult {
        count: count.iter().sum(),
        sum,
        below_max: None,
        above_min: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Scalar reference of the full filter, written independently of the
    /// implementations in `page.rs`.
    fn reference(values: &[u64], range: &ValueRange, excluded: &[usize]) -> PageScanResult {
        let mut res = PageScanResult::default();
        for (idx, &v) in values.iter().enumerate() {
            if excluded.contains(&idx) {
                continue;
            }
            if range.contains(v) {
                res.count += 1;
                res.sum += v as u128;
            } else if v < range.low() {
                res.below_max = Some(res.below_max.map_or(v, |b| b.max(v)));
            } else {
                res.above_min = Some(res.above_min.map_or(v, |a| a.min(v)));
            }
        }
        res
    }

    fn random_values(len: usize, state: &mut u64) -> Vec<u64> {
        (0..len)
            .map(|_| match xorshift(state) % 10 {
                0 => 0,
                1 => u64::MAX,
                _ => xorshift(state) % 1_000,
            })
            .collect()
    }

    #[test]
    fn chunked_matches_reference_across_lengths_and_ranges() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for len in [0usize, 1, 7, 8, 9, 63, 64, 100, VALUES_PER_PAGE] {
            let values = random_values(len, &mut state);
            for range in [
                ValueRange::new(100, 600),
                ValueRange::full(),
                ValueRange::point(0),
                ValueRange::new(0, 0),
                ValueRange::new(999, u64::MAX),
            ] {
                let expected = reference(&values, &range, &[]);
                assert_eq!(scan_filter_chunked(&values, &range), expected, "len {len}");
                let count_only = scan_filter_count_chunked(&values, &range);
                assert_eq!(count_only.count, expected.count);
                assert_eq!(count_only.sum, 0);
                assert_eq!(count_only.below_max, expected.below_max);
                assert_eq!(count_only.above_min, expected.above_min);
                let unbounded =
                    scan_filter_unbounded_chunked(&values, &range, None, false, 0, None);
                assert_eq!(
                    (unbounded.count, unbounded.sum),
                    (expected.count, expected.sum)
                );
                assert_eq!((unbounded.below_max, unbounded.above_min), (None, None));
                let mut rows = Vec::new();
                let collected = scan_filter_collect_chunked(&values, &range, 1000, &mut rows);
                assert_eq!(collected, expected);
                let expected_rows: Vec<u64> = values
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| range.contains(**v))
                    .map(|(i, _)| 1000 + i as u64)
                    .collect();
                assert_eq!(rows, expected_rows, "len {len}");
            }
        }
    }

    #[test]
    fn checksum_is_exact_at_domain_extremes() {
        // u64::MAX values stress the 32-bit-split accumulation.
        let values = vec![u64::MAX; VALUES_PER_PAGE];
        let res = scan_filter_chunked(&values, &ValueRange::full());
        assert_eq!(res.count, VALUES_PER_PAGE as u64);
        assert_eq!(res.sum, (u64::MAX as u128) * VALUES_PER_PAGE as u128);
    }

    #[test]
    fn exclusion_mask_matches_reference() {
        let mut state = 0xdead_beefu64;
        for len in [1usize, 8, 17, 200, VALUES_PER_PAGE] {
            let values = random_values(len, &mut state);
            let excluded: Vec<usize> = (0..len)
                .filter(|_| xorshift(&mut state).is_multiple_of(4))
                .collect();
            let mask = PageExclusionMask::from_slots(excluded.iter().copied());
            assert_eq!(mask.is_empty(), excluded.is_empty());
            let range = ValueRange::new(50, 700);
            let expected = reference(&values, &range, &excluded);
            let got = scan_filter_excluding_chunked(&values, &range, &mask, false, 0, None);
            assert_eq!(got, expected, "len {len}");
            // Count-only zeroes the checksum but keeps everything else.
            let count_only = scan_filter_excluding_chunked(&values, &range, &mask, true, 0, None);
            assert_eq!(count_only.count, expected.count);
            assert_eq!(count_only.sum, 0);
            assert_eq!(count_only.below_max, expected.below_max);
            // Collection honours the exclusions.
            let mut rows = Vec::new();
            scan_filter_excluding_chunked(&values, &range, &mask, false, 0, Some(&mut rows));
            let expected_rows: Vec<u64> = values
                .iter()
                .enumerate()
                .filter(|(i, v)| !excluded.contains(i) && range.contains(**v))
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(rows, expected_rows);
        }
    }

    #[test]
    fn exclusion_masks_index_per_page() {
        let vpp = VALUES_PER_PAGE as u64;
        let rows = vec![3, 5, vpp, 2 * vpp + 7, 2 * vpp + 8];
        // Unsorted and duplicated input builds the same masks.
        let shuffled = vec![2 * vpp + 8, 5, vpp, 3, 2 * vpp + 7, 5, vpp, 3];
        for input in [rows.clone(), shuffled] {
            let masks = ExclusionMasks::from_rows(input);
            assert_eq!(masks.rows(), &rows[..]);
            assert!(!masks.is_empty());
            assert!(masks.mask_for(0).unwrap().excluded(3));
            assert!(masks.mask_for(0).unwrap().excluded(5));
            assert!(!masks.mask_for(0).unwrap().excluded(4));
            assert!(masks.mask_for(1).unwrap().excluded(0));
            assert!(masks.mask_for(2).unwrap().excluded(7));
            assert!(masks.mask_for(2).unwrap().excluded(8));
            assert!(masks.mask_for(3).is_none());
        }
        assert!(ExclusionMasks::from_rows(Vec::new()).is_empty());
    }

    #[test]
    fn min_max_matches_iterator_fold() {
        let mut state = 42u64;
        for len in [0usize, 1, 5, 8, 64, 100, VALUES_PER_PAGE] {
            let values = random_values(len, &mut state);
            let expected = values
                .iter()
                .copied()
                .min()
                .zip(values.iter().copied().max());
            assert_eq!(min_max_chunked(&values), expected, "len {len}");
        }
    }

    #[test]
    fn fold_min_max_continues_accumulators_across_slices() {
        let mut state = 0xfeed_faceu64;
        for lens in [
            vec![0usize],
            vec![0, 0, 0],
            vec![1, 7, 8],
            vec![VALUES_PER_PAGE, 100, 0, 9],
        ] {
            let slices: Vec<Vec<u64>> = lens
                .iter()
                .map(|&len| random_values(len, &mut state))
                .collect();
            let mut acc = (u64::MAX, 0u64);
            for slice in &slices {
                acc = fold_min_max_chunked(slice, acc);
            }
            let all: Vec<u64> = slices.iter().flatten().copied().collect();
            match min_max_chunked(&all) {
                Some(expected) => assert_eq!(acc, expected, "lens {lens:?}"),
                None => assert_eq!(acc, (u64::MAX, 0), "lens {lens:?}"),
            }
        }
    }

    #[test]
    fn chunked_copy_is_exact() {
        let mut state = 0xc0ff_ee00u64;
        for len in [0usize, 1, 7, 8, 9, 64, 100, VALUES_PER_PAGE + 1] {
            let values = random_values(len, &mut state);
            assert_eq!(copy_values_chunked(&values), values, "len {len}");
        }
    }

    #[test]
    fn probe_matches_reference() {
        let mut state = 7u64;
        let values = random_values(VALUES_PER_PAGE, &mut state);
        let base = 5 * VALUES_PER_PAGE as u64;
        let rows: Vec<u64> = (0..VALUES_PER_PAGE as u64)
            .filter(|_| xorshift(&mut state).is_multiple_of(3))
            .map(|slot| base + slot)
            .collect();
        let range = ValueRange::new(100, 800);
        let expected_rows: Vec<u64> = rows
            .iter()
            .copied()
            .filter(|&r| range.contains(values[(r - base) as usize]))
            .collect();
        let expected_sum: u128 = expected_rows
            .iter()
            .map(|&r| values[(r - base) as usize] as u128)
            .sum();
        let mut got_rows = Vec::new();
        let res = probe_rows_chunked(&values, &range, base, &rows, false, Some(&mut got_rows));
        assert_eq!(res.count, expected_rows.len() as u64);
        assert_eq!(res.sum, expected_sum);
        assert_eq!(res.below_max, None);
        assert_eq!(res.above_min, None);
        assert_eq!(got_rows, expected_rows);
        let count_only = probe_rows_chunked(&values, &range, base, &rows, true, None);
        assert_eq!(count_only.count, expected_rows.len() as u64);
        assert_eq!(count_only.sum, 0);
    }

    /// Every tier this host can run, detected exactly as [`Isa::best`]
    /// detects them; the tiers it lacks are printed as skipped.
    fn host_tiers() -> Vec<Isa> {
        let mut tiers = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                tiers.push(Isa::Avx512);
            } else {
                println!("skipped tier avx512: CPU lacks avx2/avx512f/avx512vl");
            }
            if has_avx2() {
                tiers.push(Isa::Avx2);
            } else {
                println!("skipped tier avx2: CPU lacks avx2");
            }
        }
        tiers.push(Isa::Portable);
        tiers
    }

    const HALF: u64 = 1 << 63;

    /// Values that stress every tier's compare lowering: the domain ends
    /// and values straddling 2⁶³ (where a signed compare would flip),
    /// mixed with small and full-width random values.
    fn edge_values(len: usize, state: &mut u64) -> Vec<u64> {
        (0..len)
            .map(|_| match xorshift(state) % 8 {
                0 => 0,
                1 => u64::MAX,
                2 => HALF - 1 - xorshift(state) % 3,
                3 => HALF + xorshift(state) % 3,
                4 => xorshift(state),
                _ => xorshift(state) % 1_000,
            })
            .collect()
    }

    fn edge_ranges() -> Vec<ValueRange> {
        vec![
            ValueRange::new(100, 600),
            ValueRange::full(),
            ValueRange::point(0),
            ValueRange::point(u64::MAX),
            ValueRange::point(HALF),
            ValueRange::point(HALF - 1),
            ValueRange::new(HALF - 1, HALF),
            ValueRange::new(HALF - 2, HALF + 2),
            ValueRange::new(0, HALF - 1),
            ValueRange::new(HALF, u64::MAX),
            ValueRange::new(500, HALF + 1),
        ]
    }

    /// Checks one `BOUNDS` instantiation of the scan family on `isa` in
    /// all four SUM × COLLECT combinations against [`reference`].
    fn check_scan_tier<const BOUNDS: bool>(
        isa: Isa,
        values: &[u64],
        range: &ValueRange,
        exclusion: Option<&PageExclusionMask>,
        excluded: &[usize],
    ) {
        let full = reference(values, range, excluded);
        let base = 7 * VALUES_PER_PAGE as u64;
        let expected_rows: Vec<u64> = values
            .iter()
            .enumerate()
            .filter(|(i, v)| !excluded.contains(i) && range.contains(**v))
            .map(|(i, _)| base + i as u64)
            .collect();
        for count_only in [false, true] {
            for collect in [false, true] {
                let what = format!(
                    "{isa:?} bounds {BOUNDS} count_only {count_only} collect {collect} \
                     excl {} len {} {range:?}",
                    exclusion.is_some(),
                    values.len()
                );
                let mut rows = Vec::new();
                let got = scan_dispatch::<BOUNDS>(
                    isa,
                    values,
                    range,
                    exclusion,
                    count_only,
                    base,
                    collect.then_some(&mut rows),
                );
                let expected = PageScanResult {
                    count: full.count,
                    sum: if count_only { 0 } else { full.sum },
                    below_max: full.below_max.filter(|_| BOUNDS),
                    above_min: full.above_min.filter(|_| BOUNDS),
                };
                assert_eq!(got, expected, "{what}");
                if collect {
                    assert_eq!(rows, expected_rows, "{what}");
                }
            }
        }
    }

    #[test]
    fn every_host_tier_scans_like_the_reference() {
        let mut state = 0x5eed_7135u64;
        for isa in host_tiers() {
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 100, VALUES_PER_PAGE] {
                let values = edge_values(len, &mut state);
                // Exclusion bits beyond `len` must be ignored.
                let excluded: Vec<usize> = (0..VALUES_PER_PAGE)
                    .filter(|_| xorshift(&mut state).is_multiple_of(5))
                    .collect();
                let mask = PageExclusionMask::from_slots(excluded.iter().copied());
                for range in edge_ranges() {
                    check_scan_tier::<true>(isa, &values, &range, None, &[]);
                    check_scan_tier::<false>(isa, &values, &range, None, &[]);
                    check_scan_tier::<true>(isa, &values, &range, Some(&mask), &excluded);
                    check_scan_tier::<false>(isa, &values, &range, Some(&mask), &excluded);
                }
            }
        }
    }

    #[test]
    fn every_host_tier_probes_like_the_reference() {
        let mut state = 0xb0b0_cafeu64;
        let base = 3 * VALUES_PER_PAGE as u64;
        for isa in host_tiers() {
            let values = edge_values(VALUES_PER_PAGE, &mut state);
            for keep_one_in in [1u64, 3, 50] {
                let rows: Vec<u64> = (0..VALUES_PER_PAGE as u64)
                    .filter(|_| xorshift(&mut state).is_multiple_of(keep_one_in))
                    .map(|slot| base + slot)
                    .collect();
                for range in edge_ranges() {
                    let expected_rows: Vec<u64> = rows
                        .iter()
                        .copied()
                        .filter(|&r| range.contains(values[(r - base) as usize]))
                        .collect();
                    let expected_sum: u128 = expected_rows
                        .iter()
                        .map(|&r| values[(r - base) as usize] as u128)
                        .sum();
                    for count_only in [false, true] {
                        let what = format!("{isa:?} 1/{keep_one_in} {range:?} {count_only}");
                        let mut got_rows = Vec::new();
                        let res = probe_dispatch(
                            isa,
                            &values,
                            &range,
                            base,
                            &rows,
                            count_only,
                            Some(&mut got_rows),
                        );
                        assert_eq!(res.count, expected_rows.len() as u64, "{what}");
                        let sum = if count_only { 0 } else { expected_sum };
                        assert_eq!(res.sum, sum, "{what}");
                        assert_eq!((res.below_max, res.above_min), (None, None), "{what}");
                        assert_eq!(got_rows, expected_rows, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn every_host_tier_folds_min_max_like_the_reference() {
        let mut state = 0x0dd_ba11u64;
        for isa in host_tiers() {
            for len in [0usize, 1, 5, 8, 9, 64, 100, VALUES_PER_PAGE] {
                let values = edge_values(len, &mut state);
                for acc in [(u64::MAX, 0), (HALF, HALF - 1), (0, u64::MAX), (7, 9)] {
                    let expected = values
                        .iter()
                        .fold(acc, |(lo, hi), &v| (lo.min(v), hi.max(v)));
                    let got = min_max_dispatch(isa, &values, acc);
                    assert_eq!(got, expected, "{isa:?} len {len} acc {acc:?}");
                }
            }
        }
    }

    #[test]
    fn kernel_isa_names_the_best_host_tier() {
        assert_eq!(kernel_isa(), host_tiers()[0].name());
    }

    #[test]
    #[should_panic(expected = "out of page bounds")]
    fn mask_rejects_out_of_page_slots() {
        PageExclusionMask::from_slots([VALUES_PER_PAGE]);
    }
}
