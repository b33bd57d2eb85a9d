//! Lane types for span kernels whose lanes are target particles.
//!
//! A kernel body is written once against the method set the value types
//! here share and instantiated for each (`gravity`'s `bucket_kernels!`,
//! `collision`'s `sweep_kernel!`):
//! [`X1`] is one `f64` — the only instantiation off x86-64 or without
//! AVX2, and the one the public per-pair kernels are — [`X4`] is four of
//! them in a `__m256d` (AVX2) and [`X8`] eight in a `__m512d`
//! (AVX-512F). Which one a span runs on is [`width`]'s one choice from
//! the CPU. A group of lanes is loaded from, and stored to, a stretch of
//! one of a span's columns (`paratreet_core::TargetSpan::lanes`):
//! consecutive values, one per lane.
//!
//! Identity contract: every method is the IEEE-754 operation of its
//! name applied to each lane on its own — a correctly rounded add, sub,
//! mul, div or sqrt, never a fused multiply-add or a reciprocal
//! estimate — and a condition picks a value per lane (a blend in an
//! `X4`, a mask blend in an `X8`) without skipping the operations
//! around it. A body that spells the same operations in the same order
//! therefore leaves the same bits in an `X4` or `X8` lane as it leaves
//! in an `X1`. A comparison (`lt`, `le`, `gt`, `eq`, [`Ids1::lt`])
//! is the IEEE-754 ordered comparison of its name per lane — false where
//! either side is NaN, as Rust's operators are — and yields a mask
//! ([`Mask1`], `Mask4`, `Mask8`) that `blend` picks values by and
//! `bits` reads out, one bit per lane. The one branch a body may take is
//! on a whole group: when *every* lane is degenerate ([`X1::all_zero`],
//! or a mask with no bit set) it may return at once what the blends
//! would have left. With one lane that is the early return the per-pair
//! kernels always had (as a blend alone, `grav_exact` measured 4.8 ns
//! for 3.8); with four or eight it is almost never taken.
//!
//! Every `X4` method carries `#[target_feature(enable = "avx2")]` and
//! every `X8` method `#[target_feature(enable = "avx512f")]`: safe code
//! reaches one only from a function with the same attribute, whose
//! caller vouched for the CPU. The methods that touch memory (`load`,
//! which `Ids4::load` / `Ids8::load` go through, and `store`) take a
//! slice, check its length and hand its pointer to an unaligned
//! intrinsic — a full-width load or store, or a masked store for a short
//! last group — three `unsafe` blocks per width. The seventh is
//! [`at_width!`], the one place a kernel instantiation is called by
//! width: every `unsafe` of the crate is in this file.

use std::sync::OnceLock;

/// How many target lanes the span kernels run per instruction on this
/// CPU: 8 where it has AVX-512F and AVX2, 4 where it has AVX2, 1
/// elsewhere — so every width up to the returned one runs here. The one
/// place the CPU is asked, once.
pub(crate) fn width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = std::arch::is_x86_feature_detected!("avx2");
            if avx2 && std::arch::is_x86_feature_detected!("avx512f") {
                return X8::LANES;
            }
            if avx2 {
                return X4::LANES;
            }
        }
        X1::LANES
    })
}

/// `x8::$kernel(args)`, `x4::…` or `x1::…` of the calling module, by
/// `lanes`: the CPU's [`width`], or in the identity tests any width up
/// to it (a wider one panics, naming both). The calling module's `x1`,
/// `x4` and `x8` are one kernel macro instantiated over [`X1`], over
/// [`X4`] with `#[target_feature(enable = "avx2")]` and over [`X8`]
/// with `#[target_feature(enable = "avx512f")]`, as `gravity`'s and
/// `collision`'s are; the arguments are evaluated once, in the arm that
/// runs.
macro_rules! at_width {
    ($lanes:expr, $kernel:ident($($arg:expr),* $(,)?)) => {{
        let lanes: usize = $lanes;
        let cpu = $crate::lanes::width();
        assert!(lanes <= cpu, "{lanes} lanes on a CPU that runs {cpu}");
        match lanes {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `lanes` is at most `width()` (asserted above),
            // which is 8 only where the CPU has AVX-512F and AVX2, and 4
            // only where it has AVX2: the features `x8`'s and `x4`'s
            // functions are compiled for.
            8 | 4 => unsafe {
                if lanes == 8 {
                    x8::$kernel($($arg),*)
                } else {
                    x4::$kernel($($arg),*)
                }
            },
            _ => x1::$kernel($($arg),*),
        }
    }};
}
pub(crate) use at_width;

/// One lane: a plain `f64`.
#[derive(Clone, Copy)]
pub(crate) struct X1(f64);

/// The identifiers of an [`X1`]'s particle.
#[derive(Clone, Copy)]
pub(crate) struct Ids1(u64);

/// A condition on an [`X1`]'s lane.
#[derive(Clone, Copy)]
pub(crate) struct Mask1(bool);

#[allow(clippy::should_implement_trait)]
impl X1 {
    pub const LANES: usize = 1;

    #[inline(always)]
    pub fn splat(x: f64) -> X1 {
        X1(x)
    }

    /// Lane `l` holds `column[l]`.
    #[inline(always)]
    pub fn load(column: &[f64]) -> X1 {
        X1(column[0])
    }

    /// `column[l]` takes lane `l`, for the first `live` lanes.
    #[inline(always)]
    pub fn store(self, column: &mut [f64], live: usize) {
        debug_assert_eq!(live, 1);
        column[0] = self.0;
    }

    #[inline(always)]
    pub fn to_array(self) -> [f64; 1] {
        [self.0]
    }

    #[inline(always)]
    pub fn add(self, o: X1) -> X1 {
        X1(self.0 + o.0)
    }

    #[inline(always)]
    pub fn sub(self, o: X1) -> X1 {
        X1(self.0 - o.0)
    }

    #[inline(always)]
    pub fn mul(self, o: X1) -> X1 {
        X1(self.0 * o.0)
    }

    #[inline(always)]
    pub fn div(self, o: X1) -> X1 {
        X1(self.0 / o.0)
    }

    #[inline(always)]
    pub fn neg(self) -> X1 {
        X1(-self.0)
    }

    #[inline(always)]
    pub fn sqrt(self) -> X1 {
        X1(self.0.sqrt())
    }

    /// `f64::max`: the other operand where one is NaN.
    #[inline(always)]
    pub fn max(self, o: X1) -> X1 {
        X1(self.0.max(o.0))
    }

    /// `f64::min`: the other operand where one is NaN.
    #[inline(always)]
    pub fn min(self, o: X1) -> X1 {
        X1(self.0.min(o.0))
    }

    /// True when every lane is zero.
    #[inline(always)]
    pub fn all_zero(self) -> bool {
        self.0 == 0.0
    }

    /// `self < o` per lane.
    #[inline(always)]
    pub fn lt(self, o: X1) -> Mask1 {
        Mask1(self.0 < o.0)
    }

    /// `self <= o` per lane.
    #[inline(always)]
    pub fn le(self, o: X1) -> Mask1 {
        Mask1(self.0 <= o.0)
    }

    /// `self > o` per lane.
    #[inline(always)]
    pub fn gt(self, o: X1) -> Mask1 {
        Mask1(self.0 > o.0)
    }

    /// `self == o` per lane.
    #[inline(always)]
    pub fn eq(self, o: X1) -> Mask1 {
        Mask1(self.0 == o.0)
    }

    /// `by` in the lanes where `mask` holds, `self` elsewhere.
    #[inline(always)]
    pub fn blend(self, mask: Mask1, by: X1) -> X1 {
        if mask.0 {
            by
        } else {
            self
        }
    }
}

impl Ids1 {
    /// Lane `l` holds the identifier whose bits `column[l]` carries.
    #[inline(always)]
    pub fn load(column: &[f64]) -> Ids1 {
        Ids1(column[0].to_bits())
    }

    /// `same` in the lanes whose identifier is `id`, `other` elsewhere.
    #[inline(always)]
    pub fn select_eq(self, id: u64, same: X1, other: X1) -> X1 {
        if self.0 == id {
            same
        } else {
            other
        }
    }

    /// The lanes whose identifier is below `id`, unsigned.
    #[inline(always)]
    pub fn lt(self, id: u64) -> Mask1 {
        Mask1(self.0 < id)
    }
}

impl Mask1 {
    /// Both conditions.
    #[inline(always)]
    pub fn and(self, o: Mask1) -> Mask1 {
        Mask1(self.0 && o.0)
    }

    /// Bit `l` set where lane `l`'s condition holds.
    #[inline(always)]
    pub fn bits(self) -> u32 {
        self.0 as u32
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::{Ids4, X4};
#[cfg(target_arch = "x86_64")]
pub(crate) use avx512::{Ids8, X8};

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Four lanes in one AVX register.
    #[derive(Clone, Copy)]
    pub(crate) struct X4(__m256d);

    /// The identifiers of an [`X4`]'s four particles.
    #[derive(Clone, Copy)]
    pub(crate) struct Ids4(__m256i);

    /// A condition on an [`X4`]'s lanes: all ones where it holds.
    #[derive(Clone, Copy)]
    pub(crate) struct Mask4(__m256d);

    #[allow(clippy::should_implement_trait)]
    impl X4 {
        pub const LANES: usize = 4;

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn splat(x: f64) -> X4 {
            X4(_mm256_set1_pd(x))
        }

        /// Lane `l` holds `column[l]`.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn load(column: &[f64]) -> X4 {
            assert!(column.len() >= X4::LANES);
            // SAFETY: the slice holds at least four `f64`s (asserted
            // above), so 32 bytes from its start are readable;
            // `loadu` has no alignment requirement.
            X4(unsafe { _mm256_loadu_pd(column.as_ptr()) })
        }

        /// `column[l]` takes lane `l`, for the first `live` lanes; the
        /// values past them keep every bit.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn store(self, column: &mut [f64], live: usize) {
            if live == X4::LANES {
                assert!(column.len() >= X4::LANES);
                // SAFETY: the slice holds at least four `f64`s (asserted
                // above) and is borrowed mutably, so 32 bytes from its
                // start are writable; `storeu` has no alignment
                // requirement.
                unsafe { _mm256_storeu_pd(column.as_mut_ptr(), self.0) }
            } else {
                assert!(column.len() >= live);
                let lane = _mm256_set_epi64x(3, 2, 1, 0);
                let is_live = _mm256_cmpgt_epi64(_mm256_set1_epi64x(live as i64), lane);
                // SAFETY: only lanes `l < live` have their mask's sign
                // bit set, `maskstore` neither writes nor faults on the
                // others, and the mutably borrowed slice holds at least
                // `live` values (asserted above).
                unsafe { _mm256_maskstore_pd(column.as_mut_ptr(), is_live, self.0) }
            }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn add(self, o: X4) -> X4 {
            X4(_mm256_add_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn sub(self, o: X4) -> X4 {
            X4(_mm256_sub_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn mul(self, o: X4) -> X4 {
            X4(_mm256_mul_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn div(self, o: X4) -> X4 {
            X4(_mm256_div_pd(self.0, o.0))
        }

        /// Flips the sign bit, as scalar negation does.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn neg(self) -> X4 {
            X4(_mm256_xor_pd(self.0, _mm256_set1_pd(-0.0)))
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn sqrt(self) -> X4 {
            X4(_mm256_sqrt_pd(self.0))
        }

        /// `f64::max`: `vmaxpd` yields its second operand when either is
        /// NaN, so lanes where that one is the NaN take the first.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn max(self, o: X4) -> X4 {
            let max = _mm256_max_pd(self.0, o.0);
            X4(_mm256_blendv_pd(max, self.0, _mm256_cmp_pd::<_CMP_UNORD_Q>(o.0, o.0)))
        }

        /// `f64::min`, as [`X4::max`].
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn min(self, o: X4) -> X4 {
            let min = _mm256_min_pd(self.0, o.0);
            X4(_mm256_blendv_pd(min, self.0, _mm256_cmp_pd::<_CMP_UNORD_Q>(o.0, o.0)))
        }

        /// True when every lane is zero.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn all_zero(self) -> bool {
            _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(self.0, _mm256_setzero_pd())) == 0b1111
        }

        /// `self < o` per lane.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn lt(self, o: X4) -> Mask4 {
            Mask4(_mm256_cmp_pd::<_CMP_LT_OQ>(self.0, o.0))
        }

        /// `self <= o` per lane.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn le(self, o: X4) -> Mask4 {
            Mask4(_mm256_cmp_pd::<_CMP_LE_OQ>(self.0, o.0))
        }

        /// `self > o` per lane.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn gt(self, o: X4) -> Mask4 {
            Mask4(_mm256_cmp_pd::<_CMP_GT_OQ>(self.0, o.0))
        }

        /// `self == o` per lane.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn eq(self, o: X4) -> Mask4 {
            Mask4(_mm256_cmp_pd::<_CMP_EQ_OQ>(self.0, o.0))
        }

        /// `by` in the lanes where `mask` holds, `self` elsewhere.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn blend(self, mask: Mask4, by: X4) -> X4 {
            X4(_mm256_blendv_pd(self.0, by.0, mask.0))
        }
    }

    impl Ids4 {
        /// Lane `l` holds the identifier whose bits `column[l]` carries.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn load(column: &[f64]) -> Ids4 {
            Ids4(_mm256_castpd_si256(X4::load(column).0))
        }

        /// `same` in the lanes whose identifier is `id`, `other` elsewhere.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn select_eq(self, id: u64, same: X4, other: X4) -> X4 {
            let eq = _mm256_cmpeq_epi64(self.0, _mm256_set1_epi64x(id as i64));
            X4(_mm256_blendv_pd(other.0, same.0, _mm256_castsi256_pd(eq)))
        }

        /// The lanes whose identifier is below `id`, unsigned: AVX2
        /// compares signed, so both sides have their sign bit flipped.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn lt(self, id: u64) -> Mask4 {
            let flip = _mm256_set1_epi64x(i64::MIN);
            let id = _mm256_set1_epi64x((id ^ (1 << 63)) as i64);
            let lt = _mm256_cmpgt_epi64(id, _mm256_xor_si256(self.0, flip));
            Mask4(_mm256_castsi256_pd(lt))
        }
    }

    impl Mask4 {
        /// Both conditions.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn and(self, o: Mask4) -> Mask4 {
            Mask4(_mm256_and_pd(self.0, o.0))
        }

        /// Bit `l` set where lane `l`'s condition holds.
        #[inline]
        #[target_feature(enable = "avx2")]
        pub fn bits(self) -> u32 {
            _mm256_movemask_pd(self.0) as u32
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    /// Eight lanes in one AVX-512 register.
    #[derive(Clone, Copy)]
    pub(crate) struct X8(__m512d);

    /// The identifiers of an [`X8`]'s eight particles.
    #[derive(Clone, Copy)]
    pub(crate) struct Ids8(__m512i);

    /// A condition on an [`X8`]'s lanes: one mask bit per lane.
    #[derive(Clone, Copy)]
    pub(crate) struct Mask8(__mmask8);

    #[allow(clippy::should_implement_trait)]
    impl X8 {
        pub const LANES: usize = 8;

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn splat(x: f64) -> X8 {
            X8(_mm512_set1_pd(x))
        }

        /// Lane `l` holds `column[l]`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn load(column: &[f64]) -> X8 {
            assert!(column.len() >= X8::LANES);
            // SAFETY: the slice holds at least eight `f64`s (asserted
            // above), so 64 bytes from its start are readable;
            // `loadu` has no alignment requirement.
            X8(unsafe { _mm512_loadu_pd(column.as_ptr()) })
        }

        /// `column[l]` takes lane `l`, for the first `live` lanes; the
        /// values past them keep every bit.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn store(self, column: &mut [f64], live: usize) {
            if live == X8::LANES {
                assert!(column.len() >= X8::LANES);
                // SAFETY: the slice holds at least eight `f64`s (asserted
                // above) and is borrowed mutably, so 64 bytes from its
                // start are writable; `storeu` has no alignment
                // requirement.
                unsafe { _mm512_storeu_pd(column.as_mut_ptr(), self.0) }
            } else {
                assert!(live < X8::LANES && column.len() >= live);
                let is_live = ((1u16 << live) - 1) as __mmask8;
                // SAFETY: only bits `l < live` of the mask are set, a
                // masked store neither writes nor faults on the other
                // lanes, and the mutably borrowed slice holds at least
                // `live` values (asserted above).
                unsafe { _mm512_mask_storeu_pd(column.as_mut_ptr(), is_live, self.0) }
            }
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn add(self, o: X8) -> X8 {
            X8(_mm512_add_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn sub(self, o: X8) -> X8 {
            X8(_mm512_sub_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn mul(self, o: X8) -> X8 {
            X8(_mm512_mul_pd(self.0, o.0))
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn div(self, o: X8) -> X8 {
            X8(_mm512_div_pd(self.0, o.0))
        }

        /// Flips the sign bit, as scalar negation does (an integer xor:
        /// AVX-512F has no floating-point one).
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn neg(self) -> X8 {
            let sign = _mm512_set1_epi64(i64::MIN);
            X8(_mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(self.0), sign)))
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn sqrt(self) -> X8 {
            X8(_mm512_sqrt_pd(self.0))
        }

        /// `f64::max`: `vmaxpd` yields its second operand when either is
        /// NaN, so lanes where that one is the NaN take the first.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn max(self, o: X8) -> X8 {
            let max = _mm512_max_pd(self.0, o.0);
            X8(_mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_UNORD_Q>(o.0, o.0), max, self.0))
        }

        /// `f64::min`, as [`X8::max`].
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn min(self, o: X8) -> X8 {
            let min = _mm512_min_pd(self.0, o.0);
            X8(_mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_UNORD_Q>(o.0, o.0), min, self.0))
        }

        /// True when every lane is zero.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn all_zero(self) -> bool {
            _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(self.0, _mm512_setzero_pd()) == 0xff
        }

        /// `self < o` per lane.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn lt(self, o: X8) -> Mask8 {
            Mask8(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(self.0, o.0))
        }

        /// `self <= o` per lane.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn le(self, o: X8) -> Mask8 {
            Mask8(_mm512_cmp_pd_mask::<_CMP_LE_OQ>(self.0, o.0))
        }

        /// `self > o` per lane.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn gt(self, o: X8) -> Mask8 {
            Mask8(_mm512_cmp_pd_mask::<_CMP_GT_OQ>(self.0, o.0))
        }

        /// `self == o` per lane.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn eq(self, o: X8) -> Mask8 {
            Mask8(_mm512_cmp_pd_mask::<_CMP_EQ_OQ>(self.0, o.0))
        }

        /// `by` in the lanes where `mask` holds, `self` elsewhere.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn blend(self, mask: Mask8, by: X8) -> X8 {
            X8(_mm512_mask_blend_pd(mask.0, self.0, by.0))
        }
    }

    impl Ids8 {
        /// Lane `l` holds the identifier whose bits `column[l]` carries.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn load(column: &[f64]) -> Ids8 {
            Ids8(_mm512_castpd_si512(X8::load(column).0))
        }

        /// `same` in the lanes whose identifier is `id`, `other` elsewhere.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn select_eq(self, id: u64, same: X8, other: X8) -> X8 {
            let eq = _mm512_cmpeq_epi64_mask(self.0, _mm512_set1_epi64(id as i64));
            X8(_mm512_mask_blend_pd(eq, other.0, same.0))
        }

        /// The lanes whose identifier is below `id`, unsigned.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn lt(self, id: u64) -> Mask8 {
            Mask8(_mm512_cmplt_epu64_mask(self.0, _mm512_set1_epi64(id as i64)))
        }
    }

    impl Mask8 {
        /// Both conditions.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn and(self, o: Mask8) -> Mask8 {
            Mask8(self.0 & o.0)
        }

        /// Bit `l` set where lane `l`'s condition holds.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn bits(self) -> u32 {
            self.0 as u32
        }
    }
}
