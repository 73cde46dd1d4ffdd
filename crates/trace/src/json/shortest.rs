//! The shortest decimal digits that round-trip an `f64`, by Ryū (Ulf
//! Adams, "Ryū: fast float-to-string conversion", PLDI 2018).
//!
//! [`shortest`] returns the digits and the power of ten; the caller lays
//! them out. The two tables of 125-bit powers of five are derived at
//! compile time from exact multi-limb integers, so no literal table has
//! to be trusted.

/// Bits kept of each power of five and of each inverse.
const POW5_BITCOUNT: i32 = 125;
const POW5_INV_BITCOUNT: i32 = 125;

/// `POW5_SPLIT[i]` is 5^i scaled to exactly 125 bits: `5^i >> (len −
/// 125)`, where `len` is its bit length (shifted left while shorter).
static POW5_SPLIT: [u128; 326] = pow5_split();

/// `POW5_INV_SPLIT[i]` is `⌊2^(len − 1 + 125) / 5^i⌋ + 1`, with `len` the
/// bit length of 5^i.
static POW5_INV_SPLIT: [u128; 342] = pow5_inv_split();

/// The shortest `(digits, e10)` with `digits × 10^e10` inside the
/// interval of reals that round to `v` (ends included when `v`'s
/// significand is even), nearest `v` among those. `None` only on an
/// exact tie between two nearest candidates, whose breaking rule is
/// left to the caller. `v` must be finite and positive.
pub(super) fn shortest(v: f64) -> Option<(u64, i32)> {
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = (bits >> 52) as i32 & 0x7ff;
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (ieee_exponent - 1023 - 52 - 2, (1 << 52) | ieee_mantissa)
    };
    let even = m2 & 1 == 0;
    // The interval is (mm, mp) around mv, scaled by 4 so that both ends
    // are integers; the lower gap halves at a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale the interval by a power of ten to about 17 digits, noting
    // whether the lower end and the value itself are exact there.
    let (mut vr, mut vp, mut vm, e10);
    let (mut vm_trailing_zeros, mut vr_trailing_zeros) = (false, false);
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let j = q as i32 - e2 + k;
        let mul = POW5_INV_SPLIT[q as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        if q <= 21 {
            if mv.is_multiple_of(5) {
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            } else if even {
                vm_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let j = q as i32 - (pow5_bits(i) - POW5_BITCOUNT);
        let mul = POW5_SPLIT[i as usize];
        (vr, vp, vm) = (
            mul_shift(mv, mul, j),
            mul_shift(mp, mul, j),
            mul_shift(mm, mul, j),
        );
        if q <= 1 {
            vr_trailing_zeros = true;
            if even {
                vm_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        } else if q < 63 {
            vr_trailing_zeros = mv & ((1 << q) - 1) == 0;
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let output = if vm_trailing_zeros || vr_trailing_zeros {
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last_removed == 0;
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_trailing_zeros {
            while vm % 10 == 0 {
                vr_trailing_zeros &= last_removed == 0;
                last_removed = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        if vr_trailing_zeros && last_removed == 5 {
            // The value lies exactly halfway between vr and vr + 1.
            return None;
        }
        vr + u64::from((vr == vm && (!even || !vm_trailing_zeros)) || last_removed >= 5)
    } else {
        // The common case: neither end is exact, so no tie can occur.
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    Some((output, e10 + removed))
}

/// `⌊m × mul / 2^j⌋` for a 55-bit `m` and a 125-bit `mul`, `64 ≤ j < 192`.
fn mul_shift(m: u64, mul: u128, j: i32) -> u64 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// Bit length of 5^e (1 for e = 0), for `0 ≤ e ≤ 3528`.
const fn pow5_bits(e: i32) -> i32 {
    (((e as u32) * 1217359) >> 19) as i32 + 1
}

/// `⌊log10(2^e)⌋` for `0 ≤ e ≤ 1650`.
fn log10_pow2(e: i32) -> u32 {
    ((e as u32) * 78913) >> 18
}

/// `⌊log10(5^e)⌋` for `0 ≤ e ≤ 2620`.
fn log10_pow5(e: i32) -> u32 {
    ((e as u32) * 732923) >> 20
}

/// Whether 5^p divides `v` (`v > 0`).
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    let mut count = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        count += 1;
    }
    count >= p
}

/// Limbs of the exact integers the tables come from: 2^1024 needs 17.
const LIMBS: usize = 17;

/// A little-endian multi-limb unsigned integer.
type Big = [u64; LIMBS];

const fn pow5_split() -> [u128; 326] {
    let mut table = [0; 326];
    let mut pow5: Big = [0; LIMBS];
    pow5[0] = 1;
    let mut i = 0;
    while i < table.len() {
        let len = bit_len(&pow5);
        assert!(len as i32 == pow5_bits(i as i32));
        table[i] = if len >= POW5_BITCOUNT as u32 {
            bits_from(&pow5, len - POW5_BITCOUNT as u32)
        } else {
            bits_from(&pow5, 0) << (POW5_BITCOUNT as u32 - len)
        };
        pow5 = mul_small(pow5, 5);
        i += 1;
    }
    table
}

const fn pow5_inv_split() -> [u128; 342] {
    let mut table = [0; 342];
    // ⌊2^1024 / 5^i⌋, exact at every step since floor divisions compose;
    // shifting it right by 1024 − k leaves ⌊2^k / 5^i⌋.
    let mut inv: Big = [0; LIMBS];
    inv[LIMBS - 1] = 1;
    let mut i = 0;
    while i < table.len() {
        let k = pow5_bits(i as i32) - 1 + POW5_INV_BITCOUNT;
        table[i] = bits_from(&inv, 1024 - k as u32) + 1;
        inv = div_small(inv, 5);
        i += 1;
    }
    table
}

const fn bit_len(x: &Big) -> u32 {
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        if x[i] != 0 {
            return 64 * i as u32 + 64 - x[i].leading_zeros();
        }
    }
    0
}

/// Bits `[shift, shift + 128)` of `x`.
const fn bits_from(x: &Big, shift: u32) -> u128 {
    let (first, offset) = ((shift / 64) as usize, (shift % 64) as i32);
    let mut out = 0;
    let mut i = 0;
    while i < 3 && first + i < LIMBS {
        let word = x[first + i] as u128;
        let at = 64 * i as i32 - offset;
        if at < 0 {
            out |= word >> -at;
        } else if at < 128 {
            out |= word << at;
        }
        i += 1;
    }
    out
}

const fn mul_small(mut x: Big, k: u64) -> Big {
    let mut carry = 0;
    let mut i = 0;
    while i < LIMBS {
        let t = x[i] as u128 * k as u128 + carry;
        x[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    assert!(carry == 0);
    x
}

const fn div_small(mut x: Big, k: u64) -> Big {
    let mut rem = 0;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let t = (rem << 64) | x[i] as u128;
        x[i] = (t / k as u128) as u64;
        rem = t % k as u128;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sampled entries against the definitions, evaluated with exact
    /// big integers.
    #[test]
    fn tables_match_their_definitions() {
        assert_eq!(POW5_SPLIT[0], 1 << 124);
        assert_eq!(POW5_SPLIT[1], 26584559915698317458076141205606891520);
        assert_eq!(POW5_SPLIT[100], 24308653429145084793531500210078610314);
        assert_eq!(POW5_SPLIT[325], 32836294410387009994688234313321054992);
        assert_eq!(POW5_INV_SPLIT[0], (1 << 125) + 1);
        assert_eq!(POW5_INV_SPLIT[1], 34028236692093846346337460743176821146);
        assert_eq!(POW5_INV_SPLIT[100], 37214142683935072796125378963865832159);
        assert_eq!(POW5_INV_SPLIT[341], 24814444052372930245221234148416723105);
    }

    #[test]
    fn digits_and_exponents() {
        for (v, expected) in [
            (1.0, (1, 0)),
            (0.1, (1, -1)),
            (1.5, (15, -1)),
            (5e-324, (5, -324)),
            (f64::MAX, (17976931348623157, 292)),
            (123456789.123456, (123456789123456, -6)),
        ] {
            assert_eq!(shortest(v), Some(expected), "{v:e}");
        }
    }
}
