//! Exact decimals: the digits of a trace field read a word at a time, and
//! a plain decimal time read as the `f64` `str::parse` makes of it.
//!
//! A field of at most 19 digits around at most one point is `m / 10^k`,
//! `m < 10¹⁹`. With no digit but zeros behind its point it is an integer,
//! which one `as` rounds. Else it is `m / 5^k · 2^-k`: one 64×128-bit
//! multiply of `m`, shifted to its top bit, by a truncated reciprocal of
//! `5^k` (Lemire, "Number Parsing at a Gigabyte per Second", 2021). The
//! product falls short by less than a unit of its low word, so unless all
//! bits between that word and the round bit are ones, the round bit alone
//! decides. Else the quotient is exact (as every tie is): one IEEE
//! division decides it for `m` below 2⁵³ (Clinger's exact case),
//! `str::parse` above.

/// `10^k` for the `k` a 19-digit field can have behind its point.
const POW10: [u64; 20] = {
    let mut table = [1; 20];
    let mut k = 1;
    while k < 20 {
        table[k] = table[k - 1] * 10;
        k += 1;
    }
    table
};

/// For `k` from 1 to 19: `⌊2^(127 + e) / 5^k⌋`, in `[2¹²⁷, 2¹²⁸)` with `e`
/// the bit length of `5^k`, and `1077 − e − k`, the part of the quotient's
/// biased exponent that `k` sets. Divided at compile time, 64 bits a step.
const RECIPROCALS: [(u128, u32); 20] = {
    let mut table = [(0, 0); 20];
    let mut k = 1;
    while k < 20 {
        let five = (POW10[k] >> k) as u128;
        let e = 128 - five.leading_zeros();
        let high = (1 << (63 + e)) / five;
        let low = (((1 << (63 + e)) % five) << 64) / five;
        table[k] = ((high << 64) | low, 1077 - e - k as u32);
        k += 1;
    }
    table
};

/// `b'0'` in every byte of a word.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// The `N` words at `bytes[at]`, `b'0'` out of each byte (no borrow): a
/// digit's byte holds its value; past the end of `bytes`, no digit or point.
#[inline]
fn words<const N: usize>(bytes: &[u8], at: usize) -> [u64; N] {
    let word = |eight: &[u8]| u64::from_le_bytes(eight.try_into().unwrap()) ^ ZEROS;
    match bytes.get(at..at + 8 * N) {
        Some(window) => std::array::from_fn(|i| word(&window[8 * i..][..8])),
        None => {
            let mut padded = [0; 16];
            let tail = bytes.get(at..).unwrap_or_default();
            padded[..tail.len()].copy_from_slice(tail);
            std::array::from_fn(|i| word(&padded[8 * i..][..8]))
        }
    }
}

/// How many of `word`'s bytes (as [`words`] makes them) lead with
/// digits: the lowest byte whose value is 10 or more, else 8.
#[inline]
fn run(word: u64) -> usize {
    let high = ((word & 0x7f7f_7f7f_7f7f_7f7f) + 0x7676_7676_7676_7676) | word;
    let stops = high & 0x8080_8080_8080_8080;
    (stops.trailing_zeros() / 8) as usize
}

/// The number the first `n` ≤ 8 digits of `word` spell.
#[inline]
fn leading(word: u64, n: usize) -> u64 {
    word.checked_shl(64 - 8 * n as u32).map_or(0, eight_digits)
}

/// The number eight digits spell, a digit a byte, the first lowest: pairs
/// fold into the even bytes (under 100, so no carry), and two multiplies
/// gather the four into bits 32 to 63 (Lemire's unrolled parse).
#[inline]
fn eight_digits(word: u64) -> u64 {
    let pairs = word * 10 + (word >> 8);
    let mask = 0x0000_00ff_0000_00ff;
    let high = (pairs & mask).wrapping_mul(100 + (1_000_000 << 32));
    let low = ((pairs >> 16) & mask).wrapping_mul(1 + (10_000 << 32));
    high.wrapping_add(low) >> 32
}

/// The run of decimal digits at `bytes[at]`, appended to `value` (wrapping
/// past 19 digits): the new value and where the run ends. Two words loaded
/// at a time, each folding in at once the digits it leads with.
#[inline(always)]
pub(crate) fn digits(bytes: &[u8], mut at: usize, mut value: u64) -> (u64, usize) {
    loop {
        for word in words::<2>(bytes, at) {
            let run = run(word);
            let head = value.wrapping_mul(POW10[run]);
            (value, at) = (head.wrapping_add(leading(word, run)), at + run);
            if run < 8 {
                return (value, at);
            }
        }
    }
}

/// The digits at `bytes[at]` one word holds: their value, how many, and the
/// byte behind them (0 past the buffer; the first digit for a run of 8).
#[inline]
pub(crate) fn short_digits(bytes: &[u8], at: usize) -> (u64, usize, u8) {
    let [word] = words(bytes, at);
    let run = run(word);
    let after = (word >> ((8 * run) % 64)) as u8 ^ b'0';
    (leading(word, run), run, after)
}

/// A byte a time field may be spelled with.
#[inline]
pub(crate) fn spelled(byte: u8) -> bool {
    matches!(byte, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

/// The plain decimal at `bytes[start]` — 1 to 19 digits around at most
/// one point, then a byte outside [`spelled`] — as `str::parse` reads it,
/// and where that byte is; `None` for any other spelling, a buffer that
/// ends first, or a quotient left undecided.
#[inline(always)]
pub(crate) fn plain_decimal(bytes: &[u8], start: usize) -> Option<(f64, usize)> {
    let (int, point) = digits(bytes, start, 0);
    let (mantissa, end) = match bytes.get(point) {
        Some(b'.') => digits(bytes, point + 1, int),
        _ => (int, point),
    };
    let pointed = usize::from(end > point);
    let (frac, count) = (end - point - pointed, end - start - pointed);
    if !(1..=19).contains(&count) || spelled(*bytes.get(end)?) {
        return None;
    }
    // An integer — no point, or only zeros behind it (every lifetime the
    // generator writes, `6300.0`): `as` rounds once, to nearest, ties to
    // even. Fewer than 20 digits, so the product cannot wrap.
    if mantissa == int * POW10[frac] {
        return Some((int as f64, end));
    }
    let value = match reciprocal_quotient(mantissa, frac) {
        Some(value) => value,
        // Clinger's exact case: one IEEE division rounds once.
        None if mantissa < 1 << 53 => mantissa as f64 / POW10[frac] as f64,
        None => return None,
    };
    Some((value, end))
}

/// `mantissa / 10^k` for `k` from 1 to 19 and any non-zero mantissa, by
/// one multiply (see the module docs), or `None` when undecided: when the
/// quotient is exact and its significant bits fit in 54.
#[inline]
fn reciprocal_quotient(mantissa: u64, k: usize) -> Option<f64> {
    // Normalized to `[2⁶³, 2⁶⁴)`: the product's top word has 63 or 64 bits.
    let shift = mantissa.leading_zeros();
    let normal = u128::from(mantissa << shift);
    let (reciprocal, bias) = RECIPROCALS[k];
    let low = normal * (reciprocal as u64 as u128);
    let high = normal * (reciprocal >> 64);
    let (mid, carry) = (high as u64).overflowing_add((low >> 64) as u64);
    let top = (high >> 64) as u64 + u64::from(carry);
    // The 54 bits from the top one down: significand and round bit.
    let drop = 9 + (top >> 63) as u32;
    let below = (1 << drop) - 1;
    if top & below == below && mid == u64::MAX {
        return None;
    }
    // Half up is to nearest: the bits under the round bit are not all 0.
    let significand = ((top >> drop) + 1) >> 1;
    // `significand · 2^(drop + 2 − e − shift − k)`, a normal `f64` biased by
    // 1075; a carry to 2⁵³ goes into the exponent, as it should.
    let exponent = u64::from(drop + bias - shift);
    Some(f64::from_bits((exponent << 52) + significand - (1 << 52)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{from_csv, valid_time, HEADER};
    use crate::rows::{fast_time, ranked_rows};
    use proptest::prelude::*;

    /// What [`fast_time`] may say of `field` (a `,` put behind it): the
    /// bits `str::parse` gives where those are a time, else nothing.
    fn assert_reads_as_parsed(field: &str) {
        let parsed = field.parse::<f64>().ok().filter(|v| valid_time(*v));
        let read = fast_time(format!("{field},").as_bytes(), 0);
        assert_eq!(
            read.map(|(value, at)| (value.to_bits(), at)),
            parsed.map(|value| (value.to_bits(), field.len())),
            "field {field:?}: read {read:?}, parsed {parsed:?}"
        );
    }

    /// Whether [`plain_decimal`] reads `field` (a `,` put behind it).
    fn is_plain(field: &str) -> bool {
        plain_decimal(format!("{field},").as_bytes(), 0).is_some()
    }

    /// `mantissa` with its point `k` digits from the right.
    fn with_point(mantissa: u64, k: usize) -> String {
        let text = mantissa.to_string();
        if k >= text.len() {
            format!(".{text:0>k$}")
        } else {
            let (int, frac) = text.split_at(text.len() - k);
            format!("{int}.{frac}")
        }
    }

    /// Whether `mantissa / 10^k` is exact in at most 54 significant bits,
    /// so that the bits under its round bit are zeros: what the multiply
    /// leaves undecided.
    fn exact(mantissa: u64, k: usize) -> bool {
        let five = POW10[k] >> k;
        let quotient = mantissa / five;
        k > 0
            && mantissa.is_multiple_of(five)
            && quotient != 0
            && quotient >> quotient.trailing_zeros() < 1 << 54
    }

    /// Whether [`plain_decimal`] leaves `mantissa / 10^k` to `str::parse`:
    /// exact, past 2⁵³, where no one division decides it either, and no
    /// integer, which is read without the multiply.
    fn undecided(mantissa: u64, k: usize) -> bool {
        mantissa >= 1 << 53 && exact(mantissa, k) && !mantissa.is_multiple_of(POW10[k])
    }

    /// The exact-decimal case against `str::parse`, bit for bit, along
    /// each of its edges — no digit, leading zeros, the mantissas either
    /// side of 2⁵³ and the largest 19-digit one with the point at every
    /// position (k = 0 to 19, and 22 and 23 behind it, which are too
    /// long), halfway cases, integer and not, which round to even, and one
    /// unit either side of them — and the spellings that are not
    /// its own: a sign, an exponent, a 20th digit.
    #[test]
    fn exact_decimals_are_the_bits_str_parse_gives() {
        // 19 digits, 20, the largest 19; 2⁶⁴, which wraps the accumulator
        // to 0, and ten times it; 22, 23 and 28 zeros; either side of
        // `MAX_TIME`; last, no field.
        let mut fields: Vec<String> = "0 0.0 1. .5 . 000012.50 1e5 1.2.3 -0.0 -2.5 +7 \
            1234567890123456789 12345678901234567890 9999999999999999999 \
            18446744073709551616 184467440737095516160 0.0000000000000000000001 \
            0.00000000000000000000001 00000000000000000000000000001 \
            1e13 10000000000000 9999999999999.999 10000000000000.001"
            .split(' ')
            .map(String::from)
            .collect();
        fields.push(String::new());
        for field in [
            "12345678901234567890",
            ".00000000000000000001",
            "1e5",
            "1.5E3",
            "+7",
            "-0.0",
        ] {
            assert!(!is_plain(field), "{field:?} is read by `str::parse`");
        }
        let tie = (1u64 << 53) + 1;
        let mut plain = Vec::new();
        for mantissa in [
            (1u64 << 53) - 1,
            1 << 53,
            tie,
            (1 << 53) + 3,
            POW10[19] - 1,
            POW10[18],
            u64::MAX / 2,
        ] {
            plain.push(mantissa.to_string());
            for k in (0..=19).chain([22, 23]) {
                if k <= 19 {
                    plain.push(with_point(mantissa, k));
                } else {
                    fields.push(with_point(mantissa, k));
                }
            }
        }
        for (k, scale) in (1..=3).zip(&POW10[1..]) {
            // `tie` as an integer with `k` zeros behind its point, and
            // `tie / 2^k`, a halfway case with a fraction.
            for tie in [tie * scale, tie * (scale >> k)] {
                for m in [tie - 1, tie, tie + 1] {
                    plain.push(with_point(m, k));
                }
            }
        }
        // Plain, but for the exact quotients past 2⁵³ with a fraction — the
        // three halfway cases `tie / 2^k` and (2⁵³ + 3) / 10 — which the
        // multiply leaves to `str::parse`. An integer with zeros behind its
        // point (the integer ties, 10¹⁸ with its point anywhere) is read
        // without the multiply.
        let mut ties = 0;
        for field in &plain {
            let mantissa: u64 = field.replace('.', "").parse().unwrap();
            let k = field.find('.').map_or(0, |point| field.len() - point - 1);
            ties += usize::from(undecided(mantissa, k));
            assert_eq!(is_plain(field), !undecided(mantissa, k), "{field:?}");
        }
        assert_eq!(ties, 3 + 1);
        fields.extend(plain);
        for field in &fields {
            assert_reads_as_parsed(field);
        }
        // And as rows: each field through the row loop and the text
        // reader, alone and — those that are times — together: the same
        // lifetimes, bit for bit, or the same refusal.
        let read = |text: &str| {
            let mut bits = Vec::new();
            ranked_rows(text.as_bytes(), |(_, _, life)| bits.push(life.to_bits())).map(|()| bits)
        };
        let judge = |text: &str| {
            from_csv("doc", text).map(|w| w.vms().iter().map(|vm| vm.lifetime.to_bits()).collect())
        };
        let mut text = format!("{HEADER}\n");
        let mut rank = 0;
        for field in &fields {
            let one = format!("{HEADER}\n0,1,2,128,0,{field}\n");
            let judged = judge(&one);
            assert_eq!(read(&one), judged, "{field:?}");
            if judged.is_ok() {
                text.push_str(&format!("{rank},1,2,128,0,{field}\r\n"));
                rank += 1;
            }
        }
        assert_eq!(read(&text), judge(&text));
        assert!(rank > 100, "only {rank} of the fields are times");
    }

    /// The multiply against `str::parse` for every `k` from 1 to 19: at
    /// 2⁵³, 2⁵³ + 1 and 10¹⁹ − 1, at 1, 2⁵³ − 1 and `5^k`; at exact ties
    /// (`5^k` times an odd number, scaled into range, where 2⁵³ allows
    /// one) and one unit either side; and at exact quotients, whose product
    /// lands in the undecided band. A decided read is the parsed bits; an
    /// undecided one is `None`, and is taken — so the fallback cannot go
    /// unexercised.
    #[test]
    fn the_multiply_decides_exactly_or_not_at_all() {
        let mut taken = 0;
        for (k, ten) in POW10.iter().enumerate().skip(1) {
            let five = ten >> k;
            let mut mantissas = vec![
                1,
                (1 << 53) - 1,
                five,
                1 << 53,
                (1 << 53) + 1,
                POW10[19] - 1,
            ];
            // An odd 54-bit quotient is a tie; one of few bits is exact.
            for quotient in [(1u64 << 53) + 1, (1 << 54) - 1, 473, 524_287, 3 << 40] {
                let mut scaled = quotient.saturating_mul(five);
                while scaled < 1 << 53 && scaled <= (POW10[19] - 1) / 2 {
                    scaled *= 2;
                }
                if (1 << 53..POW10[19]).contains(&scaled) {
                    mantissas.extend([scaled - 1, scaled, scaled + 1]);
                }
            }
            for mantissa in mantissas {
                let parsed: f64 = with_point(mantissa, k).parse().unwrap();
                let read = reciprocal_quotient(mantissa, k);
                assert_eq!(read.is_none(), exact(mantissa, k), "{mantissa}/10^{k}");
                if let Some(value) = read {
                    assert_eq!(value.to_bits(), parsed.to_bits(), "{mantissa}/10^{k}");
                }
                taken += usize::from(read.is_none());
                assert_reads_as_parsed(&with_point(mantissa, k));
            }
        }
        assert!(taken >= 19, "the undecided branch was taken {taken} times");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Any digits-and-a-point field — 1 to 19 digits, the point at
        /// every position (leading, inside, trailing, or none), up to three
        /// more zeros either side — is what `str::parse` makes of it, and
        /// it is read in integers exactly when it has at most 19 digits in
        /// all and is no exact quotient the multiply leaves undecided: half of the 17-digit times a trace
        /// writer emits have a mantissa of 2⁵³ or more.
        #[test]
        fn plain_decimal_fields_read_as_parsed(
            width in 1usize..=19,
            bits in any::<u64>(),
            point in 0usize..=26,
            lead in 0usize..4,
            trail in 0usize..4,
        ) {
            let digits = format!(
                "{}{:0>width$}{}", "0".repeat(lead), bits % POW10[width], "0".repeat(trail)
            );
            let at = point % (digits.len() + 2);
            let field = if at > digits.len() {
                digits.clone()
            } else {
                format!("{}.{}", &digits[..at], &digits[at..])
            };
            assert_reads_as_parsed(&field);
            let short = digits.len() <= 19;
            let k = if at > digits.len() { 0 } else { digits.len() - at };
            let plain = short && !undecided(digits.parse().unwrap_or(0), k);
            prop_assert_eq!(is_plain(&field), plain, "{:?}", field);
        }

        /// The fields a trace writer emits — `{:?}` of any time in
        /// `[0, MAX_TIME]`, drawn uniform over the bit patterns (every
        /// binade alike, subnormals included) and uniform over the values —
        /// read as `str::parse` reads them, through whichever path.
        #[test]
        fn debug_rendered_times_read_as_parsed(bits in any::<u64>(), scale in 0u32..64) {
            let max = crate::csv::MAX_TIME;
            assert_reads_as_parsed(&format!("{:?}", f64::from_bits(bits % max.to_bits())));
            let uniform = (bits >> 11) as f64 / (1u64 << 53) as f64 * max;
            assert_reads_as_parsed(&format!("{:?}", uniform / 2f64.powi(scale as i32)));
        }

        /// The multiply alone, over random mantissas below 10¹⁹ (half of
        /// them below 2⁵³) and every `k`: it decides every quotient but the
        /// exact ones, and decides them as `str::parse` does.
        #[test]
        fn reciprocal_quotients_are_the_parsed_bits(bits in any::<u64>(), k in 1usize..=19) {
            let mantissa = 1 + (bits >> 1) % if bits & 1 == 0 { 1 << 53 } else { POW10[19] - 1 };
            let read = reciprocal_quotient(mantissa, k);
            prop_assert_eq!(read.is_none(), exact(mantissa, k));
            let parsed: f64 = with_point(mantissa, k).parse().unwrap();
            prop_assert_eq!(read.unwrap_or(parsed).to_bits(), parsed.to_bits());
        }
    }
}
