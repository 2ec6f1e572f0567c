//! Mangling helpers shared by the decoder property tests: truncation, bit
//! flips and number-literal swaps of a JSON or trace text. Test targets include this
//! file as a module (`mod mangle;` beside it, `#[path]` from other crates).

/// Byte spans of the number literals outside JSON strings.
fn number_spans(text: &str) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    let (mut i, mut in_string) = (0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                b'\\' => i += 1,
                b'"' => in_string = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_string = true;
            i += 1;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_digit() || b".eE+-".contains(&bytes[i])) {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// Replace one number literal with a string, its negation or a value no
/// integer or float field can hold.
fn swap_number(text: &str, pick: u64, variant: u64) -> String {
    let spans = number_spans(text);
    if spans.is_empty() {
        return text.to_string();
    }
    let (start, end) = spans[(pick % spans.len() as u64) as usize];
    let n = &text[start..end];
    let replacement = match variant % 6 {
        0 => format!("\"{n}\""),
        1 => match n.strip_prefix('-') {
            Some(positive) => positive.to_string(),
            None => format!("-{n}"),
        },
        2 => "18446744073709551616".to_string(),
        3 => "-9223372036854775809".to_string(),
        4 => "1e999".to_string(),
        _ => format!("{n}.5"),
    };
    format!("{}{replacement}{}", &text[..start], &text[end..])
}

/// Flip `1 + a % 4` bits at positions drawn from `b`.
pub fn flip_bits(text: &str, a: u64, mut b: u64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..=a % 4 {
        let pos = (b % bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << ((b >> 32) % 8);
        b = b.rotate_left(17).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ a;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

pub fn truncate(text: &str, a: u64) -> String {
    let mut cut = (a % (text.len() as u64 + 1)) as usize;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut].to_string()
}

/// One to three swaps, so a later field sees a bad value even when an
/// earlier one happens to stay valid.
pub fn swap_numbers(text: &str, a: u64, b: u64) -> String {
    let mut out = text.to_string();
    for i in 0..=(a % 3) {
        out = swap_number(&out, b.wrapping_add(i.wrapping_mul(a | 1)), b >> (8 * i));
    }
    out
}
