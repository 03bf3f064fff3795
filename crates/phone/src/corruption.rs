//! Deterministic flash-log corruption injection.
//!
//! The field study's logs did not come back pristine: a battery pull
//! mid-write truncates the last record, flash wear loses tail pages,
//! bad blocks garble bytes, and interleaved writes across reboots
//! duplicate or reorder heartbeat blocks. This module injects exactly
//! those damage classes into a harvested [`FlashFs`], driven by a
//! forked [`SimRng`] stream per phone so the injection is a pure
//! function of `(root seed, phone id)` — the parallel campaign stays
//! byte-identical for any worker count.
//!
//! Every injection step records how many defects the lossy parser is
//! *expected to observe* in [`InjectedDefects`], which is what the
//! proptests pin against the parser's [`DefectReport`] counts:
//!
//! * truncation counts are exact;
//! * tail loss is silent by construction (whole lines vanish — no
//!   parser can see them) and tracked separately;
//! * bit-flip / duplicate / reorder counts are exact up to the
//!   truncation-ambiguity bound — the final-line truncation may land
//!   on a line another step already damaged, converting one expected
//!   observation into a `truncated` one.

use symfail_core::flashfs::FlashFs;
use symfail_core::logger::files;
use symfail_core::records::decode_beat;
use symfail_sim_core::SimRng;

/// Named corruption intensity, selectable from `repro --corruption`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CorruptionProfile {
    /// No injection at all (the profile equivalent of not asking).
    #[default]
    None,
    /// Rare damage: what a healthy fleet's flash looks like.
    Light,
    /// Noticeable damage on most phones.
    Moderate,
    /// Every damage class fires on every phone — the stress profile
    /// used for the worst-case parse benchmark.
    Worst,
}

impl CorruptionProfile {
    /// Parses a profile name as given on the command line.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(Self::None),
            "light" => Some(Self::Light),
            "moderate" => Some(Self::Moderate),
            "worst" => Some(Self::Worst),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Light => "light",
            Self::Moderate => "moderate",
            Self::Worst => "worst",
        }
    }

    /// The per-phone damage rates of this profile.
    pub fn rates(self) -> CorruptionRates {
        match self {
            Self::None => CorruptionRates::default(),
            Self::Light => CorruptionRates {
                p_tail_loss: 0.10,
                max_tail_lines: 3,
                p_dup_block: 0.10,
                dup_attempts: 1,
                p_reorder_block: 0.10,
                reorder_attempts: 1,
                p_bitflip: 0.002,
                p_truncate: 0.15,
            },
            Self::Moderate => CorruptionRates {
                p_tail_loss: 0.35,
                max_tail_lines: 8,
                p_dup_block: 0.40,
                dup_attempts: 2,
                p_reorder_block: 0.40,
                reorder_attempts: 2,
                p_bitflip: 0.01,
                p_truncate: 0.40,
            },
            Self::Worst => CorruptionRates {
                p_tail_loss: 1.0,
                max_tail_lines: 12,
                p_dup_block: 1.0,
                dup_attempts: 4,
                p_reorder_block: 1.0,
                reorder_attempts: 4,
                p_bitflip: 0.25,
                p_truncate: 1.0,
            },
        }
    }
}

/// Per-phone damage rates (all probabilities per opportunity).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CorruptionRates {
    /// Chance, per file, of losing a tail of whole lines (flash wear).
    pub p_tail_loss: f64,
    /// Upper bound on lines lost per tail-loss event.
    pub max_tail_lines: u64,
    /// Chance, per attempt, of duplicating a heartbeat block.
    pub p_dup_block: f64,
    /// Number of duplication attempts.
    pub dup_attempts: u32,
    /// Chance, per attempt, of swapping two adjacent heartbeat blocks.
    pub p_reorder_block: f64,
    /// Number of reorder attempts.
    pub reorder_attempts: u32,
    /// Chance, per consolidated-log record, of one flipped bit.
    pub p_bitflip: f64,
    /// Chance, per file, of cutting the final record mid-line
    /// (battery pull during the last write).
    pub p_truncate: f64,
}

/// How many defects of each class were injected, expressed as the
/// counts the lossy parser is expected to observe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedDefects {
    /// Mid-record cuts (parser: `truncated`, exact).
    pub truncated: u64,
    /// Bit-flipped log records (parser: `checksum-mismatch`).
    pub checksum_garbled: u64,
    /// Duplicated heartbeat lines (parser: `duplicate`).
    pub duplicated: u64,
    /// Heartbeat lines expected to decode behind the running maximum
    /// after a block swap (parser: `out-of-order`).
    pub out_of_order: u64,
    /// Whole lines silently lost from file tails — invisible to any
    /// parser, excluded from count pinning.
    pub tail_lines_lost: u64,
}

impl InjectedDefects {
    /// Total defects the parser can observe (tail loss excluded).
    pub fn total_observable(&self) -> u64 {
        self.truncated + self.checksum_garbled + self.duplicated + self.out_of_order
    }

    /// Folds another phone's counters into this one.
    pub fn merge(&mut self, other: &InjectedDefects) {
        self.truncated += other.truncated;
        self.checksum_garbled += other.checksum_garbled;
        self.duplicated += other.duplicated;
        self.out_of_order += other.out_of_order;
        self.tail_lines_lost += other.tail_lines_lost;
    }
}

/// The injector: applies one profile's damage to one phone's flash.
#[derive(Debug, Clone, Copy)]
pub struct CorruptionModel {
    rates: CorruptionRates,
}

impl CorruptionModel {
    /// An injector with explicit rates.
    pub fn new(rates: CorruptionRates) -> Self {
        Self { rates }
    }

    /// An injector with a named profile's rates.
    pub fn from_profile(profile: CorruptionProfile) -> Self {
        Self::new(profile.rates())
    }

    /// Damages `fs` in place, consuming randomness only from `rng`.
    /// Returns the expected-observable defect counts.
    ///
    /// Order matters and is fixed: tail loss first (whole lines
    /// vanish), then heartbeat block duplication and reordering
    /// (chosen against the post-tail-loss file on disjoint ranges),
    /// then log bit-flips, then final-record truncation — so the one
    /// damage class that can mask another (truncation) always runs
    /// last and masks at most one line per file.
    ///
    /// Each file is worked on as its own bytes plus a line index:
    /// whole-line damage edits the index, bit-flips XOR a byte in
    /// place, and the file is rebuilt once at the end. All damage is
    /// byte-level, so flash that is not UTF-8, or a cut that lands
    /// inside a multi-byte character, is damaged like any other —
    /// never a panic.
    pub fn inject(&self, fs: &mut FlashFs, rng: &mut SimRng) -> InjectedDefects {
        let mut injected = InjectedDefects::default();
        let r = &self.rates;

        let mut log = LineFile::take(fs, files::LOG);
        let mut beats = LineFile::take(fs, files::BEATS);

        // 1. Tail loss (flash wear drops whole trailing pages). Capped
        // at half the file so a short log degrades instead of
        // vanishing — total loss is the separate `unusable` scenario,
        // exercised directly in tests.
        for lines in [&mut log.lines, &mut beats.lines] {
            if r.p_tail_loss > 0.0 && rng.chance(r.p_tail_loss) && !lines.is_empty() {
                let k = 1 + rng.next_u64() % r.max_tail_lines.max(1);
                let k = (k as usize).min(lines.len() / 2);
                if k > 0 {
                    lines.truncate(lines.len() - k);
                    injected.tail_lines_lost += k as u64;
                }
            }
        }

        // 2/3. Heartbeat block duplication and reordering. Ranges are
        // chosen against the post-tail-loss index space and kept
        // mutually disjoint; all of them are applied afterwards in one
        // pass over the index.
        let mut used: Vec<(usize, usize)> = Vec::new();
        let mut ops: Vec<BlockOp> = Vec::new();
        for _ in 0..r.dup_attempts {
            if r.p_dup_block == 0.0 || !rng.chance(r.p_dup_block) {
                continue;
            }
            let n = beats.lines.len();
            if n == 0 {
                continue;
            }
            let len = 1 + rng.index(3.min(n));
            let start = rng.index(n - len + 1);
            if overlaps(&used, start, start + len) {
                continue;
            }
            used.push((start, start + len));
            ops.push(BlockOp::Dup { start, len });
            injected.duplicated += len as u64;
        }
        for _ in 0..r.reorder_attempts {
            if r.p_reorder_block == 0.0 || !rng.chance(r.p_reorder_block) {
                continue;
            }
            let n = beats.lines.len();
            if n < 2 {
                continue;
            }
            let a = 1 + rng.index(3.min(n - 1));
            let b = 1 + rng.index(3.min(n - a));
            let start = rng.index(n - a - b + 1);
            if overlaps(&used, start, start + a + b) {
                continue;
            }
            used.push((start, start + a + b));
            ops.push(BlockOp::Swap { start, a, b });
            // The parser keeps a running timestamp maximum that does
            // not advance past an out-of-order record, so after
            // swapping A,B -> B,A it flags exactly the A-lines whose
            // timestamp is strictly below B's maximum.
            let time = |&line: &Line| beat_millis(beats.line(line));
            let max_b = beats.lines[start + a..start + a + b]
                .iter()
                .filter_map(time)
                .max();
            if let Some(max_b) = max_b {
                injected.out_of_order += beats.lines[start..start + a]
                    .iter()
                    .filter_map(time)
                    .filter(|&t| t < max_b)
                    .count() as u64;
            }
        }
        apply_block_ops(&mut beats.lines, &mut ops);

        // 4. Bit-flips in log record payloads. The payload region
        // excludes the checksum trailer (`|cXXXX`, 6 bytes), so the
        // trailer keeps its shape and the parser classifies the line
        // as checksum-mismatch, not truncation. Log lines are never
        // duplicated, so flipping a line's bytes in place touches
        // exactly that line.
        if r.p_bitflip > 0.0 {
            for &(start, end) in &log.lines {
                let line = &mut log.bytes[start..end];
                if line.len() > 6 && rng.chance(r.p_bitflip) && flip_payload_byte(line, rng) {
                    injected.checksum_garbled += 1;
                }
            }
        }

        // 5. Final-record truncation (battery pull mid-write). Runs
        // last; cuts at least one byte and keeps at least one, so a
        // partial record remains on flash. The cut is byte-level: it
        // may split a multi-byte character, which the lossy parser
        // decodes with a replacement character.
        for file in [&mut log, &mut beats] {
            if r.p_truncate > 0.0 && rng.chance(r.p_truncate) {
                if let Some((start, end)) = file.lines.last_mut() {
                    let len = *end - *start;
                    if len >= 2 {
                        *end = *start + 1 + rng.index(len - 1);
                        injected.truncated += 1;
                        file.cut_tail = true;
                    }
                }
            }
        }

        log.write_back(fs, files::LOG);
        beats.write_back(fs, files::BEATS);
        injected
    }
}

/// One line of a flash file: the byte range `[start, end)` of its
/// content in the file, line terminator excluded.
type Line = (usize, usize);

/// A flash file as the injector edits it: the file's own bytes (taken
/// out of the [`FlashFs`], not copied) and an index of its lines.
/// Whole-line damage edits `lines`; the file is rebuilt from the index
/// once, by [`LineFile::write_back`].
struct LineFile {
    bytes: Vec<u8>,
    lines: Vec<Line>,
    /// The final record was cut mid-line, so it gets no newline.
    cut_tail: bool,
}

impl LineFile {
    /// Takes `file`'s bytes out of `fs` (a missing file reads as
    /// empty) and indexes its lines.
    fn take(fs: &mut FlashFs, file: &str) -> Self {
        let bytes = fs.raw_mut(file).map(std::mem::take).unwrap_or_default();
        let lines = line_index(&bytes);
        Self {
            bytes,
            lines,
            cut_tail: false,
        }
    }

    fn line(&self, (start, end): Line) -> &[u8] {
        &self.bytes[start..end]
    }

    /// Rebuilds the file from the index: lines joined by `\n`, with a
    /// trailing newline unless the file is empty or its final record
    /// was cut mid-line (`cut_tail`), which is exactly the mid-write
    /// power-loss signature. A file missing from `fs` stays missing.
    fn write_back(self, fs: &mut FlashFs, file: &str) {
        let Some(slot) = fs.raw_mut(file) else {
            return;
        };
        let size: usize = self.lines.iter().map(|&(start, end)| end - start + 1).sum();
        let mut out = Vec::with_capacity(size);
        for (i, &line) in self.lines.iter().enumerate() {
            if i > 0 {
                out.push(b'\n');
            }
            out.extend_from_slice(self.line(line));
        }
        if !out.is_empty() && !self.cut_tail {
            out.push(b'\n');
        }
        *slot = out;
    }
}

/// Indexes the lines of `bytes` with exactly [`str::lines`]' rules:
/// lines end at `\n` or `\r\n` (the terminator is not part of the
/// line), the final terminator is optional, and a `\r` not followed by
/// `\n` stays in the line.
fn line_index(bytes: &[u8]) -> Vec<Line> {
    // Sized for beats lines (~20 bytes) without a counting pass; a file
    // of shorter lines just grows the vector.
    let mut lines = Vec::with_capacity(bytes.len() / 16 + 1);
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            let end = if i > start && bytes[i - 1] == b'\r' {
                i - 1
            } else {
                i
            };
            lines.push((start, end));
            start = i + 1;
        }
    }
    if start < bytes.len() {
        lines.push((start, bytes.len()));
    }
    lines
}

/// A beat line's timestamp, or `None` when it does not decode.
fn beat_millis(line: &[u8]) -> Option<u64> {
    let line = std::str::from_utf8(line).ok()?;
    decode_beat(line).ok().map(|(at, _)| at.as_millis())
}

/// A block-level mutation of the beats file, in pre-mutation index
/// space.
enum BlockOp {
    /// Lines `[start, start + len)` appear twice in a row.
    Dup { start: usize, len: usize },
    /// Blocks `[start, start + a)` and `[start + a, start + a + b)`
    /// trade places.
    Swap { start: usize, a: usize, b: usize },
}

impl BlockOp {
    fn start(&self) -> usize {
        match *self {
            BlockOp::Dup { start, .. } | BlockOp::Swap { start, .. } => start,
        }
    }
}

/// Applies disjoint block ops to a line index in one forward pass.
fn apply_block_ops(lines: &mut Vec<Line>, ops: &mut [BlockOp]) {
    if ops.is_empty() {
        return;
    }
    ops.sort_by_key(BlockOp::start);
    let extra: usize = ops
        .iter()
        .map(|op| match *op {
            BlockOp::Dup { len, .. } => len,
            BlockOp::Swap { .. } => 0,
        })
        .sum();
    let mut out = Vec::with_capacity(lines.len() + extra);
    let mut next = 0;
    for op in ops.iter() {
        match *op {
            BlockOp::Dup { start, len } => {
                out.extend_from_slice(&lines[next..start + len]);
                out.extend_from_slice(&lines[start..start + len]);
                next = start + len;
            }
            BlockOp::Swap { start, a, b } => {
                out.extend_from_slice(&lines[next..start]);
                out.extend_from_slice(&lines[start + a..start + a + b]);
                out.extend_from_slice(&lines[start..start + a]);
                next = start + a + b;
            }
        }
    }
    out.extend_from_slice(&lines[next..]);
    *lines = out;
}

fn overlaps(used: &[(usize, usize)], lo: usize, hi: usize) -> bool {
    used.iter().any(|&(a, b)| lo < b && a < hi)
}

/// Flips one bit of one payload byte, re-rolling the bit if the result
/// would be a newline (the damage model is bad cells, not lost
/// framing). Flipping one of bits 0–6 of an ASCII byte keeps the line
/// ASCII, so non-ASCII lines are left alone (returns false).
fn flip_payload_byte(line: &mut [u8], rng: &mut SimRng) -> bool {
    let payload_len = line.len() - 6; // keep the `|cXXXX` trailer intact
    let pos = rng.index(payload_len);
    let first_bit = rng.index(7); // bit 7 would leave ASCII
    if !line.is_ascii() {
        return false;
    }
    for step in 0..7 {
        let flipped = line[pos] ^ (1 << ((first_bit + step) % 7));
        if flipped != b'\n' && flipped != b'\r' {
            line[pos] = flipped;
            return true;
        }
    }
    false
}

/// The injector as it was before the line index: every line of both
/// files copied into its own `String`, edited as a `Vec<String>` and
/// joined back. It panics on flash that is not UTF-8 and on a final cut
/// inside a multi-byte character. Kept, unchanged, as the equivalence
/// oracle for [`CorruptionModel::inject`].
#[cfg(test)]
mod oracle {
    use super::*;

    pub(super) fn inject(
        model: &CorruptionModel,
        fs: &mut FlashFs,
        rng: &mut SimRng,
    ) -> InjectedDefects {
        let mut injected = InjectedDefects::default();
        let r = &model.rates;

        let mut log_lines = read_lines(fs, files::LOG);
        let mut beat_lines = read_lines(fs, files::BEATS);

        // 1. Tail loss (flash wear drops whole trailing pages). Capped
        // at half the file so a short log degrades instead of
        // vanishing — total loss is the separate `unusable` scenario,
        // exercised directly in tests.
        for lines in [&mut log_lines, &mut beat_lines] {
            if r.p_tail_loss > 0.0 && rng.chance(r.p_tail_loss) && !lines.is_empty() {
                let k = 1 + rng.next_u64() % r.max_tail_lines.max(1);
                let k = (k as usize).min(lines.len() / 2);
                if k > 0 {
                    lines.truncate(lines.len() - k);
                    injected.tail_lines_lost += k as u64;
                }
            }
        }

        // 2/3. Heartbeat block duplication and reordering. Ranges are
        // chosen against the original index space, kept mutually
        // disjoint, and applied back-to-front so earlier indexes stay
        // valid.
        let mut used: Vec<(usize, usize)> = Vec::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        for _ in 0..r.dup_attempts {
            if r.p_dup_block == 0.0 || !rng.chance(r.p_dup_block) {
                continue;
            }
            let n = beat_lines.len();
            if n == 0 {
                continue;
            }
            let len = 1 + rng.index(3.min(n));
            let start = rng.index(n - len + 1);
            if overlaps(&used, start, start + len) {
                continue;
            }
            used.push((start, start + len));
            dups.push((start, len));
            injected.duplicated += len as u64;
        }
        let mut swaps: Vec<(usize, usize, usize)> = Vec::new();
        for _ in 0..r.reorder_attempts {
            if r.p_reorder_block == 0.0 || !rng.chance(r.p_reorder_block) {
                continue;
            }
            let n = beat_lines.len();
            if n < 2 {
                continue;
            }
            let a = 1 + rng.index(3.min(n - 1));
            let b = 1 + rng.index(3.min(n - a));
            let start = rng.index(n - a - b + 1);
            if overlaps(&used, start, start + a + b) {
                continue;
            }
            used.push((start, start + a + b));
            swaps.push((start, a, b));
            // The parser keeps a running timestamp maximum that does
            // not advance past an out-of-order record, so after
            // swapping A,B -> B,A it flags exactly the A-lines whose
            // timestamp is strictly below B's maximum.
            let time = |line: &String| decode_beat(line).map(|(t, _)| t.as_millis()).ok();
            let max_b = beat_lines[start + a..start + a + b]
                .iter()
                .filter_map(time)
                .max();
            if let Some(max_b) = max_b {
                injected.out_of_order += beat_lines[start..start + a]
                    .iter()
                    .filter_map(time)
                    .filter(|&t| t < max_b)
                    .count() as u64;
            }
        }
        let mut ops: Vec<BlockOp> = dups
            .into_iter()
            .map(|(start, len)| BlockOp::Dup { start, len })
            .chain(
                swaps
                    .into_iter()
                    .map(|(start, a, b)| BlockOp::Swap { start, a, b }),
            )
            .collect();
        ops.sort_by_key(|op| std::cmp::Reverse(op.start()));
        for op in ops {
            match op {
                BlockOp::Dup { start, len } => {
                    let copy: Vec<String> = beat_lines[start..start + len].to_vec();
                    for (i, line) in copy.into_iter().enumerate() {
                        beat_lines.insert(start + len + i, line);
                    }
                }
                BlockOp::Swap { start, a, b } => {
                    beat_lines[start..start + a + b].rotate_left(a);
                }
            }
        }

        // 4. Bit-flips in log record payloads. The payload region
        // excludes the checksum trailer (`|cXXXX`, 6 bytes), so the
        // trailer keeps its shape and the parser classifies the line
        // as checksum-mismatch, not truncation.
        if r.p_bitflip > 0.0 {
            for line in &mut log_lines {
                if line.len() > 6 && rng.chance(r.p_bitflip) && flip_payload_byte(line, rng) {
                    injected.checksum_garbled += 1;
                }
            }
        }

        // 5. Final-record truncation (battery pull mid-write). Runs
        // last; cuts at least one byte and keeps at least one, so a
        // partial record remains on flash.
        let mut cut = [false, false];
        for (i, lines) in [&mut log_lines, &mut beat_lines].into_iter().enumerate() {
            if r.p_truncate > 0.0 && rng.chance(r.p_truncate) {
                if let Some(last) = lines.last_mut() {
                    if last.len() >= 2 {
                        let keep = 1 + rng.index(last.len() - 1);
                        last.truncate(keep);
                        injected.truncated += 1;
                        cut[i] = true;
                    }
                }
            }
        }

        write_lines(fs, files::LOG, &log_lines, cut[0]);
        write_lines(fs, files::BEATS, &beat_lines, cut[1]);
        injected
    }

    /// A block-level mutation of the beats file, in original index space.
    enum BlockOp {
        Dup { start: usize, len: usize },
        Swap { start: usize, a: usize, b: usize },
    }

    impl BlockOp {
        fn start(&self) -> usize {
            match *self {
                BlockOp::Dup { start, .. } | BlockOp::Swap { start, .. } => start,
            }
        }
    }

    fn read_lines(fs: &FlashFs, file: &str) -> Vec<String> {
        fs.read_lines(file).map(str::to_string).collect()
    }

    /// Flips one bit of one payload byte, re-rolling the bit if the result
    /// would be a newline (the damage model is bad cells, not lost
    /// framing). Flipping one of bits 0–6 of an ASCII byte keeps the line
    /// ASCII, so non-ASCII lines are left alone (returns false).
    fn flip_payload_byte(line: &mut String, rng: &mut SimRng) -> bool {
        let payload_len = line.len() - 6; // keep the `|cXXXX` trailer intact
        let pos = rng.index(payload_len);
        let first_bit = rng.index(7); // bit 7 would leave ASCII
        if !line.is_ascii() {
            return false;
        }
        let mut bytes = std::mem::take(line).into_bytes();
        let mut flipped_any = false;
        for step in 0..7 {
            let flipped = bytes[pos] ^ (1 << ((first_bit + step) % 7));
            if flipped != b'\n' && flipped != b'\r' {
                bytes[pos] = flipped;
                flipped_any = true;
                break;
            }
        }
        *line = String::from_utf8(bytes).expect("ascii bit flip stays utf-8");
        flipped_any
    }

    /// Writes lines back. The trailing newline is kept unless the final
    /// record was cut mid-line (`cut_tail`), which is exactly the
    /// mid-write power-loss signature.
    fn write_lines(fs: &mut FlashFs, file: &str, lines: &[String], cut_tail: bool) {
        if !fs.exists(file) {
            return;
        }
        let mut buf = lines.join("\n").into_bytes();
        if !buf.is_empty() && !cut_tail {
            buf.push(b'\n');
        }
        fs.overwrite_raw(file, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beats_fs(n: u64) -> FlashFs {
        let mut fs = FlashFs::new();
        for i in 0..n {
            fs.append_line(files::BEATS, &format!("{}|ALIVE", i * 30_000));
        }
        fs
    }

    #[test]
    fn profile_parsing_round_trips() {
        for p in [
            CorruptionProfile::None,
            CorruptionProfile::Light,
            CorruptionProfile::Moderate,
            CorruptionProfile::Worst,
        ] {
            assert_eq!(CorruptionProfile::parse(p.as_str()), Some(p));
        }
        assert_eq!(CorruptionProfile::parse("bogus"), None);
    }

    #[test]
    fn none_profile_is_identity() {
        let mut fs = beats_fs(10);
        let before = fs.read_bytes(files::BEATS).unwrap().to_vec();
        let model = CorruptionModel::from_profile(CorruptionProfile::None);
        let injected = model.inject(&mut fs, &mut SimRng::seed_from(1));
        assert_eq!(injected, InjectedDefects::default());
        assert_eq!(fs.read_bytes(files::BEATS).unwrap(), &before[..]);
    }

    #[test]
    fn injection_is_deterministic_in_the_seed() {
        let model = CorruptionModel::from_profile(CorruptionProfile::Worst);
        let mut a = beats_fs(50);
        let mut b = beats_fs(50);
        let ia = model.inject(&mut a, &mut SimRng::seed_from(99));
        let ib = model.inject(&mut b, &mut SimRng::seed_from(99));
        assert_eq!(ia, ib);
        assert_eq!(
            a.read_bytes(files::BEATS).unwrap(),
            b.read_bytes(files::BEATS).unwrap()
        );
    }

    #[test]
    fn worst_profile_damages_beats() {
        let mut fs = beats_fs(50);
        let before = fs.read_bytes(files::BEATS).unwrap().to_vec();
        let model = CorruptionModel::from_profile(CorruptionProfile::Worst);
        let injected = model.inject(&mut fs, &mut SimRng::seed_from(7));
        assert!(injected.total_observable() > 0, "{injected:?}");
        assert_ne!(fs.read_bytes(files::BEATS).unwrap(), &before[..]);
    }

    #[test]
    fn wear_counter_untouched_by_damage() {
        let mut fs = beats_fs(20);
        let wear = fs.bytes_written();
        CorruptionModel::from_profile(CorruptionProfile::Worst)
            .inject(&mut fs, &mut SimRng::seed_from(3));
        assert_eq!(fs.bytes_written(), wear);
    }

    const PROFILES: [CorruptionProfile; 4] = [
        CorruptionProfile::None,
        CorruptionProfile::Light,
        CorruptionProfile::Moderate,
        CorruptionProfile::Worst,
    ];

    /// A probability that hits the edges (never, always) often.
    fn probability(rng: &mut SimRng) -> f64 {
        match rng.index(4) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.uniform(),
        }
    }

    fn random_rates(rng: &mut SimRng) -> CorruptionRates {
        if rng.chance(0.5) {
            return rng.choose(&PROFILES).rates();
        }
        CorruptionRates {
            p_tail_loss: probability(rng),
            max_tail_lines: rng.index(16) as u64,
            p_dup_block: probability(rng),
            dup_attempts: rng.index(7) as u32,
            p_reorder_block: probability(rng),
            reorder_attempts: rng.index(7) as u32,
            p_bitflip: probability(rng),
            p_truncate: probability(rng),
        }
    }

    /// Flash the logger never writes but damaged or foreign flash can
    /// hold: `\r\n` endings, a missing final newline, a stray `\r`,
    /// empty lines, non-ASCII lines, empty and missing files — mixed
    /// with log-shaped and beat-shaped lines whose timestamps wander
    /// back and forth.
    fn synthetic_fs(rng: &mut SimRng) -> FlashFs {
        let mut fs = FlashFs::new();
        for file in [files::LOG, files::BEATS] {
            match rng.index(8) {
                0 => continue,
                1 => {
                    fs.overwrite_raw(file, Vec::new());
                    continue;
                }
                _ => {}
            }
            let newline: &[u8] = if rng.chance(0.3) { b"\r\n" } else { b"\n" };
            let mut buf = Vec::new();
            let mut t = rng.index(1_000_000) as u64;
            for i in 0..rng.index(48) {
                let token = *rng.choose(&["ALIVE", "REBOOT", "MAOFF", "LOWBT"]);
                let line = match rng.index(8) {
                    0 => String::new(),
                    1 => format!("{t}|ÅLIVE µs→é|c00ff"),
                    2 => format!("{t}|{token}\rX"),
                    3 | 4 => format!("P|{t}|app-{i}|payload|c{:04x}", rng.index(1 << 16)),
                    _ => format!("{t}|{token}"),
                };
                buf.extend_from_slice(line.as_bytes());
                buf.extend_from_slice(newline);
                t = (t + rng.index(4) as u64 * 1000).saturating_sub(rng.index(2) as u64 * 1500);
            }
            if rng.chance(0.3) {
                buf.truncate(buf.len().saturating_sub(newline.len()));
            }
            if rng.chance(0.1) {
                buf.push(b'\r');
            }
            fs.overwrite_raw(file, buf);
        }
        fs
    }

    fn assert_same_files(got: &FlashFs, want: &FlashFs, case: u64) {
        assert_eq!(got.file_names(), want.file_names(), "case {case}");
        for file in want.file_names() {
            assert_eq!(
                got.read_bytes(file),
                want.read_bytes(file),
                "case {case}: file {file}"
            );
        }
    }

    #[test]
    fn line_index_injector_matches_the_string_oracle() {
        use crate::calibration::CalibrationParams;
        use crate::fleet::FleetCampaign;

        let params = CalibrationParams {
            phones: 4,
            campaign_days: 20,
            enrollment_spread_days: 5,
            attrition_spread_days: 5,
            ..CalibrationParams::default()
        };
        let harvests = FleetCampaign::new(2005, params).run();
        let cases = SimRng::seed_from(0x1D_E5);
        let (mut compared, mut damaged) = (0, 0);
        for case in 0..400u64 {
            let mut rng = cases.fork("case", case);
            let input = if case % 3 == 0 {
                harvests[rng.index(harvests.len())].flashfs.clone()
            } else {
                synthetic_fs(&mut rng)
            };
            let model = CorruptionModel::new(random_rates(&mut rng));
            let seed = rng.next_u64();

            let mut want_fs = input.clone();
            let mut want_rng = SimRng::seed_from(seed);
            let want = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                oracle::inject(&model, &mut want_fs, &mut want_rng)
            }));
            let mut got_fs = input.clone();
            let mut got_rng = SimRng::seed_from(seed);
            let got = model.inject(&mut got_fs, &mut got_rng);
            // Where the oracle panics (a cut inside a multi-byte
            // character) there is no result to match; the no-panic
            // test below covers those inputs.
            let Ok(want) = want else {
                continue;
            };
            compared += 1;

            assert_eq!(got, want, "case {case}: injected counts");
            assert_same_files(&got_fs, &want_fs, case);
            assert_eq!(
                got_rng.next_u64(),
                want_rng.next_u64(),
                "case {case}: RNG draws diverged"
            );
            damaged += u64::from(got.total_observable() + got.tail_lines_lost > 0);
        }
        assert!(compared >= 300, "only {compared} cases compared");
        assert!(damaged > 150, "only {damaged} cases injected anything");
    }

    #[test]
    fn line_index_injector_survives_inputs_that_panic_the_oracle() {
        use symfail_core::analysis::dataset::PhoneDataset;

        let mut oracle_panics = [0, 0];
        for seed in 0..64u64 {
            let kind = (seed % 2) as usize;
            let mut fs = FlashFs::new();
            if kind == 0 {
                // Flash that is not UTF-8 at all.
                fs.overwrite_raw(
                    files::LOG,
                    b"P|1|app|\xff\xfe|c0000\nP|2|x|c0001\n".to_vec(),
                );
                fs.overwrite_raw(files::BEATS, b"1000|ALIVE\n2000|AL\xc3IVE\n".to_vec());
            } else {
                // Valid UTF-8 whose final cut can split a character.
                fs.append_line(files::LOG, "P|1|app|ééééééééé");
                fs.append_line(files::BEATS, "1000|ALIVE");
                fs.append_line(files::BEATS, "2000|ÄÄÄÄÄÄÄÄÄ");
            }
            let model = CorruptionModel::from_profile(CorruptionProfile::Worst);
            let mut oracle_fs = fs.clone();
            let oracle_run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                oracle::inject(&model, &mut oracle_fs, &mut SimRng::seed_from(seed))
            }));
            oracle_panics[kind] += usize::from(oracle_run.is_err());

            model.inject(&mut fs, &mut SimRng::seed_from(seed));
            let parsed = PhoneDataset::from_flashfs(0, &fs);
            assert!(parsed.defects().lines_seen > 0, "seed {seed}");
        }
        assert_eq!(
            oracle_panics[0], 32,
            "the oracle panics on every non-UTF-8 file"
        );
        assert!(oracle_panics[1] > 0, "no cut split a character");
    }

    #[test]
    fn line_index_follows_str_lines() {
        for text in [
            "", "\n", "a", "a\n", "a\r\n", "a\r", "\r\n\r\n", "a\nb", "a\r\nb\r", "a\rb\n\n",
        ] {
            let want: Vec<&str> = text.lines().collect();
            let got: Vec<&str> = line_index(text.as_bytes())
                .into_iter()
                .map(|(start, end)| &text[start..end])
                .collect();
            assert_eq!(got, want, "{text:?}");
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = InjectedDefects {
            truncated: 1,
            duplicated: 2,
            ..InjectedDefects::default()
        };
        a.merge(&InjectedDefects {
            truncated: 1,
            out_of_order: 3,
            tail_lines_lost: 4,
            ..InjectedDefects::default()
        });
        assert_eq!(a.truncated, 2);
        assert_eq!(a.total_observable(), 7);
        assert_eq!(a.tail_lines_lost, 4);
    }
}
