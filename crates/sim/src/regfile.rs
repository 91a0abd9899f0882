//! Register-file model.
//!
//! One [`RegisterFile`] value is one register *context*: the 32 words an FU
//! can address plus a bit per word saying whether it has been written. The
//! engine keeps two kinds of context per FU:
//!
//! * the **constant image**, built once when the program is decoded, holding
//!   the constants the configuration preloads;
//! * the **block context**, which starts every block as a copy of the
//!   constant image and then takes the block's loads and write-backs.
//!
//! Because the block context starts from the image, a register written
//! during the block *shadows* the constant preloaded at the same index for
//! the rest of that block, and the constant is back for the next block. A
//! register that neither the image nor the block has written reads as
//! `None`, which the engine reports as an uninitialised-register error.

use overlay_dfg::Value;
use overlay_isa::{RegIndex, REGISTER_FILE_SIZE};

// One valid bit per register.
const _: () = assert!(REGISTER_FILE_SIZE <= u32::BITS as usize);

/// Software model of the FU's RAM32M register file.
///
/// The rotating-register-file mechanism of the V1+ variants writes each
/// invocation's data into a fresh window (the offset counter of Fig. 3) so
/// that loading the next block can overlap with executing the current one.
/// The simulator models this by giving every block its own register
/// *context*, a plain `Copy` value: 32 words and a 32-bit valid mask.
///
/// # Example
///
/// ```
/// use overlay_sim::RegisterFile;
/// use overlay_isa::RegIndex;
/// use overlay_dfg::Value;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rf = RegisterFile::new();
/// rf.write(RegIndex::new(3)?, Value::new(42));
/// assert_eq!(rf.read(RegIndex::new(3)?), Some(Value::new(42)));
/// assert_eq!(rf.read(RegIndex::new(4)?), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterFile {
    values: [Value; REGISTER_FILE_SIZE],
    valid: u32,
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegisterFile {
    /// Creates an empty register file (every entry uninitialised).
    pub fn new() -> Self {
        RegisterFile {
            values: [Value::ZERO; REGISTER_FILE_SIZE],
            valid: 0,
        }
    }

    /// Writes `value` into `reg`.
    pub fn write(&mut self, reg: RegIndex, value: Value) {
        self.values[reg.index()] = value;
        self.valid |= 1 << reg.index();
    }

    /// Reads `reg`, returning `None` if it was never written.
    pub fn read(&self, reg: RegIndex) -> Option<Value> {
        (self.valid & (1 << reg.index()) != 0).then(|| self.values[reg.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RegIndex {
        RegIndex::new(i).unwrap()
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut rf = RegisterFile::new();
        assert_eq!(rf.read(r(0)), None);
        rf.write(r(0), Value::new(-7));
        assert_eq!(rf.read(r(0)), Some(Value::new(-7)));
        assert_eq!(rf.read(r(1)), None);
    }

    #[test]
    fn a_copied_context_shadows_the_image_without_changing_it() {
        let mut image = RegisterFile::new();
        image.write(r(31), Value::new(99));
        let mut context = image;
        context.write(r(31), Value::new(5));
        context.write(r(2), Value::new(1));
        assert_eq!(context.read(r(31)), Some(Value::new(5)));
        assert_eq!(image.read(r(31)), Some(Value::new(99)));
        assert_eq!(image.read(r(2)), None);
    }
}
