//! The SuperFunction type vocabulary (Section 3.1, Table 1 of the paper).

use std::fmt;

/// Category of a SuperFunction — the top 2 bits of a
/// [`SuperFuncType`] (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SfCategory {
    /// System call handler (category id 0).
    SystemCall,
    /// Interrupt handler (category id 1).
    Interrupt,
    /// Bottom-half handler (category id 2).
    BottomHalf,
    /// User application (category id 3).
    Application,
}

impl SfCategory {
    /// The 2-bit category id from Table 1.
    pub fn id(self) -> u64 {
        match self {
            SfCategory::SystemCall => 0,
            SfCategory::Interrupt => 1,
            SfCategory::BottomHalf => 2,
            SfCategory::Application => 3,
        }
    }

    /// All four categories, in Table 1 order.
    pub fn all() -> [SfCategory; 4] {
        [
            SfCategory::SystemCall,
            SfCategory::Interrupt,
            SfCategory::BottomHalf,
            SfCategory::Application,
        ]
    }

    /// True for the three OS categories (everything except application).
    pub fn is_os(self) -> bool {
        self != SfCategory::Application
    }
}

impl fmt::Display for SfCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SfCategory::SystemCall => "system call",
            SfCategory::Interrupt => "interrupt",
            SfCategory::BottomHalf => "bottom half",
            SfCategory::Application => "application",
        };
        f.write_str(s)
    }
}

/// A 64-bit SuperFunction type: 2-bit category plus 62-bit subcategory
/// (Table 1).
///
/// The paper's examples hold here exactly: the `read` system call handler
/// (Linux 2.6 syscall id 3) encodes as plain `3`, and the keyboard
/// interrupt (interrupt id 1) encodes as `0x4000_0000_0000_0001`.
///
/// # Examples
///
/// ```
/// use schedtask_workload::{SfCategory, SuperFuncType};
///
/// let read = SuperFuncType::new(SfCategory::SystemCall, 3);
/// assert_eq!(read.raw(), 3);
///
/// let kbd = SuperFuncType::new(SfCategory::Interrupt, 1);
/// assert_eq!(kbd.raw(), 0x4000_0000_0000_0001);
/// assert_eq!(kbd.category(), SfCategory::Interrupt);
/// assert_eq!(kbd.subcategory(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SuperFuncType(u64);

impl SuperFuncType {
    /// Number of subcategory bits (Table 1: 62).
    pub const SUBCATEGORY_BITS: u32 = 62;

    /// Encodes a category and subcategory.
    ///
    /// # Panics
    ///
    /// Panics if `subcategory` does not fit in 62 bits.
    pub fn new(category: SfCategory, subcategory: u64) -> Self {
        assert!(
            subcategory < (1u64 << Self::SUBCATEGORY_BITS),
            "subcategory must fit in 62 bits"
        );
        SuperFuncType((category.id() << Self::SUBCATEGORY_BITS) | subcategory)
    }

    /// The raw 64-bit encoding.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Decodes the category field.
    pub fn category(self) -> SfCategory {
        match self.0 >> Self::SUBCATEGORY_BITS {
            0 => SfCategory::SystemCall,
            1 => SfCategory::Interrupt,
            2 => SfCategory::BottomHalf,
            _ => SfCategory::Application,
        }
    }

    /// Decodes the subcategory field.
    pub fn subcategory(self) -> u64 {
        self.0 & ((1u64 << Self::SUBCATEGORY_BITS) - 1)
    }

    /// True for OS SuperFunction types.
    pub fn is_os(self) -> bool {
        self.category().is_os()
    }
}

impl fmt::Display for SuperFuncType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.category(), self.subcategory())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_ids_match_table1() {
        assert_eq!(SfCategory::SystemCall.id(), 0);
        assert_eq!(SfCategory::Interrupt.id(), 1);
        assert_eq!(SfCategory::BottomHalf.id(), 2);
        assert_eq!(SfCategory::Application.id(), 3);
    }

    #[test]
    fn read_syscall_encodes_as_3() {
        let t = SuperFuncType::new(SfCategory::SystemCall, 3);
        assert_eq!(t.raw(), 3);
    }

    #[test]
    fn keyboard_interrupt_matches_papers_constant() {
        let t = SuperFuncType::new(SfCategory::Interrupt, 1);
        assert_eq!(t.raw(), 0x4000_0000_0000_0001);
    }

    #[test]
    fn round_trip_all_categories() {
        for cat in SfCategory::all() {
            let t = SuperFuncType::new(cat, 0x1234_5678);
            assert_eq!(t.category(), cat);
            assert_eq!(t.subcategory(), 0x1234_5678);
        }
    }

    #[test]
    fn max_subcategory_accepted() {
        let max = (1u64 << 62) - 1;
        let t = SuperFuncType::new(SfCategory::Application, max);
        assert_eq!(t.subcategory(), max);
    }

    #[test]
    #[should_panic(expected = "62 bits")]
    fn oversized_subcategory_rejected() {
        SuperFuncType::new(SfCategory::SystemCall, 1u64 << 62);
    }

    #[test]
    fn os_detection() {
        assert!(SuperFuncType::new(SfCategory::SystemCall, 1).is_os());
        assert!(SuperFuncType::new(SfCategory::Interrupt, 1).is_os());
        assert!(SuperFuncType::new(SfCategory::BottomHalf, 1).is_os());
        assert!(!SuperFuncType::new(SfCategory::Application, 1).is_os());
    }

    #[test]
    fn display_is_informative() {
        let t = SuperFuncType::new(SfCategory::SystemCall, 3);
        assert_eq!(t.to_string(), "system call:3");
    }

    #[test]
    fn ordering_groups_by_category() {
        let a = SuperFuncType::new(SfCategory::SystemCall, 999);
        let b = SuperFuncType::new(SfCategory::Interrupt, 0);
        assert!(a < b);
    }
}
