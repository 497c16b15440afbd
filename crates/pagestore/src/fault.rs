//! Fault injection for crash-safety testing.
//!
//! A [`FaultPlan`] is a shared counter over every durability-relevant
//! I/O operation (pager writes/allocates/syncs, WAL writes/syncs/
//! truncates). Arming the plan makes the Nth such operation fail in one
//! of three ways:
//!
//! * [`FaultKind::Error`] — a one-shot transient error; later operations
//!   succeed (exercises retry paths).
//! * [`FaultKind::ShortWrite`] — the operation applies only a prefix of
//!   its bytes, then the process "dies": this and every later operation
//!   errors (a torn write followed by a crash).
//! * [`FaultKind::CrashStop`] — the operation does nothing and the
//!   process "dies" as above (kill -9 before the write).
//!
//! Because the WAL and the pager share one plan, arming N = 1, 2, 3, …
//! walks a single crash point through the entire commit protocol in
//! order — the crash-point matrix in `tests/crash_matrix.rs` runs every
//! one and proves recovery restores a consistent store from each.
//!
//! Reads are never fault *points* (they can't tear persistent state) but
//! they do fail once the plan has crashed, since a dead process reads
//! nothing.

use crate::error::{Error, Result};
use crate::page::{Page, PageId};
use crate::pager::Pager;
use crate::wal::WalStore;
use std::cell::Cell;
use std::rc::Rc;

/// How the armed operation fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail once with an I/O error; the store stays alive.
    Error,
    /// Apply a prefix of the bytes, then crash-stop.
    ShortWrite,
    /// Fail without applying anything, then crash-stop.
    CrashStop,
}

#[derive(Default)]
struct PlanInner {
    ops: Cell<u64>,
    trigger: Cell<Option<u64>>,
    kind: Cell<Option<FaultKind>>,
    crashed: Cell<bool>,
    fired: Cell<bool>,
}

/// Shared fault schedule for a [`FaultPager`] + [`FaultWal`] pair.
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Rc<PlanInner>,
}

/// What a wrapper should do with the current operation.
enum Outcome {
    Proceed,
    /// Fail the operation (transient error, or the process is already dead).
    Fail,
    /// Apply a prefix of the bytes, then die.
    Partial,
    /// Die *now*, applying nothing — and the wrapper may additionally
    /// drop state that was never synced (a crash loses the page cache).
    CrashNow,
}

impl FaultPlan {
    /// A plan that never fires (counts operations only).
    pub fn unarmed() -> Self {
        FaultPlan::default()
    }

    /// Arm the plan: the `nth` durability-relevant operation from now
    /// (1-based) fails with `kind`.
    pub fn arm(&self, nth: u64, kind: FaultKind) {
        self.inner.trigger.set(Some(self.inner.ops.get() + nth));
        self.inner.kind.set(Some(kind));
        self.inner.fired.set(false);
    }

    /// Operations counted so far.
    pub fn ops(&self) -> u64 {
        self.inner.ops.get()
    }

    /// Whether the armed fault has fired.
    pub fn fired(&self) -> bool {
        self.inner.fired.get()
    }

    /// Whether the simulated process is dead (all I/O fails).
    pub fn crashed(&self) -> bool {
        self.inner.crashed.get()
    }

    fn injected(what: &str) -> Error {
        Error::Io(std::io::Error::other(format!("injected fault: {what}")))
    }

    /// Count one durability-relevant operation and decide its fate.
    fn on_io(&self) -> Outcome {
        if self.inner.crashed.get() {
            return Outcome::Fail;
        }
        let n = self.inner.ops.get() + 1;
        self.inner.ops.set(n);
        if self.inner.trigger.get() == Some(n) {
            self.inner.fired.set(true);
            match self.inner.kind.get().unwrap_or(FaultKind::Error) {
                FaultKind::Error => {
                    self.inner.trigger.set(None); // one-shot
                    Outcome::Fail
                }
                FaultKind::ShortWrite => {
                    self.inner.crashed.set(true);
                    Outcome::Partial
                }
                FaultKind::CrashStop => {
                    self.inner.crashed.set(true);
                    Outcome::CrashNow
                }
            }
        } else {
            Outcome::Proceed
        }
    }

    /// Gate for read-path operations: alive → proceed, crashed → error.
    fn check_alive(&self, what: &str) -> Result<()> {
        if self.inner.crashed.get() {
            Err(Self::injected(what))
        } else {
            Ok(())
        }
    }
}

/// A [`Pager`] that injects faults per a shared [`FaultPlan`].
pub struct FaultPager {
    inner: Box<dyn Pager>,
    plan: FaultPlan,
}

impl FaultPager {
    pub fn new(inner: Box<dyn Pager>, plan: FaultPlan) -> Self {
        FaultPager { inner, plan }
    }

    /// Unwrap the backing pager — how a test inspects the bytes that
    /// "survived the crash" without tearing down the process for real.
    pub fn into_inner(self) -> Box<dyn Pager> {
        self.inner
    }
}

impl Pager for FaultPager {
    fn num_pages(&self) -> u32 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> Result<PageId> {
        match self.plan.on_io() {
            Outcome::Proceed => self.inner.allocate(),
            // A short-written allocation behaves like a crash before it:
            // the trait has no partial-allocate, and recovery re-extends
            // the file from the WAL anyway.
            Outcome::Fail | Outcome::Partial | Outcome::CrashNow => {
                Err(FaultPlan::injected("pager allocate"))
            }
        }
    }

    fn read(&mut self, id: PageId, buf: &mut Page) -> Result<()> {
        self.plan.check_alive("pager read")?;
        self.inner.read(id, buf)
    }

    fn write(&mut self, id: PageId, page: &Page) -> Result<()> {
        match self.plan.on_io() {
            Outcome::Proceed => self.inner.write(id, page),
            Outcome::Fail | Outcome::CrashNow => Err(FaultPlan::injected("pager write")),
            Outcome::Partial => {
                // Torn page write: first half of the new image lands over
                // whatever the page held before; then the process dies.
                let mut torn = Page::new();
                if self.inner.read(id, &mut torn).is_err() {
                    torn = Page::new(); // fresh page: prior content is zeroes
                }
                let half = crate::page::PAGE_SIZE / 2;
                torn.bytes_mut()[..half].copy_from_slice(&page.bytes()[..half]);
                self.inner.write(id, &torn)?;
                Err(FaultPlan::injected("pager short write"))
            }
        }
    }

    fn sync(&mut self) -> Result<()> {
        match self.plan.on_io() {
            Outcome::Proceed => self.inner.sync(),
            Outcome::Fail | Outcome::Partial | Outcome::CrashNow => {
                Err(FaultPlan::injected("pager sync"))
            }
        }
    }

    fn ensure_pages(&mut self, n: u32) -> Result<()> {
        match self.plan.on_io() {
            Outcome::Proceed => self.inner.ensure_pages(n),
            // Like `allocate`: nothing partial to model.
            Outcome::Fail | Outcome::Partial | Outcome::CrashNow => {
                Err(FaultPlan::injected("pager ensure_pages"))
            }
        }
    }
}

/// A [`WalStore`] that injects faults per a shared [`FaultPlan`].
///
/// Keeps what every write since the last sync overwrote. A
/// [`FaultKind::CrashStop`] puts those bytes back and cuts the store to
/// its synced length, modelling the OS page cache dying with the
/// process: the unsynced writes are gone, and whatever they overwrote —
/// zeros, stale records — is what the disk holds. A
/// [`FaultKind::ShortWrite`] keeps the unsynced writes and a prefix of
/// the torn one over whatever it was overwriting — the other extreme,
/// where a torn write did reach disk. Between the two kinds, the crash
/// matrix covers both fates of un-fsynced log data. A truncate counts as
/// durable at once.
pub struct FaultWal {
    inner: Box<dyn WalStore>,
    plan: FaultPlan,
    synced_len: u64,
    /// `(offset, bytes overwritten)` of each write since the last sync.
    overwritten: Vec<(u64, Vec<u8>)>,
}

impl FaultWal {
    pub fn new(inner: Box<dyn WalStore>, plan: FaultPlan) -> Self {
        let synced_len = inner.len();
        FaultWal {
            inner,
            plan,
            synced_len,
            overwritten: Vec::new(),
        }
    }

    /// Unwrap the backing store, for post-crash inspection in tests.
    pub fn into_inner(self) -> Box<dyn WalStore> {
        self.inner
    }

    fn lose_unsynced_writes(&mut self) {
        // Best-effort by design: this models the disk losing unsynced
        // writes in a crash, so a failing restore is part of the fault.
        for (offset, old) in self.overwritten.drain(..).rev() {
            drop(self.inner.write_at(offset, &old));
        }
        if self.inner.len() > self.synced_len {
            drop(self.inner.truncate(self.synced_len));
        }
    }
}

impl WalStore for FaultWal {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.plan.check_alive("wal read")?;
        self.inner.read_at(offset, len)
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<()> {
        match self.plan.on_io() {
            Outcome::Proceed => {
                let old = self.inner.read_at(offset, bytes.len())?;
                self.inner.write_at(offset, bytes)?;
                self.overwritten.push((offset, old));
                Ok(())
            }
            Outcome::Fail => Err(FaultPlan::injected("wal write")),
            Outcome::Partial => {
                // Torn write: half the bytes reach the log, then death.
                self.inner.write_at(offset, &bytes[..bytes.len() / 2])?;
                Err(FaultPlan::injected("wal short write"))
            }
            Outcome::CrashNow => {
                self.lose_unsynced_writes();
                Err(FaultPlan::injected("wal write"))
            }
        }
    }

    fn sync(&mut self) -> Result<()> {
        match self.plan.on_io() {
            Outcome::Proceed => {
                self.inner.sync()?;
                self.synced_len = self.inner.len();
                self.overwritten.clear();
                Ok(())
            }
            Outcome::Fail | Outcome::Partial => Err(FaultPlan::injected("wal sync")),
            Outcome::CrashNow => {
                self.lose_unsynced_writes();
                Err(FaultPlan::injected("wal sync"))
            }
        }
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        match self.plan.on_io() {
            Outcome::Proceed => {
                self.inner.truncate(len)?;
                self.synced_len = len;
                self.overwritten.clear();
                Ok(())
            }
            Outcome::Fail | Outcome::Partial => Err(FaultPlan::injected("wal truncate")),
            Outcome::CrashNow => {
                self.lose_unsynced_writes();
                Err(FaultPlan::injected("wal truncate"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;
    use crate::wal::MemWalStore;

    #[test]
    fn unarmed_plan_only_counts() {
        let plan = FaultPlan::unarmed();
        let mut pager = FaultPager::new(Box::new(MemPager::new()), plan.clone());
        let id = pager.allocate().unwrap();
        pager.write(id, &Page::new()).unwrap();
        pager.sync().unwrap();
        assert_eq!(plan.ops(), 3);
        assert!(!plan.fired());
        assert!(!plan.crashed());
    }

    #[test]
    fn error_kind_is_transient() {
        let plan = FaultPlan::unarmed();
        let mut pager = FaultPager::new(Box::new(MemPager::new()), plan.clone());
        let id = pager.allocate().unwrap();
        plan.arm(1, FaultKind::Error);
        assert!(pager.write(id, &Page::new()).is_err());
        assert!(plan.fired());
        assert!(!plan.crashed());
        // The very next attempt succeeds.
        pager.write(id, &Page::new()).unwrap();
    }

    #[test]
    fn crash_stop_kills_all_subsequent_io() {
        let plan = FaultPlan::unarmed();
        let mut pager = FaultPager::new(Box::new(MemPager::new()), plan.clone());
        let id = pager.allocate().unwrap();
        plan.arm(1, FaultKind::CrashStop);
        assert!(pager.sync().is_err());
        assert!(plan.crashed());
        assert!(pager.write(id, &Page::new()).is_err());
        let mut buf = Page::new();
        assert!(pager.read(id, &mut buf).is_err());
    }

    #[test]
    fn short_write_leaves_a_new_prefix_over_stale_bytes() {
        let plan = FaultPlan::unarmed();
        let mut store = FaultWal::new(Box::new(MemWalStore::new()), plan.clone());
        store.write_at(0, b"stale-record").unwrap();
        store.sync().unwrap();
        plan.arm(1, FaultKind::ShortWrite);
        assert!(store.write_at(0, b"NEWNEW").is_err());
        assert!(plan.crashed());
        // Half of the six new bytes, then what they were overwriting.
        assert_eq!(store.into_inner().read_at(0, 64).unwrap(), b"NEWle-record");
    }

    #[test]
    fn crash_stop_puts_back_what_unsynced_writes_overwrote() {
        let plan = FaultPlan::unarmed();
        let mut store = FaultWal::new(Box::new(MemWalStore::new()), plan.clone());
        store.write_at(0, b"synced-stale").unwrap();
        store.sync().unwrap();
        store.write_at(7, b"unsynced").unwrap();
        store.write_at(0, b"UN").unwrap();
        plan.arm(1, FaultKind::CrashStop);
        assert!(store.sync().is_err());
        assert!(plan.crashed());
        // The synced bytes, as they were: the page cache died with the
        // process, the overwrites and the growth with it.
        let mut inner = store.into_inner();
        assert_eq!(inner.len(), 12);
        assert_eq!(inner.read_at(0, 64).unwrap(), b"synced-stale");
    }

    #[test]
    fn short_page_write_tears_the_page() {
        let plan = FaultPlan::unarmed();
        let mut pager = FaultPager::new(Box::new(MemPager::new()), plan.clone());
        let id = pager.allocate().unwrap();
        let mut old = Page::new();
        old.insert(&[0xAA; 6000]).unwrap();
        pager.write(id, &old).unwrap();
        let mut new = Page::new();
        new.insert(&[0xBB; 6000]).unwrap();
        plan.arm(1, FaultKind::ShortWrite);
        assert!(pager.write(id, &new).is_err());
        // What the "disk" holds is neither image: first half new, rest old.
        let mut inner = pager.into_inner();
        let mut torn = Page::new();
        inner.read(id, &mut torn).unwrap();
        let half = crate::page::PAGE_SIZE / 2;
        assert_eq!(torn.bytes()[..half], new.bytes()[..half]);
        assert_eq!(torn.bytes()[half..], old.bytes()[half..]);
        assert_ne!(&torn.bytes()[..], &old.bytes()[..]);
        assert_ne!(&torn.bytes()[..], &new.bytes()[..]);
    }
}
