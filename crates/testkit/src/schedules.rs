//! Named deterministic model-checker schedules for the fault matrix.
//!
//! The [`crate::fault`] plans trigger failures *deterministically in
//! value space* (panic at the Nth class, cancel after the Nth class) but
//! still leave thread *timing* to the OS. The model-checker stage
//! removes that last degree of freedom: each schedule below is a list
//! of scheduler decisions — ordinals into the sorted set of runnable
//! virtual threads at each visible operation — that
//! `tsg_check::model::Checker::replay` replays bit-for-bit, so the
//! trickiest fault-injection scenarios become exact interleavings
//! rather than races the harness hopes to hit (see
//! `crates/core/tests/model.rs`, which asserts identical event logs
//! across repeated replays of each schedule).
//!
//! The decisions past a schedule's end continue prev-first (keep the
//! running thread whenever it stays runnable), so a short prefix pins
//! the interesting part of the interleaving and the tail is still
//! deterministic.

/// The receiver drops mid-stream ([`crate::fault::FaultPlan`]'s
/// receiver-drop scenario): the producer keeps swapping into a full
/// channel, closes, then drains the leftovers itself.
pub const RECEIVER_DROP_MID_STREAM: &[usize] = &[0, 1, 0, 0, 1, 1, 0];

/// A worker panics at its Nth claimed ticket: tickets race off the
/// shared cursor and the panic must surface through `join` without
/// stranding the surviving worker.
pub const PANIC_AT_NTH_CLAIM: &[usize] = &[0, 0, 1, 1, 0, 1, 0, 1];

/// A budget trip races admission (`budget_classes` / `cancel_after`):
/// two workers hit a one-class governor and the pinned schedule makes
/// the same worker win every replay.
pub const BUDGET_TRIP_RACING_ADMISSION: &[usize] = &[1, 0, 1, 0, 0];
