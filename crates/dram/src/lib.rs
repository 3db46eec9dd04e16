//! # dca-dram — tier-generic DRAM device timing model
//!
//! Cycle-level channel/bank/bus machinery parameterised by
//! [`TimingParams`] + [`Organization`], so the same model serves *any
//! memory tier*. Two tiers instantiate it today:
//!
//! * the die-stacked DRAM array that backs the DRAM cache in the paper
//!   (Table II): 4 channels × 1 rank × 16 banks, 4 KB row buffers,
//!   open-page policy, RoBaRaChCo address order
//!   ([`TimingParams::paper_stacked`] / [`Organization::paper`]);
//! * the off-chip DDR4 main memory behind it
//!   ([`TimingParams::ddr4_2400`] / [`Organization::ddr4_main`]),
//!   which `dca-mem-hier`'s cycle-level backend drives through the
//!   identical [`DramChannel`] type.
//!
//! The model operates at *access* granularity: the controller hands the
//! channel a [`DramAccess`] (bank, row, read/write, burst length) and the
//! channel computes, analytically, when the access's data burst starts and
//! ends, honouring:
//!
//! * per-bank row-buffer state — a **row hit** needs only a CAS, a
//!   **closed** bank needs ACT+CAS (tRCD), a **row conflict** needs
//!   PRE+ACT+CAS (tRP + tRCD) and the precharge itself must respect
//!   tRAS / tRTP / tWR;
//! * the shared per-channel data bus — bursts serialise, and switching the
//!   bus between read and write mode costs the turnaround penalties tWTR
//!   (write→read) and tRTW (read→write) that are central to the paper's
//!   CD-vs-ROD-vs-DCA comparison;
//! * bank-level parallelism — PRE/ACT of one bank overlaps bursts of
//!   others, because only the burst occupies the bus.
//!
//! Row-hit/miss/conflict classification and accesses-per-turnaround
//! statistics recorded here feed Figures 14–17 of the paper directly.

pub mod access;
pub mod bank;
pub mod bus;
pub mod channel;
pub mod mapping;
pub mod params;

pub use access::{AccessKind, BurstLen, DramAccess};
pub use bank::{Bank, RowOutcome};
pub use bus::{BusMode, DataBus};
pub use channel::{ChannelStats, DramChannel, IssueInfo, MAX_CHANNEL_BANKS};
pub use mapping::{AddressMapper, Location, MappingScheme};
pub use params::{Organization, TimingParams};
