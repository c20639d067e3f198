//! Protocol interfaces and a protocol library for the layered-consensus
//! workspace.
//!
//! The paper analyzes arbitrary deterministic protocols; this crate supplies
//! (a) the traits those protocols implement for each model family
//! ([`SyncProtocol`], [`SmProtocol`], [`MpProtocol`]) and (b) the concrete
//! protocols the experiments run:
//!
//! * [`FloodMin`] — flooding consensus with a round deadline. At `t + 1`
//!   rounds it solves t-resilient synchronous consensus (tightness of
//!   Corollary 6.3); at `t` rounds the checker exhibits its agreement
//!   violation (the lower bound itself).
//! * [`FullInfoMin`] — the full-information protocol with a min decision
//!   rule; the worst-case state-space workload.
//! * [`SmFloodMin`] / [`MpFloodMin`] — flooding under the synchronic and
//!   permutation layerings, for the asynchronous impossibility experiments.
//! * [`MpCollectMin`] — quorum-collect; with quorum `n − 1` it solves 2-set
//!   agreement 1-resiliently (Section 7) while violating consensus.
//! * [`HastyMin`] — decides immediately; a checker-calibration protocol.
//!
//! The [`round`] module packs the per-process lanes of a synchronous round
//! state; both synchronous models build their codecs on it.
//!
//! The FloodMin family floods a [`ValueSet`], a one-word set of values in
//! `0..64` that orders, hashes, prints and encodes like `BTreeSet<Value>`.
//!
//! # Example
//!
//! ```
//! use layered_protocols::{FloodMin, SyncProtocol};
//! use layered_core::{Pid, Value};
//!
//! let p = FloodMin::new(2);
//! let ls = p.init(3, Pid::new(0), Value::ZERO);
//! let msg = p.message(&ls, Pid::new(1));
//! assert!(msg.contains(Value::ZERO));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod collect;
mod early;
mod eig;
mod floodmin;
mod fullinfo;
mod relay;
pub mod round;
mod traits;
mod trivial;

pub use collect::{CollectState, MpCollectMin};
pub use early::{EarlyFloodMin, EarlyState, PidSet};
pub use eig::{Eig, EigState, EigTree};
pub use floodmin::{FloodMin, FloodState, HastyMin, MpFloodMin, SmFloodMin, ValueSet};
pub use fullinfo::{FullInfoMin, View};
pub use relay::{MpRelayRace, RelayMsg, RelayState, SmRelayRace, SyncRelayRace};
pub use traits::{Anonymous, MpProtocol, SmProtocol, SyncProtocol};
pub use trivial::{MpConstant, MpIdentity, TrivialState};
