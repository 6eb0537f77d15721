//! §8: PDAM-aware search-tree design — van Emde Boas node layouts and the
//! time-stepped concurrent-client simulator behind Lemma 13.
//!
//! The dilemma §8 poses: with `P` clients, a B-tree wants nodes of size `B`
//! (one block per client per step); with one client it wants nodes of size
//! `PB` (the device fetches a whole fat node in one step). The resolution:
//! nodes of size `PB` organized internally in a **van Emde Boas layout**, so
//! a client that receives only `P/k` block-slots per step still traverses a
//! node in `Θ(log_{PB/k} PB)` steps — and the design adapts *obliviously* as
//! the number of clients `k` varies (Lemma 13: throughput
//! `Ω(k / log_{PB/k} N)` for every `k ≤ P`).
//!
//! * [`layout`] — the BFS→vEB position bijection and its locality
//!   properties,
//! * [`node`] — intra-node search over vEB-laid-out and sorted-array pivot
//!   blocks, reporting the *block demand sequence* of a search,
//! * [`sim`] — the PDAM time-step simulator: `k` closed-loop query clients
//!   share `P` block-slots per step on `dam_storage`'s step scheduler. Each
//!   probe is read as a run of `max(1, P/k)` contiguous blocks — the paper's
//!   read-ahead ("if there are any unused IO slots in that time step, then
//!   it expands the requests to perform read-ahead"). The width is exact
//!   because every client always has a query in flight, so all `k` share
//!   every step.

pub mod layout;
pub mod node;
pub mod sim;

pub use layout::veb_position;
pub use node::{IntraNode, NodeLayout};
pub use sim::{run_pdam_sim, PdamSimConfig, PdamSimResult};
