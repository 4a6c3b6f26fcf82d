//! What is left of the process-wide MCS memo: nothing but [`clear`].
//!
//! Similarities are held by the loop that needs them: the greedy fold
//! computes each (candidate, pick) pair once per run, and the swap
//! refiner keeps its own pair matrix for one call. The benchmark harness
//! in `perfbench/` still calls `cache::clear()` before each cold run, so
//! this module keeps that name until the harness drops the calls.

/// Does nothing: no kernel result outlives the call that computed it.
pub fn clear() {}
