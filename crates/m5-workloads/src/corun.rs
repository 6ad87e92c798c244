//! Co-running multiple workload instances.
//!
//! The paper's Figure 11 scales the working set by co-running up to 64
//! benchmark instances, each in a disjoint physical range. [`CoRunner`]
//! interleaves any number of [`AccessStream`]s in round-robin quanta —
//! the simulator-side analogue of co-scheduled processes sharing the
//! memory system.

use cxl_sim::chunk::AccessChunk;
use cxl_sim::system::{Access, AccessStream};

/// Round-robin interleaver over multiple access streams.
///
/// Each stream gets `quantum` consecutive accesses before the next takes
/// over (modelling scheduler timeslices at access granularity); streams
/// that end are skipped, and the co-run ends when every stream is done.
#[derive(Debug)]
pub struct CoRunner<S> {
    streams: Vec<Option<S>>,
    quantum: u32,
    current: usize,
    issued_in_quantum: u32,
    live: usize,
}

impl<S: AccessStream> CoRunner<S> {
    /// Builds a co-runner over `streams` with the given quantum.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or `quantum` is zero.
    pub fn new(streams: Vec<S>, quantum: u32) -> CoRunner<S> {
        assert!(!streams.is_empty(), "need at least one stream");
        assert!(quantum > 0, "quantum must be positive");
        let live = streams.len();
        CoRunner {
            streams: streams.into_iter().map(Some).collect(),
            quantum,
            current: 0,
            issued_in_quantum: 0,
            live,
        }
    }

    fn advance(&mut self) {
        self.current = (self.current + 1) % self.streams.len();
        self.issued_in_quantum = 0;
    }
}

impl<S: AccessStream> AccessStream for CoRunner<S> {
    fn next_access(&mut self) -> Option<Access> {
        if self.live == 0 {
            return None;
        }
        for _ in 0..self.streams.len() {
            if self.issued_in_quantum >= self.quantum {
                self.advance();
            }
            match &mut self.streams[self.current] {
                Some(s) => match s.next_access() {
                    Some(a) => {
                        self.issued_in_quantum += 1;
                        return Some(a);
                    }
                    None => {
                        self.streams[self.current] = None;
                        self.live -= 1;
                        if self.live == 0 {
                            return None;
                        }
                        self.advance();
                    }
                },
                None => self.advance(),
            }
        }
        // All remaining slots were just exhausted.
        None
    }

    /// Bulk path: delegate whole quantum-sized sub-fills to the current
    /// stream's own `fill_chunk` (a slice copy for replayed traces),
    /// using the chunk's soft limit to stop exactly at quantum
    /// boundaries. Produces the same sequence as repeated `next_access`.
    fn fill_chunk(&mut self, chunk: &mut AccessChunk) -> usize {
        let mut total = 0;
        while self.live > 0 && !chunk.is_full() {
            if self.issued_in_quantum >= self.quantum || self.streams[self.current].is_none() {
                // Rotate to the next live stream (resets the quantum),
                // mirroring next_access's skip loop.
                let mut found = false;
                for _ in 0..self.streams.len() {
                    self.advance();
                    if self.streams[self.current].is_some() {
                        found = true;
                        break;
                    }
                }
                if !found {
                    break;
                }
            }
            let want = (self.quantum - self.issued_in_quantum).min(chunk.remaining() as u32);
            let outer = chunk.limit();
            chunk.set_limit(chunk.len() + want as usize);
            let got = self.streams[self.current]
                .as_mut()
                .expect("current stream is live")
                .fill_chunk(chunk);
            chunk.set_limit(outer);
            self.issued_in_quantum += got as u32;
            total += got;
            if got < want as usize {
                // The inner fill stopped before its sub-limit: the stream
                // is exhausted (the only other stop condition is the
                // limit itself).
                self.streams[self.current] = None;
                self.live -= 1;
                self.advance();
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_sim::addr::VirtAddr;

    struct Fixed {
        base: u64,
        n: u64,
        i: u64,
    }

    impl AccessStream for Fixed {
        fn next_access(&mut self) -> Option<Access> {
            if self.i >= self.n {
                return None;
            }
            let a = Access::read(VirtAddr(self.base + self.i * 64));
            self.i += 1;
            Some(a)
        }
    }

    #[test]
    fn interleaves_in_quanta() {
        let mut co = CoRunner::new(
            vec![
                Fixed {
                    base: 0,
                    n: 4,
                    i: 0,
                },
                Fixed {
                    base: 1 << 20,
                    n: 4,
                    i: 0,
                },
            ],
            2,
        );
        let order: Vec<u64> = std::iter::from_fn(|| co.next_access())
            .map(|a| a.vaddr.0 >> 20)
            .collect();
        assert_eq!(order, vec![0, 0, 1, 1, 0, 0, 1, 1]);
        assert_eq!(co.live, 0);
    }

    #[test]
    fn drains_unequal_streams_completely() {
        let mut co = CoRunner::new(
            vec![
                Fixed {
                    base: 0,
                    n: 1,
                    i: 0,
                },
                Fixed {
                    base: 1 << 20,
                    n: 5,
                    i: 0,
                },
            ],
            3,
        );
        let total = std::iter::from_fn(|| co.next_access()).count();
        assert_eq!(total, 6, "no access lost when a stream ends early");
    }

    #[test]
    fn single_stream_passes_through() {
        let mut co = CoRunner::new(
            vec![Fixed {
                base: 0,
                n: 3,
                i: 0,
            }],
            1,
        );
        let total = std::iter::from_fn(|| co.next_access()).count();
        assert_eq!(total, 3);
    }

    #[test]
    #[should_panic(expected = "at least one stream")]
    fn empty_streams_panic() {
        let _ = CoRunner::<Fixed>::new(vec![], 1);
    }
}
