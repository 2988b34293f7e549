//! Scoped fork-join used by the Task Manager's parallel phases.
//!
//! Workers only ever see disjoint `&mut` chunks of the input slice and
//! return values are concatenated in chunk order, so the output is the
//! same `Vec` the serial loop would have produced — determinism holds
//! for any worker count by construction (DESIGN.md §10).

/// Apply `f` to every element of `items` (with its index), in parallel
/// across up to `workers` scoped threads, and return the results in
/// index order.
///
/// Falls back to a plain serial loop when `workers <= 1` or when there
/// is at most one item to share out.
pub fn par_map_mut<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n < 2 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let workers = workers.min(n);
    let chunk_len = n.div_ceil(workers);
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let f = &f;
        let mut handles = Vec::with_capacity(workers);
        for (ci, chunk) in items.chunks_mut(chunk_len).enumerate() {
            handles.push(scope.spawn(move || {
                chunk
                    .iter_mut()
                    .enumerate()
                    .map(|(i, item)| f(ci * chunk_len + i, item))
                    .collect::<Vec<R>>()
            }));
        }
        for handle in handles {
            out.extend(handle.join().expect("fulfillment worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_for_any_worker_count() {
        let base: Vec<u64> = (0..97).collect();
        let mut serial_items = base.clone();
        let serial = par_map_mut(&mut serial_items, 1, |i, v| {
            *v += 1;
            i as u64 * 1000 + *v
        });
        for workers in [2usize, 3, 4, 8, 16, 97, 200] {
            let mut items = base.clone();
            let out = par_map_mut(&mut items, workers, |i, v| {
                *v += 1;
                i as u64 * 1000 + *v
            });
            assert_eq!(out, serial, "workers={workers}");
            assert_eq!(items, serial_items, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let mut empty: Vec<u32> = vec![];
        assert!(par_map_mut(&mut empty, 4, |_, v| *v).is_empty());
        let mut one = vec![7u32];
        assert_eq!(par_map_mut(&mut one, 4, |_, v| *v + 1), vec![8]);
    }

    #[test]
    fn indexes_are_global_not_per_chunk() {
        let mut items = vec![0u8; 33];
        let out = par_map_mut(&mut items, 4, |i, _| i);
        assert_eq!(out, (0..33).collect::<Vec<usize>>());
    }
}
