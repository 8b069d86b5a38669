//! The worker pool: fan deterministic jobs across threads, collect results
//! in input order.
//!
//! Each job is a single-threaded, deterministic simulation; only
//! *independent* runs parallelize. Scoped workers claim input indices from
//! a shared counter and outputs land in their input index, so the result
//! vector — and anything rendered from it — is byte-identical to a serial
//! loop over the same inputs. Threads live only in this harness crate; the
//! simulation crates stay thread-free and clock-free.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f` over every item of `inputs`, in parallel across up to `threads`
/// workers, returning outputs in input order.
///
/// `f` must be deterministic per input for sweep results to be reproducible;
/// the parallelism here never reorders or perturbs individual runs.
pub fn run_sweep<I, O, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = threads.max(1).min(inputs.len());
    if threads <= 1 {
        return inputs.iter().map(&f).collect();
    }

    // Relaxed: the counter only hands out indices; results are published
    // by the mutex and the scope's join.
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<O>>> = Mutex::new(inputs.iter().map(|_| None).collect());
    // Worker threads are a throughput detail: results land in index order
    // regardless of completion order, so parallelism never reaches replay.
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(input) = inputs.get(idx) else { break };
                let out = f(input);
                results.lock().expect("no worker panics holding the lock")[idx] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("no worker panics holding the lock")
        .into_iter()
        // Infallible: every index was claimed exactly once and a worker
        // panic would already have propagated out of `thread::scope`.
        .map(|o| o.expect("worker produced every slot"))
        .collect()
}

/// Default worker count: the machine's parallelism, bounded to something
/// polite for shared boxes.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_are_in_input_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = run_sweep(inputs, 8, |&x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn single_thread_path_matches_parallel() {
        let inputs: Vec<u64> = (0..50).collect();
        let seq = run_sweep(inputs.clone(), 1, |&x| x + 7);
        let par = run_sweep(inputs, 8, |&x| x + 7);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = run_sweep(Vec::<u64>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_inputs_is_fine() {
        let out = run_sweep(vec![1u64, 2], 64, |&x| x * 10);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn work_is_actually_distributed() {
        // Record which thread handled each item; with 4 workers and 64
        // slow-ish items more than one thread should participate.
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        let ids = StdMutex::new(HashSet::new());
        let inputs: Vec<u64> = (0..64).collect();
        run_sweep(inputs, 4, |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(ids.lock().unwrap().len() > 1);
    }
}
