//! Lock-based concurrent data store for the threaded runtime.
//!
//! The FPPN semantics guarantees that *conflicting* jobs (same process or
//! same channel) never run concurrently — the static-order policy enforces
//! their order with precedence synchronization. The locks here therefore
//! see no contention on correct executions; they exist to make the store
//! `Sync` and to catch protocol violations loudly if a bug ever lets two
//! conflicting jobs overlap.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use fppn_core::{
    ChannelId, ChannelState, DataAccess, Fppn, Observables, PortId, ProcessId, Stimuli, Value,
};

/// Locks `m`, recovering the data of a lock poisoned by a panicking
/// worker: the run reports that panic itself, so the poison carries no
/// extra information.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-port output samples, keyed like `Observables::outputs`.
type OutputMap = BTreeMap<(ProcessId, PortId), Vec<(u64, Value)>>;

/// Thread-safe channel/output storage shared by all worker threads.
pub struct ConcurrentStore<'n> {
    net: &'n Fppn,
    stimuli: Stimuli,
    channels: Vec<Mutex<ChannelState>>,
    channel_logs: Vec<Mutex<Vec<Value>>>,
    outputs: Mutex<OutputMap>,
    counters: Vec<Mutex<u64>>,
}

impl<'n> ConcurrentStore<'n> {
    /// Initializes all channels to their declared initial state.
    pub fn new(net: &'n Fppn, stimuli: Stimuli) -> Self {
        ConcurrentStore {
            channels: net.channels().iter().map(|c| Mutex::new(ChannelState::new(c))).collect(),
            channel_logs: net.channels().iter().map(|_| Mutex::new(Vec::new())).collect(),
            outputs: Mutex::new(BTreeMap::new()),
            counters: (0..net.process_count()).map(|_| Mutex::new(0)).collect(),
            stimuli,
            net,
        }
    }

    /// Assigns the next 1-based invocation count of `pid`. Jobs of one
    /// process are serialized by precedence, so this is uncontended and
    /// yields the zero-delay `k` sequence.
    pub fn next_k(&self, pid: ProcessId) -> u64 {
        let mut c = lock(&self.counters[pid.index()]);
        *c += 1;
        *c
    }

    /// Snapshot of the observable value sequences.
    pub fn observables(&self) -> Observables {
        Observables {
            channels: self
                .channel_logs
                .iter()
                .map(|l| lock(l).clone())
                .collect(),
            outputs: lock(&self.outputs)
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect(),
        }
    }
}

/// Per-job [`DataAccess`] adapter over the shared store.
pub struct StoreAccess<'a, 'n> {
    store: &'a ConcurrentStore<'n>,
}

impl<'a, 'n> StoreAccess<'a, 'n> {
    /// Creates an adapter for one job execution.
    pub fn new(store: &'a ConcurrentStore<'n>) -> Self {
        StoreAccess { store }
    }
}

impl DataAccess for StoreAccess<'_, '_> {
    fn read_channel(&mut self, pid: ProcessId, ch: ChannelId) -> Option<Value> {
        let spec = self.store.net.channel(ch);
        assert!(
            spec.reader() == pid,
            "process {} read from channel {:?} whose reader is {}",
            self.store.net.process(pid).name(),
            spec.name(),
            self.store.net.process(spec.reader()).name()
        );
        lock(&self.store.channels[ch.index()]).read()
    }

    fn write_channel(&mut self, pid: ProcessId, ch: ChannelId, value: Value) {
        let spec = self.store.net.channel(ch);
        assert!(
            spec.writer() == pid,
            "process {} wrote to channel {:?} whose writer is {}",
            self.store.net.process(pid).name(),
            spec.name(),
            self.store.net.process(spec.writer()).name()
        );
        lock(&self.store.channels[ch.index()]).write(value.clone());
        lock(&self.store.channel_logs[ch.index()]).push(value);
    }

    fn read_external(&mut self, pid: ProcessId, port: PortId, k: u64) -> Option<Value> {
        self.store.stimuli.input_sample_ref(pid, port, k).cloned()
    }

    fn write_external(&mut self, pid: ProcessId, port: PortId, k: u64, value: Value) {
        lock(&self.store.outputs)
            .entry((pid, port))
            .or_default()
            .push((k, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};
    use fppn_time::TimeQ;

    fn net() -> Fppn {
        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(TimeQ::from_ms(10))));
        let c = b.process(
            ProcessSpec::new("c", EventSpec::periodic(TimeQ::from_ms(10))).with_output("o"),
        );
        b.channel("x", a, c, ChannelKind::Fifo);
        b.priority(a, c);
        b.build().unwrap().0
    }

    #[test]
    fn store_reads_and_writes() {
        let net = net();
        let store = ConcurrentStore::new(&net, Stimuli::new());
        let a = net.process_by_name("a").unwrap();
        let c = net.process_by_name("c").unwrap();
        let ch = net.channel_by_name("x").unwrap();
        let mut acc = StoreAccess::new(&store);
        acc.write_channel(a, ch, Value::Int(7));
        assert_eq!(acc.read_channel(c, ch), Some(Value::Int(7)));
        acc.write_external(c, PortId::from_index(0), 1, Value::Int(9));
        let obs = store.observables();
        assert_eq!(obs.channels[0], vec![Value::Int(7)]);
        assert_eq!(obs.outputs[0].1, vec![(1, Value::Int(9))]);
    }

    #[test]
    fn counters_are_sequential() {
        let net = net();
        let store = ConcurrentStore::new(&net, Stimuli::new());
        let a = net.process_by_name("a").unwrap();
        assert_eq!(store.next_k(a), 1);
        assert_eq!(store.next_k(a), 2);
    }

    #[test]
    #[should_panic(expected = "whose writer is")]
    fn wrong_writer_is_caught() {
        let net = net();
        let store = ConcurrentStore::new(&net, Stimuli::new());
        let c = net.process_by_name("c").unwrap();
        let ch = net.channel_by_name("x").unwrap();
        StoreAccess::new(&store).write_channel(c, ch, Value::Unit);
    }

    #[test]
    fn store_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<ConcurrentStore<'static>>();
    }
}
